"""Reference implementations, and the `selfcheck` suite that runs them
against the fast paths: Euclid's gcd and exact division over Q, the
integer matrix product
and the CRT characteristic polynomial of any rational matrix; m_A by
the moment route run on the matrix to t_(2n+1); the arc
space, the walk matrices and the time evolution U with its charpoly
computed directly, the spectral mapping from the adjacency charpoly to
the degree-2E U-charpoly, its cyclotomic sieve, and the matrix-power
period; the spectrum read off the charpoly's own factors, a
polynomial evaluated at a matrix over Q, quadrangle counting
by subset enumeration, the biadjacency block identities that
`feasibility.realizes` replaced, the eigenvalue gate of the paper's
algebraic-integer argument, the Hoffman identity that `analyze`
reports by Hoffman's theorem, the power sums of a spectrum, the
four-eigenvalue classification, and the closed-walk traces of the
built registry graphs, which the tables compose from their factors'.

`period`, `analyze` and `tables` never import this module; only
`selfcheck` does, when it runs.  The tests compare each decision with
these routes.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import exact
from .exact import (
    _INT64_SAFE,
    Poly,
    QuadraticNumber,
    Spectrum,
    Unresolved,
    _crt,
    _factors,
    _primes_below,
    _rational,
    adjacency_times,
    cyclotomic,
    exact_dtype,
    moment_route,
    spectrum_of,
)
from .expressions import parse_expr, read_expr
from .feasibility import REALIZATIONS, REFERENCE_TABLE, ThetaClass, enumerate_rows, render_tables
from .graphs import (Graph, GraphError, PartiteSplit, bipartite_double, closed_walks,
                     complete_bipartite, complete_graph, count_quadrangles, cycle,
                     hamming, hypercube, is_bipartite, is_connected, line_graph,
                     petersen, regularity, tensor_allones)
from .walk import NotRegularError, Periodic, _require_regular_connected, decide_periodic

DIRECT_CHECK_MAX_ARCS = 200

Matrix = Sequence[Sequence[int | Fraction]]


# ---------------------------------------------------------------------------
# polynomials and matrices over Q, and the CRT characteristic polynomial


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (zero when both are zero), by
    Euclid with each remainder scaled to coprime integer coefficients
    so that the rationals do not grow from step to step."""
    while b:
        a, b = b, _primitive(a % b)
    return a * Fraction(1, a.coeffs[-1]) if a else a


def _primitive(p: Poly) -> Poly:
    """The multiple of p with coprime integer coefficients."""
    (ints,), _ = _clear_denominators([p.coeffs])
    return Poly([x // math.gcd(*ints) for x in ints])


def derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def scale_arg(p: Poly, c: int | Fraction) -> Poly:
    """Return p(c*x)."""
    out, pw = [], 1
    for a in p.coeffs:
        out.append(a * pw)
        pw *= c
    return Poly(out)


def exact_div(p: Poly, d: Poly) -> Poly:
    """The quotient p / d, refused when d does not divide p."""
    q, r = divmod(p, d)
    if not r.is_zero():
        raise ValueError(f"{p} is not divisible by {d}")
    return q


def radical(p: Poly) -> Poly:
    """p / gcd(p, p'), each distinct root of p once: for the monic charpoly
    of a symmetric matrix, its minimal polynomial."""
    return exact_div(p, gcd(p, derivative(p)))


def _abs_max(x: np.ndarray) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact product of an r x p and a p x c integer matrix (p = len(b),
    c = len(b[0]), or 0 when b is empty).  Both operands are converted to
    int64 once; the native product runs when p * max|a| * max|b| < 2^62
    bounds every partial sum, and exact Python-int (object dtype)
    arithmetic runs otherwise, also when an entry does not fit in int64."""
    shape_a, shape_b = (len(a), len(b)), (len(b), len(b[0]) if len(b) else 0)
    try:
        x = np.array(a, dtype=np.int64).reshape(shape_a)
        y = np.array(b, dtype=np.int64).reshape(shape_b)
    except OverflowError:
        pass
    else:
        if _abs_max(x) * _abs_max(y) * len(b) < _INT64_SAFE:
            return (x @ y).tolist()
    x = np.array(a, dtype=object).reshape(shape_a)
    y = np.array(b, dtype=object).reshape(shape_b)
    return (x @ y).tolist()


def _clear_denominators(mat: Matrix) -> tuple[list[list[int]], int]:
    """Return (c * mat as integer matrix, c) with c the global lcm of
    entry denominators."""
    c = 1
    for row in mat:
        for x in row:
            if isinstance(x, Fraction):
                c = math.lcm(c, x.denominator)
    out = [[int(_rational(x) * c) for x in row] for row in mat]
    return out, c


def _charpoly_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """Charpoly coefficients mod p, via Hessenberg reduction mod p with
    vectorized row/column updates."""
    n = mat.shape[0]
    h = np.mod(mat, p).astype(np.int64)
    for j in range(n - 2):
        col = h[j + 1:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[piv, j + 1], :] = h[[j + 1, piv], :]
            h[:, [piv, j + 1]] = h[:, [j + 1, piv]]
        inv = pow(int(h[j + 1, j]), p - 2, p)
        t = (h[j + 2:, j] * inv) % p
        h[j + 2:, j:] = (h[j + 2:, j:] - t[:, None] * h[j + 1, j:][None, :]) % p
        h[:, j + 1] = (h[:, j + 1] + h[:, j + 2:] @ t) % p
    polys: list[np.ndarray] = [np.array([1], dtype=np.int64)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = np.zeros(m + 1, dtype=np.int64)
        cur[1:m + 1] = prev
        cur[:m] = (cur[:m] - int(h[m - 1, m - 1]) * prev) % p
        prod = 1
        for idx in range(m - 2, -1, -1):
            prod = (prod * int(h[idx + 1, idx])) % p
            if prod == 0:
                break
            coeff = (int(h[idx][m - 1]) * prod) % p
            if coeff:
                cur[:idx + 1] = (cur[:idx + 1] - coeff * polys[idx]) % p
        polys.append(np.mod(cur, p))
    return polys[n]


def _charpoly_coeff_bound(m: Sequence[Sequence[int]] | np.ndarray) -> int:
    """An integer above |c_(n-i)| for every coefficient of det(xI - m).

    c_(n-i) is, up to sign, the sum of the C(n,i) principal i x i minors.
    Hadamard bounds each by the product of its columns' norms, and those
    by the norms r_j of the full columns, so |c_(n-i)| <= e_i(r_1..r_n).
    Maclaurin's inequality and the power-mean inequality give
    e_i(r) <= C(n,i) (sum r_j / n)^i <= C(n,i) (F/n)^(i/2) with
    F = sum of the squared entries.  This holds for every square matrix,
    symmetric or not; isqrt(C(n,i)^2 F^i // n^i) + 1 exceeds that bound.
    """
    n = len(m)
    fro = int((np.asarray(m, dtype=object) ** 2).sum())
    return max(math.isqrt(math.comb(n, i) ** 2 * fro ** i // n ** i) + 1
               for i in range(n + 1))


def charpoly(mat: Matrix | np.ndarray) -> Poly:
    """Exact monic characteristic polynomial det(xI - mat), by CRT over
    word-size primes on the denominator-cleared integer matrix (an int64
    array is used as it is), enough of them that their product exceeds
    twice _charpoly_coeff_bound.  Integer input yields integer
    coefficients."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("charpoly requires a square matrix")
    if isinstance(mat, np.ndarray) and mat.dtype == np.int64:
        m, c = mat, 1
    else:
        ints, c = _clear_denominators(mat)
        m = np.array(ints, dtype=object).reshape(n, n)
    coeff_bound = _charpoly_coeff_bound(m)
    # primes small enough that dot products of residues fit in int64
    primes: list[int] = []
    modulus = 1
    for q in _primes_below(math.isqrt(_INT64_SAFE // max(n, 1))):
        primes.append(q)
        modulus *= q
        if modulus > 2 * coeff_bound + 1:
            break
    p = Poly(_crt([_charpoly_mod(m, q).tolist() for q in primes], primes))
    # det(xI - M/c) = c^-n * det(cx I - M)
    return p if c == 1 else scale_arg(p, c) * Fraction(1, c ** n)


def min_poly_route(table: np.ndarray) -> Poly:
    """m_A by the moment route with runs of up to t_(2n+1): every prime
    whose traces have linear complexity s = deg m_A certifies m_A mod q by
    t_2s, so the route always ends with a certified recurrence."""
    return Poly(exact._recurrence(exact._TableSource(table), 2 * len(table) + 2,
                                  _primes_below(exact._ROUTE_PRIMES_BELOW), []))


# ---------------------------------------------------------------------------
# cyclotomic sieve


@lru_cache(maxsize=None)
def _totient(d: int) -> int:
    m, result = d, d
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


@dataclass(frozen=True)
class SieveResult:
    """Outcome of dividing out all cyclotomic factors: multiset of orders
    (d -> multiplicity) and the monic residual (1 when fully sieved)."""

    orders: tuple[tuple[int, int], ...]
    residual: Poly

    @property
    def full(self) -> bool:
        return self.residual.degree() <= 0

    def order_lcm(self) -> int:
        out = 1
        for d, _ in self.orders:
            out = math.lcm(out, d)
        return out

    def orders_dict(self) -> dict[int, int]:
        return dict(self.orders)


def cyclotomic_sieve(p: Poly) -> SieveResult:
    """Divide out every cyclotomic factor of a monic rational polynomial.

    Any cyclotomic factor Phi_d of the residual satisfies phi(d) <=
    deg(residual), and phi(d) >= sqrt(d/2) gives d <= 2*deg^2, so scanning
    d upward against the shrinking residual is complete.
    """
    if not p.is_monic():
        raise ValueError("sieve requires a monic polynomial")
    orders: dict[int, int] = {}
    residual = p
    d = 1
    while residual.degree() > 0 and d <= 2 * residual.degree() ** 2:
        if _totient(d) <= residual.degree():
            cyc = cyclotomic(d)
            while cyc.divides(residual):
                residual = exact_div(residual, cyc)
                orders[d] = orders.get(d, 0) + 1
        d += 1
    return SieveResult(tuple(sorted(orders.items())), residual)


# ---------------------------------------------------------------------------
# integer matrix powers


def mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_mat_power(a: Sequence[Sequence[int]], e: int) -> list[list[int]]:
    """Exact a^e by binary powering."""
    n = len(a)
    result = mat_identity(n)
    base = [list(r) for r in a]
    while e:
        if e & 1:
            result = int_matmul(result, base)
        e >>= 1
        if e:
            base = int_matmul(base, base)
    return result


def eval_poly_at_matrix(p: Poly, a: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Exact p(a) for an integer matrix a, by Horner with integer matrix
    products on the denominator-cleared coefficients of p."""
    (coeffs,), den = _clear_denominators([p.coeffs or (0,)])
    n = len(a)
    acc = [[coeffs[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(coeffs[:-1]):
        acc = int_matmul(acc, a)
        for i in range(n):
            acc[i][i] += c
    return [[Fraction(x, den) for x in row] for row in acc]


# ---------------------------------------------------------------------------
# arcs and walk matrices


@dataclass(frozen=True)
class ArcSpace:
    """Directed arcs of a graph in canonical (origin, terminus) order,
    with the arc-reversal involution."""

    arcs: tuple[tuple[int, int], ...]
    inverse_index: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.arcs)


def arc_space(g: Graph) -> ArcSpace:
    arcs = [(i, j) for i, j in np.argwhere(g.adjacency).tolist()]  # row-major: sorted
    index = {arc: pos for pos, arc in enumerate(arcs)}
    inverse = tuple(index[(j, i)] for (i, j) in arcs)
    return ArcSpace(tuple(arcs), inverse)


@dataclass(frozen=True)
class WalkMatrices:
    """Shift S, discriminant T = A/k, and time evolution U = S(2d*d - I)
    over the canonical arc order.  k * U is an integer matrix; U is real
    orthogonal and S is a symmetric permutation with S^2 = I."""

    shift: tuple[tuple[int, ...], ...]
    discriminant: tuple[tuple[Fraction, ...], ...]
    time_evolution: tuple[tuple[Fraction, ...], ...]
    degree: int
    arcs: ArcSpace

    def scaled_evolution(self) -> list[list[int]]:
        """k * U as plain integers."""
        return [[int(x * self.degree) for x in row] for row in self.time_evolution]


def build_walk_matrices(g: Graph) -> WalkMatrices:
    k = _require_regular_connected(g)
    space = arc_space(g)
    m = space.size
    shift = tuple(tuple(1 if b == space.inverse_index[a] else 0 for b in range(m))
                  for a in range(m))
    # (S (2 d*d - k I))[a][b] = 2 [o(a) = t(b)] - k [b = a^-1]
    ku = [[2 * (space.arcs[a][0] == space.arcs[b][1]) - k * (b == space.inverse_index[a])
           for b in range(m)] for a in range(m)]
    u = tuple(tuple(Fraction(x, k) for x in row) for row in ku)
    t = tuple(tuple(Fraction(x, k) for x in row) for row in g.adjacency.tolist())
    ones = int_matmul(ku, [[x for x in row] for row in zip(*ku)])
    if any(ones[i][j] != (k * k if i == j else 0) for i in range(m) for j in range(m)):
        raise AssertionError("time evolution is not orthogonal")
    return WalkMatrices(shift, t, u, k, space)


def u_charpoly_direct(g: Graph) -> Poly:
    """Charpoly of the time evolution U, by the CRT charpoly of its
    denominator-cleared matrix."""
    return charpoly([list(r) for r in build_walk_matrices(g).time_evolution])


# ---------------------------------------------------------------------------
# spectral mapping


@dataclass(frozen=True)
class USpectrumModel:
    """Time-evolution spectrum data derived from the vertex spectrum:
    the eigenvalue pairs e^{+-i arccos(lambda)} over the discriminant
    spectrum, plus +1 and -1 with the cycle-space multiplicities."""

    m_plus: int
    m_minus: int
    u_charpoly: Poly


def u_charpoly_via_mapping(adj_charpoly: Poly, k: int, edges: int, vertices: int,
                           ker_dim_t_plus_i: int) -> Poly:
    """Characteristic polynomial of the time evolution from the adjacency
    characteristic polynomial of a connected k-regular graph.

    Every discriminant eigenvalue t other than +-1 contributes the factor
    x^2 - 2tx + 1 (the conjugate unit-circle pair); t = +1 and t = -1
    contribute single factors (x - 1) and (x + 1) since the pair
    degenerates there; the flat +-1 eigenspaces add (x-1)^(E-V+1) and
    (x+1)^(E-V+ker).  Total degree is forced to 2E.
    """
    if adj_charpoly.degree() != vertices:
        raise ValueError("adjacency charpoly degree does not match vertex count")
    # monic discriminant polynomial p(t) = p_A(k t) / k^n
    p_t = scale_arg(adj_charpoly, k) * Fraction(1, k ** vertices)
    g = exact_div(p_t, Poly([-1, 1]))
    for _ in range(ker_dim_t_plus_i):
        g = exact_div(g, Poly([1, 1]))
    if g.degree() >= 1 and (g(Fraction(1)) == 0 or g(Fraction(-1)) == 0):
        raise ValueError("leftover unit eigenvalue: inconsistent inputs")
    # substitute t = (x^2+1)/(2x) and clear denominators: each root t of g
    # becomes the conjugate pair of roots of x^2 - 2tx + 1
    dg = g.degree()
    x2p1 = Poly([1, 0, 1])
    acc = Poly.zero()
    pw = Poly.one()
    for i in range(dg + 1):
        term = g.coeffs[i] * pw * (2 ** (dg - i))
        acc = acc + Poly((0,) * (dg - i) + term.coeffs)
        pw = pw * x2p1
    m_plus = edges - vertices + 1
    m_minus = edges - vertices + ker_dim_t_plus_i
    if m_plus < 0 or m_minus < 0:
        raise ValueError("negative flat multiplicity: inconsistent inputs")
    out = Poly([-1, 1]) ** (1 + m_plus) * Poly([1, 1]) ** (ker_dim_t_plus_i + m_minus) * acc
    if out.degree() != 2 * edges:
        raise ValueError(
            f"mapped charpoly has degree {out.degree()}, expected {2 * edges}")
    return out


def u_spectrum_model(g: Graph) -> USpectrumModel:
    k = _require_regular_connected(g)
    # dim Ker(A + kI) is the multiplicity of -k: A is diagonalizable
    ker, rest = 0, g.charpoly
    while rest(-k) == 0:
        ker, rest = ker + 1, exact_div(rest, Poly([k, 1]))
    u_poly = u_charpoly_via_mapping(g.charpoly, k, g.edge_count, g.n, ker)
    return USpectrumModel(
        m_plus=g.edge_count - g.n + 1,
        m_minus=g.edge_count - g.n + ker,
        u_charpoly=u_poly,
    )


# ---------------------------------------------------------------------------
# matrix-power period


def period_oracle(g: Graph, tau_max: int = 2 * math.lcm(*range(1, 25))) -> int | None:
    """Smallest tau <= tau_max with U^tau = I, by exact iteration.

    Residues of (kU)^tau modulo two fixed primes screen the candidates;
    every candidate is then verified exactly over the integers, so the
    result does not depend on the prime choice.
    """
    k = _require_regular_connected(g)
    if 2 * g.edge_count > DIRECT_CHECK_MAX_ARCS:
        raise ValueError(f"period oracle limited to {DIRECT_CHECK_MAX_ARCS} arcs")
    ku = build_walk_matrices(g).scaled_evolution()
    m = len(ku)
    pmax = math.isqrt(2 ** 62 // max(m, 1))  # residue dot products fit int64
    prime_gen = _primes_below(pmax)
    screens = []
    for _ in range(2):
        p = next(prime_gen)
        base = np.array([[x % p for x in row] for row in ku], dtype=np.int64)
        screens.append({"p": p, "base": base, "power": base.copy(), "kpow": k % p})
    eye = np.eye(m, dtype=np.int64)
    for tau in range(1, tau_max + 1):
        if tau > 1:
            for s in screens:
                s["power"] = (s["power"] @ s["base"]) % s["p"]
                s["kpow"] = (s["kpow"] * k) % s["p"]
        if all(np.array_equal(s["power"], (s["kpow"] * eye) % s["p"]) for s in screens):
            exact = int_mat_power(ku, tau)
            scale = k ** tau
            if all(exact[i][j] == (scale if i == j else 0)
                   for i in range(m) for j in range(m)):
                return tau
    return None


# ---------------------------------------------------------------------------
# quadrangles


def count_quadrangles_brute(g: Graph) -> tuple[int, list[int]]:
    """Enumerate 4-subsets and count the distinct 4-cycles each induces
    (up to 3 per subset)."""
    per_vertex = [0] * g.n
    q = 0
    adj = g.adjacency.tolist()
    for quad in itertools.combinations(range(g.n), 4):
        w, x, y, z = quad
        # three cyclic orders on a 4-subset, identified by the pairing
        # of opposite (non-adjacent-in-cycle) vertices
        cycles = 0
        for (a, b), (c, d) in (((w, x), (y, z)), ((w, y), (x, z)), ((w, z), (x, y))):
            # cycle a-c-b-d with diagonals ab and cd
            if adj[a][c] and adj[c][b] and adj[b][d] and adj[d][a]:
                cycles += 1
        if cycles:
            q += cycles
            for v in quad:
                per_vertex[v] += cycles
    return q, per_vertex


# ---------------------------------------------------------------------------
# biadjacency block identities


class UnresolvedSpectrumError(ValueError):
    pass


class SpectrumShapeError(ValueError):
    pass


def biadjacency(g: Graph, split: PartiteSplit) -> np.ndarray:
    """The block N of the adjacency matrix, rows indexed by part1 and
    columns by part2, both in canonical vertex order."""
    seen = sorted(split.part1 + split.part2)
    if seen != list(range(g.n)):
        raise GraphError("split does not cover the vertex set exactly once")
    part1set = set(split.part1)
    for u, v in g.edges():
        if (u in part1set) == (v in part1set):
            raise GraphError(f"edge ({u},{v}) stays inside one part")
    return g.adjacency[np.ix_(split.part1, split.part2)]


def _five_eig_shape(spec: Spectrum, k: int) -> tuple[QuadraticNumber, int, int] | None:
    """Match {[+-k]^1, [+-theta]^a, [0]^b} with a >= 1, b >= 0; returns
    (theta, a, b) or None."""
    top = QuadraticNumber(k)
    if spec.multiplicity(top) != 1 or spec.multiplicity(-top) != 1:
        return None
    b = spec.multiplicity(QuadraticNumber(0))
    others = [(v, m) for v, m in spec.entries
              if v not in (top, -top) and v.sign() != 0]
    if len(others) != 2:
        return None
    (hi, a1), (lo, a2) = others
    if hi != -lo or a1 != a2:
        return None
    theta = hi if hi.sign() > 0 else lo
    return theta, a1, b


def verify_biadjacency_identities(g: Graph) -> bool:
    """Exact block identities on the biadjacency matrix N of a connected
    bipartite regular graph whose spectrum is {[+-k]^1, [+-theta]^a} or
    {[+-k]^1, [+-theta]^a, [0]^b}:

    four eigenvalues:  N N^T       = theta^2 I + (2(k^2 - theta^2)/n) J
    five eigenvalues:  N N^T N     = theta^2 N + (2k/n)(k^2 - theta^2) J

    The entries of N N^T and N N^T N, and their partial sums, are at
    most k and k^2.
    """
    k = _require_regular_connected(g)
    split = is_bipartite(g)
    if split is None:
        raise SpectrumShapeError("graph is not bipartite")
    spec = g.spectrum
    if isinstance(spec, Unresolved):
        raise UnresolvedSpectrumError(f"spectrum did not resolve: {spec.residual}")
    shape = _five_eig_shape(spec, k)
    if shape is None:
        raise SpectrumShapeError(f"spectrum {spec} is not of the 4/5-eigenvalue form")
    theta, _, b = shape
    theta_sq = as_fraction(theta * theta)
    n = g.n
    nmat = biadjacency(g, split).astype(exact_dtype(k * k))
    nnt = nmat @ nmat.T
    if b == 0:
        identity = np.eye(len(nmat), dtype=object)
        return bool((nnt == theta_sq * identity + Fraction(2 * (k * k - theta_sq), n)).all())
    return bool((nnt @ nmat == theta_sq * nmat + Fraction(2 * k, n) * (k * k - theta_sq)).all())


# ---------------------------------------------------------------------------
# eigenvalue gate


def as_fraction(x: QuadraticNumber) -> int | Fraction:
    """The rational value of x: an int when it is integral, else a Fraction."""
    if not x.is_rational:
        raise ValueError(f"{x} is irrational")
    return x.a


def is_quadratic_algebraic_integer(x: QuadraticNumber) -> bool:
    """Exact membership of x in the ring of algebraic integers.

    Rational values are algebraic integers iff they are plain integers.
    For x = a + b*sqrt(m) with b != 0 the integral basis of the quadratic
    field decides: integer a, b when m = 2, 3 (mod 4); when m = 1 (mod 4)
    the basis element is (1 + sqrt(m))/2, so 2b and a - b must be integers.
    """
    if x.is_rational:
        return x.a.denominator == 1
    assert x.m is not None
    if x.m % 4 in (2, 3):
        return x.a.denominator == 1 and x.b.denominator == 1
    twob = 2 * x.b
    return twob.denominator == 1 and (x.a - x.b).denominator == 1


def eigenvalue_gate(k: int, theta: QuadraticNumber) -> bool:
    """Admissibility of a second-largest eigenvalue for a periodic
    bipartite regular graph with four or five distinct eigenvalues.

    Replays the algebraic-integer argument: 2*theta/k must be an
    algebraic integer in the open interval (0, 2); a rational value is
    then forced to 1 and an irrational one to sqrt(2) or sqrt(3); theta
    itself must be an algebraic integer, which forces k even.
    """
    if k < 1:
        raise ValueError("degree must be positive")
    if not isinstance(theta, QuadraticNumber):
        theta = QuadraticNumber(theta)
    if theta.sign() <= 0:
        raise ValueError("theta must be positive")
    ratio = theta * 2 / k
    if not (QuadraticNumber(0) < ratio < QuadraticNumber(2)):
        return False
    if not is_quadratic_algebraic_integer(ratio):
        return False
    if ratio.is_rational:
        if ratio != QuadraticNumber(1):
            return False
    elif ratio.a != 0:
        # eigenvalues with rational square are pure surds
        return False
    return is_quadratic_algebraic_integer(theta)


# ---------------------------------------------------------------------------
# Hoffman identity


def hoffman_check(g: Graph) -> bool:
    """Exact check of n q(A) = q(k) J with q = m_A / (x - k), the product
    of (x - lambda) over the distinct non-principal eigenvalues.  Holds for
    connected regular graphs; fails when the graph is disconnected.

    q is monic with integer coefficients, so both sides are integer
    matrices: the identity says q(k) is divisible by n and every entry of
    q(A) is q(k)/n.  Every entry of a Horner step of q(A), and every
    partial sum of its product with A, is at most sum |q_i| k^i in
    absolute value; Horner runs in int64 below 2^62 and in Python ints
    (object dtype) from there on."""
    k = regularity(g)
    if k is None or k == 0:
        raise NotRegularError("graph is not regular (or has no edges)")
    q = exact_div(g.min_poly, Poly([-k, 1])).coeffs
    acc = np.zeros((g.n, g.n), dtype=exact_dtype(sum(abs(c) * k ** i for i, c in enumerate(q))))
    np.fill_diagonal(acc, q[-1])
    for c in reversed(q[:-1]):
        acc = adjacency_times(g.neighbour_table, acc)
        acc.flat[::g.n + 1] += c
    entry, rem = divmod(sum(c * k ** i for i, c in enumerate(q)), g.n)
    return rem == 0 and bool((acc == entry).all())


# ---------------------------------------------------------------------------
# selfcheck


def _selfcheck_catalog() -> list[tuple[str, Graph]]:
    c6 = cycle(6)
    return [
        ("K2", complete_graph(2)),
        ("K2,2", complete_bipartite(2, 2)),
        ("C6", c6),
        ("C8", cycle(8)),
        ("K3,3", complete_bipartite(3, 3)),
        ("Q3", hypercube(3)),
        ("petersen", petersen()),
        ("L(Q3)", line_graph(hypercube(3))),
        ("C6⊗J2", tensor_allones(c6, 2)),
        ("C8⊗J2", tensor_allones(cycle(8), 2)),
        ("H(4,2)", hamming(4, 2)),
        ("L(Q3)⊗K2", bipartite_double(line_graph(hypercube(3)))),
    ]


def _check_cyclotomic_products() -> bool:
    for n in (1, 2, 6, 12, 30, 60, 100):
        prod = Poly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * exact.cyclotomic(d)
        if prod != Poly([-1] + [0] * (n - 1) + [1]):
            return False
    return True


def _check_sieve_reconstruction() -> bool:
    for name, g in _selfcheck_catalog():
        if not regularity(g) or not is_connected(g):
            continue
        model = u_spectrum_model(g)
        res = cyclotomic_sieve(model.u_charpoly)
        rebuilt = Poly.one()
        for d, mult in res.orders:
            rebuilt = rebuilt * exact.cyclotomic(d) ** mult
        if rebuilt * res.residual != model.u_charpoly:
            return False
        # the vertex-side decision must find the same cyclotomic orders
        verdict = decide_periodic(g)
        if isinstance(verdict, Periodic) != res.full:
            return False
        if res.full and verdict.cyclotomic_orders != res.orders:
            return False
    return True


def _check_walk_matrices() -> bool:
    for name, g in _selfcheck_catalog():
        if not regularity(g) or not is_connected(g):
            continue
        wm = build_walk_matrices(g)
        m = len(wm.shift)
        s = [list(r) for r in wm.shift]
        s2 = int_matmul(s, s)
        if any(s2[i][j] != (1 if i == j else 0) for i in range(m) for j in range(m)):
            return False
    return True


def _check_mapping_vs_direct() -> bool:
    return all(u_charpoly_direct(g) == u_spectrum_model(g).u_charpoly
               for name, g in _selfcheck_catalog()
               if regularity(g) and is_connected(g)
               and 2 * g.edge_count <= DIRECT_CHECK_MAX_ARCS)


def power_sum(spec: Spectrum, r: int) -> int | Fraction:
    """Exact sum of the r-th powers of all eigenvalues of spec (a rational
    number: conjugate surd pairs cancel for spectra of rational
    matrices).  Surd contributions are tracked per radicand."""
    rational = 0
    surd: dict[int, int | Fraction] = {}
    for value, mult in spec.entries:
        term = value ** r
        rational += term.a * mult
        if term.b:
            assert term.m is not None
            surd[term.m] = surd.get(term.m, 0) + term.b * mult
    if any(coeff != 0 for coeff in surd.values()):
        raise ValueError("power sum is irrational")
    return _rational(rational)


def _check_power_sums() -> bool:
    for name, g in _selfcheck_catalog():
        kk = regularity(g)
        spec = g.spectrum
        if not isinstance(spec, Spectrum):
            return False
        if kk is not None and power_sum(spec, 2) != g.n * kk:
            return False
        if is_bipartite(g) and not spec.is_symmetric():
            return False
    return True


def _check_min_poly() -> bool:
    for name, g in _selfcheck_catalog():
        if not g.min_poly.divides(g.charpoly):
            return False
        if any(any(row) for row in eval_poly_at_matrix(g.min_poly, g.adjacency)):
            return False
    return True


def _check_moment_route() -> bool:
    for name, g in _selfcheck_catalog():
        moments, p = moment_route(g.neighbour_table), charpoly(g.adjacency)
        m = radical(p)
        if (moments.charpoly != p or moments.min_poly not in (None, m)
                or min_poly_route(g.neighbour_table) != m or g.min_poly != m):
            return False
    return True


def extract_spectrum(p: Poly) -> Spectrum | Unresolved:
    """The exact roots of the charpoly p of a real symmetric matrix, from
    the factors of p itself (`exact._factors`): the reference for a
    graph's spectrum, which is read off its factor list
    (`graphs.Graph.factors`), those of m_A where the route certified it."""
    return spectrum_of(*_factors(p))


def _check_route_spectrum() -> bool:
    routed = [g for _, g in _selfcheck_catalog() if g._moments.min_poly is not None]
    return bool(routed) and all(g.spectrum == extract_spectrum(g.charpoly) for g in routed)


def _check_quadrangles() -> bool:
    for name, g in _selfcheck_catalog():
        if g.n > 64:
            continue
        q1, pv1 = count_quadrangles(g)
        q2, pv2 = count_quadrangles_brute(g)
        if q1 != q2 or pv1 != pv2 or sum(pv1) != 4 * q1:
            return False
    return True


def _check_hoffman() -> bool:
    return all(hoffman_check(g) for name, g in _selfcheck_catalog()
               if regularity(g) and is_connected(g))


def _check_biadjacency() -> bool:
    return all(verify_biadjacency_identities(g) for g in (
        cycle(6), tensor_allones(cycle(6), 2), hamming(4, 2),
        bipartite_double(line_graph(hypercube(3)))))


def _check_known_periods() -> bool:
    for g, expected in ((cycle(6), 6), (tensor_allones(cycle(6), 2), 12),
                        (cycle(8), 8), (tensor_allones(cycle(8), 2), 8)):
        verdict = decide_periodic(g)
        if not isinstance(verdict, Periodic) or verdict.period != expected:
            return False
        if period_oracle(g, 2 * expected) != expected:
            return False
    return True


def _check_tables() -> bool:
    render_tables(10, "csv")
    expected_cols: dict = {}
    for (cls, k, n) in REFERENCE_TABLE:
        expected_cols.setdefault((cls, k), set()).add(n)
    return all({r.n for r in enumerate_rows(cls, k)} == ns
               for (cls, k), ns in expected_cols.items())


def closed_walk_traces(g: Graph, count: int) -> list[int]:
    """t_0 .. t_(count-1) for count >= 2, t_r = tr A^r: n, 0 (A has no
    loops), then the vertex sums of `graphs.closed_walks`, as Python ints."""
    return [g.n, 0] + [int(w.sum()) for w in itertools.islice(closed_walks(g), count - 2)]


def _check_expression_traces() -> bool:
    return all(read_expr(expr).traces(11) == closed_walk_traces(parse_expr(expr), 11)
               for _, expr in REALIZATIONS.values())


def classify_four_eigenvalue(k_max: int) -> list[tuple[int, int, Spectrum]]:
    """Replay of the four-distinct-eigenvalue classification: the window
    k > θ² kills the surd classes outright and forces k = 2, θ = 1,
    whence n = 6; the result does not depend on k_max."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    out: list[tuple[int, int, Spectrum]] = []
    for k in range(2, k_max + 1, 2):
        for cls in ThetaClass:
            theta_sq = cls.theta_sq(k)
            if not k > theta_sq:
                continue
            # four-eigenvalue shape: a = n/2 - 1, so theta^2 (n-2) = nk - 2k^2
            n, rem = divmod(2 * (k * k - theta_sq), k - theta_sq)
            if rem or n < 4 or n % 2:
                continue
            theta = cls.theta(k)
            spec = Spectrum.from_pairs([
                (QuadraticNumber(k), 1), (QuadraticNumber(-k), 1),
                (theta, n // 2 - 1), (-theta, n // 2 - 1),
            ])
            out.append((k, n, spec))
    return out


def _check_four_eigenvalue() -> bool:
    four = classify_four_eigenvalue(100)
    return len(four) == 1 and four[0][0] == 2 and four[0][1] == 6


_SELFCHECKS = (
    ("cyclotomic product identity (x^n - 1)", _check_cyclotomic_products),
    ("cyclotomic sieve reconstruction", _check_sieve_reconstruction),
    ("shift involution and orthogonal evolution", _check_walk_matrices),
    ("spectral mapping equals direct charpoly", _check_mapping_vs_direct),
    ("power sums and bipartite symmetry", _check_power_sums),
    ("minimal polynomial annihilates A and divides the charpoly", _check_min_poly),
    ("moment route equals the CRT charpoly and p / gcd(p, p')", _check_moment_route),
    ("spectrum from a certified m_A equals that from p_A", _check_route_spectrum),
    ("quadrangle counts (walk bookkeeping = enumeration)", _check_quadrangles),
    ("hoffman identity on connected regular graphs", _check_hoffman),
    ("biadjacency block identities", _check_biadjacency),
    ("known periods (decision = matrix-power oracle)", _check_known_periods),
    ("feasibility tables match the reference rows", _check_tables),
    ("registry traces in closed form equal those of the built graphs", _check_expression_traces),
    ("four-eigenvalue classification is C6 only", _check_four_eigenvalue),
)


def run_selfcheck(verbose: bool = False) -> tuple[bool, str]:
    lines: list[str] = []
    all_ok = True
    for name, fn in _SELFCHECKS:
        note = ""
        start = time.monotonic()
        try:
            ok = fn()
        except Exception as exc:  # an invariant blowing up is a failure
            ok = False
            note = f" ({type(exc).__name__}: {exc})"
        if verbose:  # timing stays behind the flag: default output is stable
            note += f" [{time.monotonic() - start:.2f}s]"
        all_ok &= ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}{note}")
    return all_ok, "\n".join(lines) + "\n"
