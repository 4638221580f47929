"""Reference implementations that `selfcheck` runs against the fast
paths: the arc space, the walk matrices and the time evolution U with its
charpoly computed directly, the spectral mapping from the adjacency
charpoly to the degree-2E U-charpoly, the cyclotomic sieve of that
charpoly, the matrix-power period, a polynomial evaluated at a matrix
over Q, quadrangle counting by subset enumeration, and the biadjacency
block identities that `feasibility.realizes` replaced.

`period`, `analyze` and `tables` decide from the adjacency side and never
call into this module.  Only the selfcheck checks in `walklab.cli` import
it, when they run; the tests compare each decision with these routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exact import (
    Poly,
    QuadraticNumber,
    Spectrum,
    Unresolved,
    _clear_denominators,
    _primes_below,
    charpoly,
    cyclotomic,
    exact_dtype,
    int_matmul,
)
from .graphs import Graph, GraphError, PartiteSplit, is_bipartite
from .walk import _require_regular_connected

DIRECT_CHECK_MAX_ARCS = 200


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
                residual = residual.exact_div(cyc)
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
    arcs = sorted((i, j) for i in range(g.n) for j in g.neighbors(i))
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
    p_t = adj_charpoly.scale_arg(k) * Fraction(1, k ** vertices)
    g = p_t.exact_div(Poly([-1, 1]))
    for _ in range(ker_dim_t_plus_i):
        g = g.exact_div(Poly([1, 1]))
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
        ker, rest = ker + 1, rest.exact_div(Poly([k, 1]))
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
        raise ValueError("period oracle limited to 200 arcs")
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
    theta_sq = (theta * theta).as_fraction()
    n = g.n
    nmat = biadjacency(g, split).astype(exact_dtype(k * k))
    nnt = nmat @ nmat.T
    if b == 0:
        identity = np.eye(len(nmat), dtype=object)
        return bool((nnt == theta_sq * identity + Fraction(2 * (k * k - theta_sq), n)).all())
    return bool((nnt @ nmat == theta_sq * nmat + Fraction(2 * k, n) * (k * k - theta_sq)).all())
