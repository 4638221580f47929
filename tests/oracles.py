"""Independent oracles and the random graph generator shared by the test
modules."""

import math
from fractions import Fraction

from walklab.exact import Poly, QuadraticNumber, _clear_denominators, min_poly_2cos
from walklab.feasibility import REALIZATIONS, FeasibleRow, ThetaClass, multiplicities, n_bounds
from walklab.graphs import Graph, is_connected


def order_of_cos_pair(two_cos: QuadraticNumber, d_max: int = 1000) -> int | None:
    """Smallest d such that two_cos equals 2cos(2*pi*j/d) for some j
    coprime to d, found by exact evaluation of the minimal polynomials."""
    for d in range(1, d_max + 1):
        mp = min_poly_2cos(d)
        value = mp(two_cos)
        if isinstance(value, QuadraticNumber):
            if value == QuadraticNumber(0):
                return d
        elif value == 0:
            return d
    return None


def hessenberg_charpoly(mat):
    """Reference for `charpoly`: similarity reduction to Hessenberg form
    over Q, then the standard principal-minor recurrence."""
    n = len(mat)
    if n == 0:
        return Poly.one()
    h = [[Fraction(x) for x in row] for row in mat]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j] != 0), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for r in range(n):
                h[r][piv], h[r][j + 1] = h[r][j + 1], h[r][piv]
        d = h[j + 1][j]
        for i in range(j + 2, n):
            if h[i][j] == 0:
                continue
            t = h[i][j] / d
            hi, hp = h[i], h[j + 1]
            for c in range(j, n):
                if hp[c]:
                    hi[c] -= t * hp[c]
            for r in range(n):
                if h[r][i]:
                    h[r][j + 1] += t * h[r][i]
    # p_m(x) over leading principal minors of the Hessenberg form
    polys = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [Fraction(0)] * (m + 1)
        hmm = h[m - 1][m - 1]
        for i, c in enumerate(prev):
            cur[i + 1] += c
            if hmm:
                cur[i] -= hmm * c
        prod = Fraction(1)
        for idx in range(m - 2, -1, -1):
            prod *= h[idx + 1][idx]
            if prod == 0:
                break
            coeff = h[idx][m - 1] * prod
            if coeff:
                for i, c in enumerate(polys[idx]):
                    if c:
                        cur[i] -= coeff * c
        polys.append(cur)
    return Poly(polys[n])


def rank(mat):
    """Exact rank by fraction-free (Bareiss) elimination on the
    denominator-cleared integer matrix."""
    if not mat:
        return 0
    m, _ = _clear_denominators(mat)
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def kernel_dim(mat):
    """dim Ker(mat) = n - rank(mat) for a square matrix."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("kernel_dim requires a square matrix")
    return n - rank(mat)


def bareiss_det(mat):
    """Exact determinant of an integer matrix, fraction-free."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly_bareiss(mat):
    """Reference for `charpoly` on integer matrices: evaluate
    det(xI - mat) at n+1 integer points with Bareiss determinants and
    interpolate exactly (Newton divided differences over Q)."""
    n = len(mat)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[(x if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)]
        ys.append(bareiss_det(shifted))
    # Newton coefficients
    coeffs = [Fraction(y) for y in ys]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    poly = Poly.zero()
    basis = Poly.one()
    for i in range(n + 1):
        poly = poly + coeffs[i] * basis
        basis = basis * Poly([-xs[i], 1])
    return poly


def spectrum_charpoly(spec):
    """Reassembly oracle for `extract_spectrum`: the product of
    (x - value)^mult over a spectrum, conjugate surds paired into one
    rational quadratic factor."""
    out = Poly.one()
    seen = set()
    for value, mult in spec.entries:
        if value in seen:
            continue
        if value.is_rational:
            out = out * Poly([-value.a, 1]) ** mult
        else:
            conj = value.conjugate()
            if spec.multiplicity(conj) != mult:
                raise ValueError("conjugate multiplicities differ")
            quad = Poly([value.a * value.a - value.b * value.b * value.m, -2 * value.a, 1])
            out = out * quad ** mult
            seen.add(conj)
        seen.add(value)
    return out


def closed_walks_integral(k, theta_sq, n):
    """Whether (2 k^{2r} + (nk - 2k²) θ^{2r-2}) / n is an integer for
    every positive r, decided exactly.

    The pair (k^{2r} mod n, θ^{2r-2} mod n) evolves by fixed
    multiplications, so it is eventually periodic: checking each state
    until one repeats covers all r.
    """
    if theta_sq <= 0 or int(theta_sq) != theta_sq:
        raise ValueError("theta^2 must be a positive integer")
    ksq = (k * k) % n
    tsq = theta_sq % n
    coeff = (n * k - 2 * k * k) % n
    state = (ksq % n, 1 % n)
    seen = set()
    while state not in seen:
        seen.add(state)
        u, v = state
        if (2 * u + coeff * v) % n:
            return False
        state = ((u * ksq) % n, (v * tsq) % n)
    return True


def enumerate_rows_by_window(theta_class: ThetaClass, k: int) -> list[FeasibleRow]:
    """Reference for `enumerate_rows`: n runs over the whole vertex-count
    window, filtered by parity, integral multiplicities and integral
    closed-walk counts; quadrangle failures are kept, annotated."""
    if k < 2 or k % 2:
        raise ValueError("degree must be even and at least 2")
    theta_sq = theta_class.theta_sq(k)
    if theta_sq.denominator != 1:
        raise ValueError("theta^2 must be integral for an even degree")
    theta_sq_int = int(theta_sq)
    lo, hi = n_bounds(k, theta_sq)
    rows = []
    for n in range(math.ceil(lo), hi + 1):
        if n % 2:
            continue
        mult = multiplicities(k, theta_sq, n)
        if mult is None:
            continue
        if not closed_walks_integral(k, theta_sq_int, n):
            continue
        a, b = mult
        power4 = 2 * k ** 4 + 2 * a * theta_sq_int ** 2
        q = Fraction(power4 - n * (2 * k * k - k), 8)
        q_x = 4 * q / n
        label = REALIZATIONS.get((theta_class, k, n), (None, None))[0]
        rows.append(FeasibleRow(theta_class, k, n, a, b, q, q_x, label))
    return rows


def spectrum_realizes(g, row):
    """Reference for `feasibility.realizes`: the CRT charpoly of g,
    extracted into an exact spectrum, equals the row's spectrum."""
    return g.spectrum == row.spectrum()


def matmul_reference(a, b):
    """Reference for `int_matmul`: the r x p by p x c product by the
    triple loop over Python ints (c = len(b[0]), or 0 when b is empty)."""
    cols = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(cols)]
            for row in a]


def random_regular(n, k, rng):
    """Connected simple k-regular graph on n vertices: configuration model,
    rejecting loops, repeated edges and disconnected pairings."""
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * k // 2 and all(u != v for u, v in edges):
            g = Graph.from_edges(n, sorted(edges))
            if is_connected(g):
                return g
