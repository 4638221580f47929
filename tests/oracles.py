"""Independent oracles and the random graph generator shared by the test
modules."""

import math
from fractions import Fraction

from walklab.exact import Poly, QuadraticNumber, min_poly_2cos
from walklab.feasibility import (
    REALIZATIONS,
    FeasibleRow,
    ThetaClass,
    closed_walks_integral,
    multiplicities,
    n_bounds,
)
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
