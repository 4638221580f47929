"""Independent oracles and the random graph generator shared by the test
modules."""

import math
from fractions import Fraction

from walklab.exact import QuadraticNumber, min_poly_2cos
from walklab.feasibility import (
    REALIZATIONS,
    FeasibleRow,
    RowChecks,
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
        checks = RowChecks(
            mult_integral=True,
            n_in_bounds=True,
            n_even=True,
            closed_walks_integral=True,
            q_integral_nonneg=q.denominator == 1 and q >= 0,
            qx_integral_nonneg=q_x.denominator == 1 and q_x >= 0,
        )
        label = REALIZATIONS.get((theta_class, k, n), (None, None))[0]
        rows.append(FeasibleRow(theta_class, k, n, a, b, q, q_x, checks, label))
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
