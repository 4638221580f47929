"""Exact Grover-walk engine: the periodicity decision with exact period,
read off the adjacency spectrum from m_A where the moment route
certified m_A and off the adjacency charpoly elsewhere, and the
walk-regularity check of `analyze`, on the per-vertex closed-walk counts
of `graphs.closed_walks` (apart from the traces of the moment route).
The walk matrices, the U-side routes, the biadjacency block identities,
the eigenvalue gate and the Hoffman identity check are reference
implementations in `walklab.oracles`.

Restricted to connected regular graphs: for irregular degrees the
reflection 2d*d - I has irrational entries and the exact rational
pipeline would break, so such inputs are rejected rather than
approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Poly,
    QuadraticNumber,
    Spectrum,
    is_quadratic_algebraic_integer,
    min_poly_2cos,
)
from .graphs import Graph, closed_walks, is_connected


class NotRegularError(ValueError):
    pass


class NotConnectedError(ValueError):
    pass


def _require_regular_connected(g: Graph) -> int:
    k = g.regularity
    if k is None or k == 0:
        raise NotRegularError("graph is not regular (or has no edges)")
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")
    return k


# ---------------------------------------------------------------------------
# periodicity


@dataclass(frozen=True)
class Periodic:
    period: int
    cyclotomic_orders: tuple[tuple[int, int], ...]

    def render(self) -> str:
        orders = ",".join(str(d) for d, _ in self.cyclotomic_orders)
        return f"PERIODIC period={self.period} orders={{{orders}}}"


@dataclass(frozen=True)
class NotPeriodic:
    witness: QuadraticNumber | None
    residual: Poly | None

    def render(self) -> str:
        if self.witness is not None:
            return f"NOT PERIODIC witness={self.witness}"
        return f"NOT PERIODIC residual={self.residual}"


PeriodicityVerdict = Periodic | NotPeriodic


# The psi_d of degree at most 2, by their coefficients (constant term
# first): the minimal polynomials of the values 2cos(2*pi*j/d) of degree
# phi(d)/2 <= 2, so d is one of the nine orders with phi(d) <= 4, all at
# most 12.
_ORDER_OF_PSI = {
    (-2, 1): 1,
    (2, 1): 2,
    (1, 1): 3,
    (0, 1): 4,
    (-1, 1, 1): 5,
    (-1, 1): 6,
    (-2, 0, 1): 8,
    (-1, -1, 1): 10,
    (-3, 0, 1): 12,
}


def _witness(spec: Spectrum, k: int) -> QuadraticNumber | None:
    """The first lambda/k, in descending order, with 2*lambda/k not an
    algebraic integer, or None."""
    return next((lam / k for lam in spec.values()
                 if not is_quadratic_algebraic_integer(lam * Fraction(2, k))), None)


def _with_flat_eigenspaces(mult: dict[int, int], n: int, edges: int) -> Periodic:
    """The verdict from the multiplicities of the psi_d in p_2T: Phi_d takes
    that of psi_d for d >= 3, and Phi_1 and Phi_2 add the flat +1 and -1
    eigenspaces of U, of dimensions E - n + 1 and E - n + ker, where
    ker = mult(psi_2) = dim Ker(A + kI)."""
    mult[1] = mult.get(1, 0) + edges - n + 1
    mult[2] = 2 * mult.get(2, 0) + edges - n
    orders = tuple(sorted((d, m) for d, m in mult.items() if m))
    return Periodic(period=math.lcm(*(d for d, _ in orders)),
                    cyclotomic_orders=orders)


def decide_periodic(g: Graph) -> PeriodicityVerdict:
    """Decide periodicity of the Grover walk on a connected regular graph.

    The eigenvalues of 2T = 2A/k lie in [-2, 2], so by Kronecker's theorem
    the walk is periodic iff every 2*lambda/k is an algebraic integer; each
    is then 2cos(2*pi*j/d) for some order d.  That is the same test as
    p_2T(x) = (2/k)^n p_A(kx/2) in Z[x]: p_2T is monic with the roots
    2*lambda/k, so its coefficients are symmetric functions of them, and
    algebraic integers in Q are integers; conversely the roots of a monic
    integer polynomial are algebraic integers.

    Where the moment route certified m_A and every root of m_A resolves
    (`Graph.route_factors`), the verdict is read off the factors f of m_A,
    each of degree d_f <= 2 and with the multiplicity of its roots: the
    2*lambda/k for the roots of f are the roots of the monic (2/k)^d_f
    f(kx/2), whose coefficients are decided over Z by one divmod each.
    If one is not integral, the witness is the first lambda/k, in
    descending order, with 2*lambda/k not an algebraic integer
    (`_witness`).  Otherwise that polynomial, irreducible with integer
    coefficients and its roots in [-2, 2], is by Kronecker the minimal
    polynomial psi_d of a 2cos value of degree at most 2: _ORDER_OF_PSI
    gives its order d, and its multiplicity is that of psi_d in p_2T.  Neither p_A
    nor any psi_d is built.  Every other graph is decided on p_2T
    (`decide_periodic_by_charpoly`).
    """
    k = _require_regular_connected(g)
    factors = g.route_factors
    if factors is None:
        return decide_periodic_by_charpoly(g)
    mult: dict[int, int] = {}
    for f, m in factors:
        top = f.degree()
        scaled = [divmod(c << (top - i), k ** (top - i)) for i, c in enumerate(f.coeffs)]
        if any(rem for _, rem in scaled):
            return NotPeriodic(witness=_witness(g.spectrum, k), residual=None)
        psi = tuple(q for q, _ in scaled)
        if psi not in _ORDER_OF_PSI:
            raise AssertionError(f"the factor {f} of m_A maps onto the integer "
                                 f"polynomial {Poly(psi)}, no psi_d of degree at most 2")
        mult[_ORDER_OF_PSI[psi]] = m
    return _with_flat_eigenspaces(mult, g.n, g.edge_count)


def decide_periodic_by_charpoly(g: Graph) -> PeriodicityVerdict:
    """`decide_periodic` on p_2T, for a connected regular graph.

    The coefficient of x^i in p_2T is a_i 2^(n-i) / k^(n-i) for a_i that
    of p_A, so integrality is decided over Z, one divmod per coefficient,
    and Fractions are built only to report a non-integral p_2T.  That is
    refuted with a witness eigenvalue lambda/k (2*lambda/k not an
    algebraic integer) when the vertex spectrum resolves into quadratic
    surds, and with p_2T itself otherwise.  An integral p_2T is deflated
    by the minimal polynomials psi_d of 2cos(2*pi/d) (`Poly.deflate`, in
    Python ints), whose multiplicities map onto the cyclotomic orders of
    U (`_with_flat_eigenspaces`).
    """
    k = _require_regular_connected(g)
    n = g.n
    terms = [(a << (n - i), k ** (n - i)) for i, a in enumerate(g.charpoly.coeffs)]
    scaled = [divmod(num, den) for num, den in terms]
    if any(rem for _, rem in scaled):
        spec = g.spectrum
        witness = _witness(spec, k) if isinstance(spec, Spectrum) else None
        if witness is not None:
            return NotPeriodic(witness=witness, residual=None)
        return NotPeriodic(witness=None, residual=Poly(Fraction(num, den) for num, den in terms))
    mult: dict[int, int] = {}
    residual, d = Poly(q for q, _ in scaled), 1
    while residual.degree() > 0:
        # psi_d has degree phi(d)/2 <= n, so d <= 8n^2 (plus d = 1, 2)
        if d > 8 * n * n + 2:
            raise AssertionError(f"integral p_2T has a residual {residual} "
                                 "without 2cos roots")
        residual, mult[d] = residual.deflate(min_poly_2cos(d))
        d += 1
    return _with_flat_eigenspaces(mult, n, g.edge_count)


# ---------------------------------------------------------------------------
# structural checks


def walk_regularity_depth(g: Graph) -> int:
    """Depth that decides walk-regularity: A^r for r >= deg m_A is a
    rational combination of lower powers, so diag(A^r) is constant for
    every r once it is constant for 2 <= r < deg m_A."""
    return max(2, g.min_poly.degree() - 1)


def walk_regularity_check(g: Graph, r_max: int | None = None) -> bool:
    """True iff diag(A^r) is constant for all 2 <= r <= r_max (default
    walk_regularity_depth, which decides it for every r), read off the
    closed-walk counts of `graphs.closed_walks` and stopped at the first
    r where they differ."""
    if r_max is None:
        r_max = walk_regularity_depth(g)
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    return all((w == w[0]).all() for _, w in zip(range(2, r_max + 1), closed_walks(g)))
