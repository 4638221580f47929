"""Exact Grover-walk engine: the periodicity decision with exact period,
read off the adjacency charpoly, and the walk-regularity check of
`analyze`, on the per-vertex closed-walk counts of `graphs.closed_walks`
(apart from the traces of the moment route).  The walk matrices,
the U-side routes, the biadjacency block identities, the eigenvalue
gate and the Hoffman identity check are reference implementations in
`walklab.oracles`.

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


def decide_periodic(g: Graph) -> PeriodicityVerdict:
    """Decide periodicity of the Grover walk on a connected regular graph.

    The eigenvalues of 2T = 2A/k lie in [-2, 2], so by Kronecker's theorem
    the walk is periodic iff the monic p_2T(x) = (2/k)^n p_A(kx/2) has
    integer coefficients; its roots are then of the form 2cos(2*pi*j/d).
    The coefficient of x^i in p_2T is a_i 2^(n-i) / k^(n-i) for a_i that
    of p_A, so integrality is decided over Z, one divmod per coefficient,
    and Fractions are built only to report a non-integral p_2T.  That is
    refuted with a witness eigenvalue lambda/k (2*lambda/k not an
    algebraic integer) when the vertex spectrum resolves into quadratic
    surds, and with p_2T itself otherwise.  An integral p_2T is deflated
    by the minimal polynomials psi_d of 2cos(2*pi/d) (`Poly.deflate`, in
    Python ints), whose multiplicities map onto the cyclotomic orders of
    U: Phi_d takes that of psi_d for d >= 3, and Phi_1 and Phi_2 add the
    flat +1 and -1 eigenspaces of dimensions E - n + 1 and E - n + ker,
    where ker = mult(psi_2) = dim Ker(A + kI).
    """
    k = _require_regular_connected(g)
    n, edges = g.n, g.edge_count
    terms = [(a << (n - i), k ** (n - i)) for i, a in enumerate(g.charpoly.coeffs)]
    scaled = [divmod(num, den) for num, den in terms]
    if any(rem for _, rem in scaled):
        spec = g.spectrum
        if isinstance(spec, Spectrum):
            for lam in spec.values():
                if not is_quadratic_algebraic_integer(lam * Fraction(2, k)):
                    return NotPeriodic(witness=lam / k, residual=None)
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
    mult[1] = mult.get(1, 0) + edges - n + 1
    mult[2] = 2 * mult.get(2, 0) + edges - n
    orders = tuple(sorted((d, m) for d, m in mult.items() if m))
    return Periodic(period=math.lcm(*(d for d, _ in orders)),
                    cyclotomic_orders=orders)


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
