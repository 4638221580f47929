"""Exact Grover-walk engine: the periodicity decision with exact period,
read off one list of spectral factors (`factors`), of a built graph or
of an expression read off its structure (`expressions.Expression`),
and the walk-regularity check of `analyze` to the depth m_A decides
(`walk_regular_to`): a graph reads the per-vertex closed-walk counts of
`graphs.closed_walks` (apart from the traces of the moment route), an
expression its structure where that decides it.
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

from .exact import Poly, QuadraticNumber, _roots, min_poly_2cos
from .graphs import Graph, is_connected


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


def _scaled(f: Poly, k: int) -> tuple[int, ...] | None:
    """The coefficients of the monic (2/k)^d f(kx/2), d = deg f, whose
    roots are the 2*lambda/k for the roots lambda of f, by one divmod
    each; None when one is not an integer."""
    top = f.degree()
    scaled = [divmod(c << (top - i), k ** (top - i)) for i, c in enumerate(f.coeffs)]
    if any(rem for _, rem in scaled):
        return None
    return tuple(q for q, _ in scaled)


def _splits_mod_2(p: Poly) -> bool:
    """Whether p mod 2 is x^a (x + 1)^b (x^2 + x + 1)^c, divided out of
    its bitmask by long division over F_2.  These three are the monic
    irreducibles of degree at most 2 over F_2, so every product of monic
    integer linear and quadratic factors reduces to such a product."""
    m = sum(1 << i for i, c in enumerate(p.coeffs) if c & 1)
    m >>= (m & -m).bit_length() - 1
    for d in (0b11, 0b111):
        while m > 1:
            q, r = 0, m
            while r.bit_length() >= d.bit_length():
                shift = r.bit_length() - d.bit_length()
                q, r = q | 1 << shift, r ^ d << shift
            if r:
                break
            m = q
    return m == 1


def _p2t(p: Poly, k: int) -> Poly:
    """p_2T = (2/k)^n p(kx/2) for p = p_A of degree n, in Fractions."""
    n = p.degree()
    return Poly(Fraction(a << (n - i), k ** (n - i)) for i, a in enumerate(p.coeffs))


def decide_periodic(g: Graph) -> PeriodicityVerdict:
    """Decide periodicity of the Grover walk on a connected regular graph.

    The eigenvalues of 2T = 2A/k lie in [-2, 2], so by Kronecker's theorem
    the walk is periodic iff every 2*lambda/k is an algebraic integer; each
    is then 2cos(2*pi*j/d) for some order d.  The verdict is read off the
    graph's one factor list (`Graph.factors`): each factor f, x - r or
    x^2 + bx + c, and the monic residual are scaled to (2/k)^deg f(kx/2),
    whose roots are the 2*lambda/k (`_scaled`).  By Gauss's lemma p_2T =
    (2/k)^n p_A(kx/2) is in Z[x] exactly when every one of these monic
    factors is.

    If one is not integral and the residual is 1, the witness is the
    largest root lambda of the factors whose scaled form is not integral,
    as lambda/k: each factor is irreducible over Q, so its scaled form is
    the minimal polynomial of its roots 2*lambda/k, which are algebraic
    integers exactly when it is integral; the witness is thus the first
    lambda/k, in descending order, with 2*lambda/k not an algebraic
    integer.  Otherwise the certificate is p_2T itself, in Fractions.  An
    integral factor is irreducible with its roots in [-2, 2], so by
    Kronecker it is the minimal polynomial psi_d of a 2cos value of degree
    at most 2, and _ORDER_OF_PSI gives its order d.  The residual holds no
    psi_d of those nine orders (`Graph.factors` split them off), so it is
    deflated by the psi_d of the other orders only (`Poly.deflate`).  The
    multiplicity of psi_d is that of Phi_d in the U-charpoly for d >= 3;
    Phi_1 and Phi_2 add the flat +1 and -1 eigenspaces of U, of dimensions
    E - n + 1 and E - n + ker, where ker = mult(psi_2) = dim Ker(A + kI).

    Where the route certified no m_A, the list would be that of p_A, and
    a residual other than 1 is proved mod 2 first (`_splits_mod_2`): each
    factor x - r or x^2 + bx + c reduces to a product of x, x + 1 and
    x^2 + x + 1, the monic irreducibles of degree at most 2 over F_2.
    So if p_A mod 2 keeps anything else, an irreducible factor of degree
    at least 3, p_A is no product of such factors and the residual is
    not 1.  With p_2T not integral, the verdict is then p_2T, with no
    factor search.
    """
    k = _require_regular_connected(g)
    n = g.n
    if g._moments.min_poly is None and not _splits_mod_2(g.charpoly):
        p2t = _p2t(g.charpoly, k)
        if not p2t.is_integral():
            return NotPeriodic(witness=None, residual=p2t)
    factors, residual = g.factors
    psis = [(_scaled(f, k), m) for f, m in factors]
    rest = _scaled(residual, k)
    if rest is None or any(psi is None for psi, _ in psis):
        if residual.degree() == 0:
            witness = max(root for (f, _), (psi, _) in zip(factors, psis) if psi is None
                          for root in _roots(f))
            return NotPeriodic(witness=witness / k, residual=None)
        return NotPeriodic(witness=None, residual=_p2t(g.charpoly, k))
    mult: dict[int, int] = {}
    for psi, m in psis:
        if psi not in _ORDER_OF_PSI:
            raise AssertionError(f"a factor of p_A maps onto the integer polynomial "
                                 f"{Poly(psi)}, no psi_d of degree at most 2")
        mult[_ORDER_OF_PSI[psi]] = m
    residual, d = Poly(rest), 1
    while residual.degree() > 0:
        # psi_d has degree phi(d)/2 <= n, so d <= 8n^2
        if d > 8 * n * n:
            raise AssertionError(f"integral residual {residual} of p_2T without 2cos roots")
        if d not in _ORDER_OF_PSI.values():
            residual, mult[d] = residual.deflate(min_poly_2cos(d))
        d += 1
    mult[1] = mult.get(1, 0) + g.edge_count - n + 1
    mult[2] = 2 * mult.get(2, 0) + g.edge_count - n
    orders = tuple(sorted((d, m) for d, m in mult.items() if m))
    return Periodic(period=math.lcm(*(d for d, _ in orders)), cyclotomic_orders=orders)


# ---------------------------------------------------------------------------
# structural checks


def walk_regularity_depth(g: Graph) -> int:
    """Depth that decides walk-regularity: A^r for r >= deg m_A is a
    rational combination of lower powers, so diag(A^r) is constant for
    every r once it is constant for 2 <= r < deg m_A."""
    return max(2, g.min_poly.degree() - 1)


def walk_regularity_check(g: Graph, r_max: int | None = None) -> bool:
    """True iff diag(A^r) is constant for all 2 <= r <= r_max (default
    walk_regularity_depth, which decides it for every r), as g answers it
    (`Graph.walk_regular_to`, `Expression.walk_regular_to`)."""
    if r_max is None:
        r_max = walk_regularity_depth(g)
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    return g.walk_regular_to(r_max)
