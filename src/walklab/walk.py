"""Exact Grover-walk engine: the periodicity decision with exact period,
read off one list of spectral factors (`factors`), of a built graph or
of an expression read off its structure (`expressions.Expression`), or
refuted with no factor list, from p_A mod 2 and the first coefficient
of p_2T that is not an integer; and the walk-regularity check of
`analyze` to the depth m_A decides (`walk_regular_to`): a graph reads
the per-vertex closed-walk counts of `graphs.closed_walks` (apart from
the traces of the moment route), an expression its structure where
that decides it.
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
    """A refutation: the witness lambda/k, or else the coefficient of p_2T
    that is not an integer (`_coefficient`), as the exponent of its x and
    its value."""

    witness: QuadraticNumber | None
    coefficient: tuple[int, Fraction] | None

    def certificate(self) -> tuple[str, str]:
        """The certificate's name and text, as `render` and `period
        --format json` print them."""
        if self.witness is not None:
            return "witness", str(self.witness)
        exponent, value = self.coefficient
        return "coefficient", f"x^{exponent}:{value}"

    def render(self) -> str:
        return "NOT PERIODIC {}={}".format(*self.certificate())


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


def _splits_mod_2(m: int) -> bool:
    """Whether the polynomial over F_2 of the bitmask m (bit i the
    coefficient of x^i) is x^a (x + 1)^b (x^2 + x + 1)^c, divided out by
    long division.  These three are the monic irreducibles of degree at
    most 2 over F_2, so every product of monic integer linear and
    quadratic factors reduces to such a product."""
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


def _coefficient(g: Graph, k: int) -> tuple[int, Fraction] | None:
    """The least j whose coefficient (2/k)^j a_j of x^(n-j) in p_2T =
    (2/k)^n p_A(kx/2) is not an integer, a_j that of x^(n-j) in p_A, as
    (n - j, its value); None when p_2T is integral.  a_1 = -tr A = 0 and
    a_2 = -nk/2, minus the edge count, gives the value -2n/k: so when k
    does not divide 2n, j = 2, read off n and k alone."""
    n = g.n
    if 2 * n % k:
        return n - 2, Fraction(-2 * n, k)
    for j, a in enumerate(reversed(g.charpoly.coeffs)):
        if (a << j) % k ** j:
            return n - j, Fraction(a << j, k ** j)
    return None


def decide_periodic(g: Graph) -> PeriodicityVerdict:
    """Decide periodicity of the Grover walk on a connected regular graph.

    The eigenvalues of 2T = 2A/k lie in [-2, 2], so by Kronecker's theorem
    the walk is periodic iff every 2*lambda/k is an algebraic integer; each
    is then 2cos(2*pi*j/d) for some order d.  By Gauss's lemma that holds
    exactly when p_2T = (2/k)^n p_A(kx/2), monic with these roots, is in
    Z[x], and then every monic factor of it is too.  A refutation names
    the witness lambda/k where the spectrum resolves, and otherwise the
    first coefficient of p_2T that is not an integer (`_coefficient`),
    whichever path found it.

    First, where g has p_A mod 2 (`charpoly_mod_2`, read off a graph's
    table with no p_A), the spectrum is proved not to resolve when p_A
    mod 2 keeps an irreducible factor of degree at least 3
    (`_splits_mod_2`): each factor x - r or x^2 + bx + c reduces to a
    product of x, x + 1 and x^2 + x + 1, the monic irreducibles of degree
    at most 2 over F_2.  Then no witness can be named, and a coefficient
    that is not an integer refutes at once: when k does not divide 2n it
    is that of x^(n-2), known from n and k, with no trace read.  Where
    p_2T is integral, the factor list decides.

    Otherwise the verdict is read off the graph's one factor list
    (`Graph.factors`): each factor f, x - r or x^2 + bx + c, and the monic
    residual are scaled to (2/k)^deg f(kx/2), whose roots are the
    2*lambda/k (`_scaled`).  If one is not integral and the residual is 1,
    the witness is the largest root lambda of the factors whose scaled
    form is not integral, as lambda/k: each factor is irreducible over Q,
    so its scaled form is the minimal polynomial of its roots 2*lambda/k,
    which are algebraic integers exactly when it is integral; the witness
    is thus the first lambda/k, in descending order, with 2*lambda/k not
    an algebraic integer.  With a residual, the refutation is the
    coefficient.  An integral factor is irreducible with its roots in
    [-2, 2], so by Kronecker it is the minimal polynomial psi_d of a 2cos
    value of degree at most 2, and _ORDER_OF_PSI gives its order d.  The
    residual holds no psi_d of those nine orders (`Graph.factors` split
    them off), so it is deflated by the psi_d of the other orders only
    (`Poly.deflate`).  The multiplicity of psi_d is that of Phi_d in the
    U-charpoly for d >= 3; Phi_1 and Phi_2 add the flat +1 and -1
    eigenspaces of U, of dimensions E - n + 1 and E - n + ker, where ker =
    mult(psi_2) = dim Ker(A + kI).
    """
    k = _require_regular_connected(g)
    n = g.n
    mod_2 = g.charpoly_mod_2
    if mod_2 is not None and not _splits_mod_2(mod_2):
        coefficient = _coefficient(g, k)
        if coefficient is not None:
            return NotPeriodic(witness=None, coefficient=coefficient)
    factors, residual = g.factors
    psis = [(_scaled(f, k), m) for f, m in factors]
    rest = _scaled(residual, k)
    if rest is None or any(psi is None for psi, _ in psis):
        if residual.degree() == 0:
            witness = max(root for (f, _), (psi, _) in zip(factors, psis) if psi is None
                          for root in _roots(f))
            return NotPeriodic(witness=witness / k, coefficient=None)
        return NotPeriodic(witness=None, coefficient=_coefficient(g, k))
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
