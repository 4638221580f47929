"""Exact Grover-walk engine: the periodicity decision with exact period,
read off the adjacency charpoly, the eigenvalue gate, and the
walk-regularity, Hoffman and quadrangle checks of `analyze`.  The walk
matrices, the U-side routes and the biadjacency block identities are
reference implementations in `walklab.oracles`.

Restricted to connected regular graphs: for irregular degrees the
reflection 2d*d - I has irrational entries and the exact rational
pipeline would break, so such inputs are rejected rather than
approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import (
    Poly,
    QuadraticNumber,
    Spectrum,
    adjacency_times,
    exact_dtype,
    is_quadratic_algebraic_integer,
    min_poly_2cos,
)
from .graphs import Graph, is_connected, regularity


class NotRegularError(ValueError):
    pass


class NotConnectedError(ValueError):
    pass


def _require_regular_connected(g: Graph) -> int:
    k = regularity(g)
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

    def orders_dict(self) -> dict[int, int]:
        return dict(self.cyclotomic_orders)

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
    A non-integral p_2T is refuted with a witness eigenvalue lambda/k
    (2*lambda/k not an algebraic integer) when the vertex spectrum
    resolves into quadratic surds, and with p_2T itself otherwise.  An
    integral p_2T is sieved by the minimal polynomials psi_d of
    2cos(2*pi/d), whose multiplicities map onto the cyclotomic orders of
    U: Phi_d takes that of psi_d for d >= 3, and Phi_1 and Phi_2 add the
    flat +1 and -1 eigenspaces of dimensions E - n + 1 and E - n + ker,
    where ker = mult(psi_2) = dim Ker(A + kI).
    """
    k = _require_regular_connected(g)
    n, edges = g.n, g.edge_count
    p2t = g.charpoly.scale_arg(Fraction(k, 2)) * Fraction(2 ** n, k ** n)
    if not p2t.is_integral():
        spec = g.spectrum
        if isinstance(spec, Spectrum):
            for t_eig in spec.scaled(Fraction(1, k)).values():
                if not is_quadratic_algebraic_integer(t_eig * 2):
                    return NotPeriodic(witness=t_eig, residual=None)
        return NotPeriodic(witness=None, residual=p2t)
    mult: dict[int, int] = {}
    residual, d = p2t, 1
    while residual.degree() > 0:
        # psi_d has degree phi(d)/2 <= n, so d <= 8n^2 (plus d = 1, 2)
        if d > 8 * n * n + 2:
            raise AssertionError(f"integral p_2T has a residual {residual} "
                                 "without 2cos roots")
        psi = min_poly_2cos(d)
        quot, rem = divmod(residual, psi)
        while not rem:
            residual = quot
            mult[d] = mult.get(d, 0) + 1
            quot, rem = divmod(residual, psi)
        d += 1
    mult[1] = mult.get(1, 0) + edges - n + 1
    mult[2] = 2 * mult.get(2, 0) + edges - n
    orders = tuple(sorted((d, m) for d, m in mult.items() if m))
    return Periodic(period=math.lcm(*(d for d, _ in orders)),
                    cyclotomic_orders=orders)


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
# structural checks


def walk_regularity_depth(g: Graph) -> int:
    """Depth that decides walk-regularity: A^r for r >= deg m_A is a
    rational combination of lower powers, so diag(A^r) is constant for
    every r once it is constant for 2 <= r < deg m_A."""
    return max(2, g.min_poly.degree() - 1)


def walk_regularity_check(g: Graph, r_max: int | None = None) -> bool:
    """True iff diag(A^r) is constant for all 2 <= r <= r_max (default
    walk_regularity_depth, which decides it for every r).  The entries
    of A^r and the partial sums that form them lie in [0, delta^r], delta
    the largest degree; the powers are int64 while delta^r < 2^62 and
    Python ints (object dtype) from there on."""
    if r_max is None:
        r_max = walk_regularity_depth(g)
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    table = g.neighbour_table
    delta = table.shape[1]
    power = g.adjacency
    for r in range(2, r_max + 1):
        power = adjacency_times(table, power.astype(exact_dtype(delta ** r), copy=False))
        diag = power.diagonal()
        if (diag != diag[0]).any():
            return False
    return True


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
    q = g.min_poly.exact_div(Poly([-k, 1])).coeffs
    acc = np.zeros((g.n, g.n), dtype=exact_dtype(sum(abs(c) * k ** i for i, c in enumerate(q))))
    np.fill_diagonal(acc, q[-1])
    for c in reversed(q[:-1]):
        acc = adjacency_times(g.neighbour_table, acc)
        acc.flat[::g.n + 1] += c
    entry, rem = divmod(sum(c * k ** i for i, c in enumerate(q)), g.n)
    return rem == 0 and bool((acc == entry).all())


@dataclass(frozen=True)
class QuadrangleReport:
    """Quadrangle counts read off the fourth power sum, as exact rationals."""

    q_spectral: Fraction
    qx_spectral: Fraction


def quadrangle_report(s4: int | Fraction, n: int, k: int) -> QuadrangleReport:
    """Quadrangle count from the fourth power sum s4 = tr A^4 of the
    eigenvalues: the closed 4-walks of a k-regular graph split into
    2k^2 - k degenerate walks per vertex plus two traversals of each
    quadrangle through it."""
    q_spectral = Fraction(s4 - n * (2 * k * k - k), 8)
    return QuadrangleReport(q_spectral, 4 * q_spectral / n)
