"""Exact algebra kernels: dense rational polynomials, quadratic surds,
the characteristic and minimal polynomials of a graph from its
closed-walk counts on residues modulo word-size primes (the moment
route), cyclotomic machinery, and spectra: read off m_A and its traces
where the route certified m_A, else off the charpoly.  The moment route
sums the counts over the vertices in its own stream, reduced modulo a
prime past 2^62; the exact per-vertex counts are `graphs.closed_walks`.
The reference routes that `selfcheck` and the tests hold these against
(the CRT charpoly of any rational matrix, `int_matmul` and Euclid's gcd
over Q, and `min_poly_route`) live in `walklab.oracles`.

Everything in this module is exact.  No floating point enters any
computation; integrality, divisibility and sign decisions are made over
Z and Q only.  A polynomial coefficient or surd part is a Python int
where it is integral and a Fraction only where not (`_rational`, which
refuses floats), so integer polynomials compute in ints.  Matrices are
integer numpy arrays whose dtype `exact_dtype` picks from a stated
bound; a product with a graph's adjacency is a row gather on its
neighbour table.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# polynomials


def _rational(x: int | Fraction) -> int | Fraction:
    """The exact number x as a Python int when it is integral (from an
    int, a numpy integer or an integral Fraction), else as a Fraction.
    Anything else, a float included, raises TypeError."""
    if type(x) is Fraction:  # isinstance would run the slow ABC check on ints
        return x.numerator if x.denominator == 1 else x
    return operator.index(x)


class Poly:
    """Dense univariate polynomial over Q, constant term first.

    Poly([1, 0, 1]) is 1 + x^2.  Each coefficient is an int when it is
    integral and a Fraction otherwise (`_rational`), so a polynomial in
    Z[x] computes in Python ints alone.  Trailing zeros are trimmed, so
    degree() is the index of the last nonzero coefficient (-1 for the
    zero polynomial).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction]) -> None:
        cs = [_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int | Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other: Poly | int | Fraction) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other: Poly | int | Fraction) -> Poly:
        return self + (-other if isinstance(other, Poly) else Poly((-other,)))

    def __mul__(self, other: Poly | int | Fraction) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [0] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        d = other.degree()
        lead = other.coeffs[-1]
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            # a monic divisor keeps integer operands in the integers
            t = rem[i] if lead == 1 else Fraction(rem[i]) / lead
            q[i - d] = t
            rem[i] = 0
            for j in range(d):
                rem[i - d + j] -= t * other.coeffs[j]
        return Poly(q), Poly(rem)

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def deflate(self, f: Poly) -> tuple[Poly, int]:
        """(q, m) with self = f^m * q and f not dividing q, for a nonzero
        self and a monic f of degree >= 1.

        Each division by f runs in place on one list of coefficients, so a
        monic integer f keeps integer coefficients in Python ints; f is
        accepted only when the remainder is zero, and a Poly is built once,
        for the final quotient (self itself when m = 0)."""
        if not self:
            raise ValueError("the zero polynomial has no multiplicity")
        if not f.is_monic() or f.degree() < 1:
            raise ValueError(f"deflation needs a monic divisor of degree >= 1, not {f}")
        d = f.degree()
        # the nonzero lower coefficients of f, at their offsets from x^d
        terms = [(j - d, c) for j, c in enumerate(f.coeffs[:-1]) if c]
        cs, m = self.coeffs, 0
        while len(cs) > d:
            r = list(cs)
            # after step i, r[i] holds the quotient coefficient of x^(i - d)
            for i in range(len(r) - 1, d - 1, -1):
                t = r[i]
                if t:
                    for off, c in terms:
                        r[i + off] -= t * c
            if any(r[:d]):
                break
            cs, m = r[d:], m + 1
        return (Poly(cs) if m else self), m

    def divides(self, other: Poly) -> bool:
        return divmod(other, self)[1].is_zero()

    def __call__(self, x: int | Fraction) -> int | Fraction:
        """Horner evaluation at the number x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            # an int has numerator and denominator too: no Fraction arithmetic
            c = self.coeffs[i]
            num, den = c.numerator, c.denominator
            if num == 0:
                continue
            if num < 0:
                sign = " - " if parts else "-"
            else:
                sign = " + " if parts else ""
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if i == 0:
                body = mag
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                body = xpart if mag == "1" else f"{mag}*{xpart}"
            parts.append(f"{sign}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# integer helpers


def squarefree_part(d: int) -> tuple[int, int]:
    """Decompose d = s^2 * m with m square-free, by trial division.

    Returns (m, s).  Requires d >= 1.
    """
    if d < 1:
        raise ValueError("squarefree_part requires a positive integer")
    m, s = 1, 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    m *= d
    return m, s


# ---------------------------------------------------------------------------
# cyclotomic polynomials and minimal polynomials of 2cos(2pi/d)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> Poly:
    """d-th cyclotomic polynomial: x^d - 1 deflated by Phi_e for every
    proper divisor e of d, each of which must divide it exactly once."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    p = Poly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            phi = cyclotomic(e)
            p, m = p.deflate(phi)
            if m != 1:
                raise ValueError(f"x^{d} - 1 has Phi_{e} = {phi} as a factor {m} times, not once")
    return p


@lru_cache(maxsize=None)
def min_poly_2cos(d: int) -> Poly:
    """Monic integer polynomial whose roots are 2cos(2*pi*j/d), gcd(j,d)=1.

    For d >= 3 it has degree phi(d)/2 and is obtained from the d-th
    cyclotomic polynomial via the substitution pairing x <-> z + 1/z:
    the cyclotomic polynomial is palindromic, so Phi_d(z)/z^(phi/2) is an
    integer combination of the Vieta-Lucas basis v_j = z^j + z^(-j).  In
    x = z + 1/z the basis obeys v_(j+1) = x v_j - v_(j-1), a shift and a
    subtraction on integer coefficient lists; one Poly is built at the end.
    """
    if d < 1:
        raise ValueError("index must be >= 1")
    if d == 1:
        return Poly([-2, 1])
    if d == 2:
        return Poly([2, 1])
    phi = cyclotomic(d).coeffs
    half = len(phi) // 2
    out = [phi[half]] + [0] * half
    prev, cur = [2], [0, 1]  # v_0 and v_1
    for j in range(1, half + 1):
        for i, c in enumerate(cur):
            out[i] += phi[half + j] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return Poly(out)


# ---------------------------------------------------------------------------
# quadratic surds


def _sign_of_surd(a: int | Fraction, b: int | Fraction, m: int) -> int:
    """Exact sign of a + b*sqrt(m) (m > 1 square-free)."""
    if b == 0:
        return -1 if a < 0 else (1 if a > 0 else 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2 * m
    lhs, rhs = a * a, b * b * m
    if a > 0:  # b < 0
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return 1 if lhs < rhs else (-1 if lhs > rhs else 0)


class QuadraticNumber:
    """Exact real number a + b*sqrt(m) with a, b rational and m > 1
    square-free; b == 0 iff the value is rational (then m is None).  Like
    a Poly coefficient, a and b are ints when integral and Fractions
    otherwise (`_rational`).

    Arithmetic stays inside one quadratic field: combining two irrational
    values with different radicands raises ValueError.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a: int | Fraction, b: int | Fraction = 0, m: int | None = None):
        a, b = _rational(a), _rational(b)
        if b != 0:
            if m is None or m < 1:
                raise ValueError("irrational part requires a positive radicand")
            m0, s = squarefree_part(int(m))
            b = _rational(b * s)
            if m0 == 1:
                a, b, m = _rational(a + b), 0, None
            else:
                m = m0
        if b == 0:
            m = None
        self.a, self.b, self.m = a, b, m

    @classmethod
    def sqrt(cls, radicand: int, coeff: int | Fraction = 1) -> QuadraticNumber:
        """coeff * sqrt(radicand) for radicand >= 0."""
        if radicand < 0:
            raise ValueError("negative radicand")
        if radicand == 0:
            return cls(0)
        return cls(0, coeff, radicand)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> QuadraticNumber:
        return QuadraticNumber(self.a, -self.b, self.m)

    def _coerced(self, other) -> QuadraticNumber | None:
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(other)
        return None

    def __add__(self, other) -> QuadraticNumber:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if self.b != 0 and o.b != 0 and self.m != o.m:
            raise ValueError("cannot mix different radicands")
        m = self.m if self.b != 0 else o.m
        return QuadraticNumber(self.a + o.a, self.b + o.b, m)

    __radd__ = __add__

    def __neg__(self) -> QuadraticNumber:
        # negation keeps (a, b, m) normalized, so __init__ need not run again
        out = QuadraticNumber.__new__(QuadraticNumber)
        out.a, out.b, out.m = -self.a, -self.b, self.m
        return out

    def __sub__(self, other) -> QuadraticNumber:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other) -> QuadraticNumber:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if self.b != 0 and o.b != 0:
            if self.m != o.m:
                raise ValueError("cannot mix different radicands")
            return QuadraticNumber(
                self.a * o.a + self.b * o.b * self.m,
                self.a * o.b + self.b * o.a,
                self.m,
            )
        m = self.m if self.b != 0 else o.m
        return QuadraticNumber(self.a * o.a, self.a * o.b + self.b * o.a, m)

    __rmul__ = __mul__

    def __truediv__(self, other) -> QuadraticNumber:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError
        if o.b == 0:
            return QuadraticNumber(Fraction(self.a, o.a), Fraction(self.b, o.a), self.m)
        norm = o.a * o.a - o.b * o.b * o.m
        return (self * o.conjugate()) / QuadraticNumber(norm)

    def __pow__(self, e: int) -> QuadraticNumber:
        if e < 0:
            return QuadraticNumber(1) / self ** (-e)
        result = QuadraticNumber(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def sign(self) -> int:
        return _sign_of_surd(self.a, self.b, self.m or 2)

    def _cmp(self, other) -> int:
        """Exact three-way comparison, also across different radicands:
        a1 + b1 sqrt(m1) vs a2 + b2 sqrt(m2) reduces to comparing
        g = (a1 - a2) + b1 sqrt(m1) with the pure surd b2 sqrt(m2), and
        same-signed values compare by their squares inside Q(sqrt(m1))."""
        o = self._coerced(other)
        if o is None:
            raise TypeError(f"cannot compare with {other!r}")
        if self.b == 0 or o.b == 0 or self.m == o.m:
            return (self - o).sign()
        g = QuadraticNumber(self.a - o.a, self.b, self.m)
        sg = g.sign()
        sh = 1 if o.b > 0 else -1
        if sg != sh:
            return 1 if sg > sh else -1
        gsq = g * g
        diff = gsq - QuadraticNumber(o.b * o.b * o.m)
        return diff.sign() if sg > 0 else -diff.sign()

    def __eq__(self, other) -> bool:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.m == o.m

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.m))

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            surd = f"√{self.m}"
        elif self.b == -1:
            surd = f"-√{self.m}"
        else:
            surd = f"{self.b}√{self.m}"
        if self.a == 0:
            return surd
        joiner = "+" if self.b > 0 else ""
        return f"{self.a}{joiner}{surd}"

    def __repr__(self) -> str:
        return f"QuadraticNumber({self})"


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class Spectrum:
    """Multiset of exact eigenvalues, stored as distinct values with
    positive multiplicities, sorted in descending order."""

    entries: tuple[tuple[QuadraticNumber, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[QuadraticNumber, int]]) -> Spectrum:
        merged: dict[QuadraticNumber, int] = {}
        for value, mult in pairs:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if not isinstance(value, QuadraticNumber):
                value = QuadraticNumber(value)
            merged[value] = merged.get(value, 0) + mult
        ordered = sorted(merged.items(), key=lambda e: e[0], reverse=True)
        return cls(tuple(ordered))

    @classmethod
    def from_factors(cls, factors: Iterable[tuple[Poly, int]]) -> Spectrum:
        """The roots of factors x - r and x^2 + bx + c (`_roots`), each
        with the multiplicity of its factor."""
        return cls.from_pairs((root, mult) for f, mult in factors for root in _roots(f))

    def values(self) -> Iterator[QuadraticNumber]:
        for value, _ in self.entries:
            yield value

    def multiplicity(self, value: QuadraticNumber | int | Fraction) -> int:
        if not isinstance(value, QuadraticNumber):
            value = QuadraticNumber(value)
        for v, mult in self.entries:
            if v == value:
                return mult
        return 0

    def is_symmetric(self) -> bool:
        """True iff the multiset equals its negation.  The entries are
        distinct and descending, so negation reverses them: each entry
        must mirror the one at the same distance from the other end."""
        return all(m == mw and v == -w
                   for (v, m), (w, mw) in zip(self.entries, reversed(self.entries)))

    def render(self) -> str:
        """Canonical text form, e.g. "{[±4]^1, [±2√2]^2, [0]^10}" for
        symmetric spectra and a plain descending list otherwise."""
        if self.is_symmetric():
            parts = []
            for value, mult in self.entries:
                s = value.sign()
                if s > 0:
                    parts.append(f"[±{value}]^{mult}")
                elif s == 0:
                    parts.append(f"[0]^{mult}")
            return "{" + ", ".join(parts) + "}"
        return "{" + ", ".join(f"[{v}]^{m}" for v, m in self.entries) + "}"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Unresolved:
    """Partial spectrum extraction: what was resolved, plus the monic
    residual factor that resisted linear/quadratic splitting."""

    partial: tuple[tuple[QuadraticNumber, int], ...]
    residual: Poly


# Points at which a quadratic candidate f is screened before any division:
# f is monic, so f | r puts the quotient in Z[x] and f(v) | r(v) follows.
# The point 1 comes first: _factors tests f(1) | r(1) on its own
# before it evaluates f at the others.
_SCREEN_POINTS = (1, -1, 2, -2, 3, -3)


def _factors(p: Poly) -> tuple[list[tuple[Poly, int]], Poly]:
    """The factors of the monic integer, real-rooted p (the charpoly of a
    real symmetric matrix) with rational or quadratic-surd roots, each
    monic x - r (r an integer) or x^2 + bx + c with irrational roots, with
    its multiplicity, in the order found; and the monic residual left over.

    After the root 0 is stripped, the residual x^d + a_1 x^(d-1) +
    a_2 x^(d-2) + ... + a_0 has S = a_1^2 - 2a_2 as the sum of its
    squared roots (2E for a graph), so every root r has r^2 <= S.  One
    pass strips the integer roots (the only rational ones) r | a_0 with
    r^2 <= S, then the quadratic factors x^2 + bx + c with irrational
    roots α, β: c | a_0 and 4c < b^2 <= S + 2c, because b^2 - 4c =
    (α - β)^2 and b^2 - 2c = α^2 + β^2.  The residual only loses
    factors, so one pass is complete.  A residual of degree 2 has no
    rational root left, so it is irreducible: it is taken as the last
    pair, of multiplicity 1, without the search.  What is left over
    (degree >= 3) is the residual.

    The residual r is a monic integer Poly.  A factor is stripped with
    all its multiplicity by one `Poly.deflate`, which divides in place in
    Python ints, accepts the factor only while no remainder is left, and
    builds one Poly for the quotient.  An integer root is tried only where
    r(root) = 0.  A quadratic candidate f is first rejected when f(1) =
    1 + b + c is nonzero and does not divide r(1), then screened at the
    points _SCREEN_POINTS, where f | r forces f(v) | r(v) (and
    r(v) = 0 where f(v) = 0); only a candidate that passes is built and
    deflated out of r."""
    if not p.is_monic():
        raise ValueError("spectrum extraction requires a monic polynomial")
    if not p.is_integral():
        raise ValueError("spectrum extraction requires integer coefficients")
    nz = next(i for i, c in enumerate(p.coeffs) if c)
    factors = [(Poly.x(), nz)] if nz else []
    residual = Poly(p.coeffs[nz:])
    *_, a2, a1, _ = (0, 0) + residual.coeffs
    sq_sum = a1 * a1 - 2 * a2
    if sq_sum < 0:
        raise ValueError(f"the squared roots sum to {sq_sum}, so some roots are not real")

    a0 = abs(residual.coeffs[0])
    for d in range(1, math.isqrt(sq_sum) + 1):
        if a0 % d:
            continue
        for root in (d, -d):
            if residual(root) == 0:
                f = Poly((-root, 1))
                residual, mult = residual.deflate(f)
                factors.append((f, mult))

    a0 = abs(residual.coeffs[0])
    values = [residual(v) for v in _SCREEN_POINTS]
    for c_abs in range(1, sq_sum // 2 + 1):
        if residual.degree() <= 2:
            break
        if a0 % c_abs:
            continue
        for c in (c_abs, -c_abs):
            b_max = math.isqrt(sq_sum + 2 * c)
            for b in range(-b_max, b_max + 1):
                f1 = 1 + b + c  # f(1), and values[0] is r(1)
                if b * b <= 4 * c or (f1 and values[0] % f1):
                    continue
                at = [v * v + b * v + c for v in _SCREEN_POINTS]
                if not all(r % f == 0 if f else r == 0 for r, f in zip(values, at)):
                    continue
                f = Poly((c, b, 1))
                residual, mult = residual.deflate(f)
                if mult:
                    values = [residual(v) for v in _SCREEN_POINTS]
                    factors.append((f, mult))

    # no integer root is left, so a quadratic residual is irreducible
    if residual.degree() == 2 and residual.coeffs[1] ** 2 > 4 * residual.coeffs[0]:
        factors.append((residual, 1))
        residual = Poly.one()
    return factors, residual


def _roots(f: Poly) -> tuple[QuadraticNumber, ...]:
    """The roots of a factor from _factors: r for x - r, and the conjugate
    surds (-b ± sqrt(b^2 - 4c))/2 for x^2 + bx + c."""
    if f.degree() == 1:
        return (QuadraticNumber(-f.coeffs[0]),)
    c, b, _ = f.coeffs
    m, s = squarefree_part(b * b - 4 * c)
    half_b, half_s = Fraction(-b, 2), Fraction(s, 2)
    return QuadraticNumber(half_b, half_s, m), QuadraticNumber(half_b, -half_s, m)


def spectrum_of(factors: list[tuple[Poly, int]], residual: Poly) -> Spectrum | Unresolved:
    """The roots of the factors (`_roots`), each with its factor's
    multiplicity: a Spectrum when the residual is 1, else an Unresolved
    carrying the residual."""
    if residual.degree() > 0:
        return Unresolved(tuple((root, mult) for f, mult in factors for root in _roots(f)),
                          residual)
    return Spectrum.from_factors(factors)


# ---------------------------------------------------------------------------
# exact linear algebra


_INT64_SAFE = 2 ** 62


def neighbour_table(a: np.ndarray) -> np.ndarray:
    """Row i lists the columns of the ones in row i of the square 0/1
    array a in ascending order, padded to the largest row sum with n, the
    index of the zero row that adjacency_times appends."""
    n = a.shape[0]
    degrees = np.count_nonzero(a, axis=1)
    rows, cols = np.nonzero(a)
    table = np.full((n, int(degrees.max(initial=0))), n)
    table[rows, np.arange(rows.size) - (np.cumsum(degrees) - degrees)[rows]] = cols
    return table


def adjacency_times(table: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A @ p for the 0/1 matrix A of neighbour_table(A): row i is the sum
    of the rows of p at the neighbours of i, in O(n^2 * max degree)
    additions.  The gather of the first column is the output and each
    other column's is added to it in place; p gains a zero row only when
    the table is padded (n sits last in its padded rows).  Every partial
    sum is a sum of some of the terms of the entry it forms."""
    n, delta = table.shape
    if not delta:
        return np.zeros_like(p)
    if table[:, -1].max() == n:
        p = np.concatenate([p, np.zeros_like(p[:1])])
    out = p[table[:, 0]]
    for column in table.T[1:]:
        out += p[column]
    return out


def table_matrix(table: np.ndarray) -> np.ndarray:
    """The 0/1 matrix A of neighbour_table(A), in int64, by one scatter."""
    n = len(table)
    real = table < n
    a = np.zeros((n, n), dtype=np.int64)
    a[np.nonzero(real)[0], table[real]] = 1
    return a


def charpoly_mod_2(table: np.ndarray) -> int:
    """det(xI - A) mod 2 for the 0/1 matrix A of neighbour_table(A), as a
    bitmask (bit i the coefficient of x^i), with no charpoly over Z.

    Each row of A is an int bitmask, and column j its bit at[j].  The
    matrix is brought to upper Hessenberg form H over F_2 by similarities,
    column by column.  A row below the subdiagonal with a 1 in column c is
    swapped with row c + 1, and the matching column swap swaps their
    entries of `at`.  Then E, which adds row c + 1 to every lower row S
    with a 1 in column c, is applied as E A E: E is its own inverse over
    F_2, and A E adds the columns S to column c + 1, which flips the bit of
    column c + 1 in each row whose bits in S have odd parity, one pass over
    the rows.  Rows c + 1 on are 0 in the columns before c, so neither
    step undoes the zeros made there.  Then p_m, the charpoly of the
    leading m x m block, follows from p_m = (x + h_(m-1,m-1)) p_(m-1) +
    sum_(r<m-1) h_(r,m-1) h_(r+1,r) ... h_(m-1,m-2) p_r, the expansion of
    det(xI - H) along its last column, with signs gone mod 2."""
    n = len(table)
    bit = [1 << v for v in range(n)] + [0]  # the padding n sets no bit
    rows = [sum(bit[w] for w in row) for row in table.tolist()]
    at = list(range(n))
    for c in range(n - 2):
        col = bit[at[c]]
        pivot = next((i for i in range(c + 1, n) if rows[i] & col), None)
        if pivot is None:
            continue
        rows[pivot], rows[c + 1] = rows[c + 1], rows[pivot]
        at[pivot], at[c + 1] = at[c + 1], at[pivot]
        head, lower = rows[c + 1], 0
        for i in range(c + 2, n):
            if rows[i] & col:
                rows[i] ^= head
                lower |= bit[at[i]]
        if lower:
            sub = bit[at[c + 1]]
            rows = [r ^ sub if (r & lower).bit_count() & 1 else r for r in rows]
    p = [1]  # p_0 .. p_m
    for m in range(n):  # p_(m+1) from column m of H
        j = at[m]
        acc = p[m] << 1 ^ (p[m] if rows[m] >> j & 1 else 0)
        for r in range(m - 1, -1, -1):
            if not rows[r + 1] >> at[r] & 1:  # h_(r+1,r) = 0: the chain of subdiagonals ends
                break
            if rows[r] >> j & 1:
                acc ^= p[r]
        p.append(acc)
    return p[n]


def exact_dtype(bound: int) -> type:
    """The dtype for exact integer arrays whose entries, and every partial
    sum that forms them, are at most bound in absolute value: int64 below
    2^62, Python ints (object dtype) from there on."""
    return np.int64 if bound < _INT64_SAFE else object


# ---------------------------------------------------------------------------
# word-size primes and CRT


_MILLER_RABIN_EXACT_BELOW = 4_759_123_141


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 7 and 61, exact for
    p < 4 759 123 141 (Jaeschke 1993)."""
    if p < 2:
        return False
    for a in (2, 7, 61):
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _primes_below(limit: int) -> Iterator[int]:
    """Primes < limit in descending order, deterministically."""
    if limit > _MILLER_RABIN_EXACT_BELOW:
        raise AssertionError(f"prime search above the Miller-Rabin limit: {limit}")
    return (p for p in range(limit - 1, 1, -1) if _is_prime(p))


def _crt(residues: Sequence[Sequence[int]], primes: Sequence[int]) -> list[int]:
    """Entrywise CRT of residue vectors modulo distinct primes: the integers
    of least absolute value, at most M/2 for M the product of the primes."""
    modulus = math.prod(primes)
    out = [0] * len(residues[0])
    for q, res in zip(primes, residues):
        share = modulus // q
        share *= pow(share % q, -1, q)
        for i, x in enumerate(res):
            out[i] += x * share
    return [x - modulus if x > modulus // 2 else x for x in (x % modulus for x in out)]


# ---------------------------------------------------------------------------
# the moment route: charpoly and minimal polynomial from tr(A^r)


# Residues below 2^31 multiply within int64, and a row gather of them sums to
# at most delta * 2^31 < 2^62 for every degree delta below 2^31.
_ROUTE_PRIMES_BELOW = 2 ** 31


@dataclass(frozen=True)
class Moments:
    """What the moment route computed: m_A of degree s, when a recurrence
    was certified by t_n, with the exact traces t_0 .. t_(s-1); otherwise
    min_poly None and t_0 .. t_n.  The charpoly is built from them
    (`_newton`) only when it is first read."""

    traces: tuple[int, ...]
    min_poly: Poly | None

    @cached_property
    def charpoly(self) -> Poly:
        return _newton(self.traces, None if self.min_poly is None else self.min_poly.coeffs)


class _BerlekampMassey:
    """Berlekamp-Massey over GF(q), fed one term at a time."""

    def __init__(self, q: int) -> None:
        self.q = q
        self.terms: list[int] = []
        self.conn = [1]  # connection polynomial C, constant term first
        self.prev = [1]  # C before the last length change
        self.prev_disc = 1
        self.shift = 1
        self.length = 0

    def push(self, t: int) -> None:
        q = self.q
        self.terms.append(t % q)
        r = len(self.terms) - 1
        c = self.conn
        disc = sum(map(operator.mul, c, self.terms[r::-1])) % q
        if disc == 0:
            self.shift += 1
            return
        scale = disc * pow(self.prev_disc, -1, q) % q
        new = c + [0] * max(0, len(self.prev) + self.shift - len(c))
        for j, b in enumerate(self.prev):
            new[j + self.shift] = (new[j + self.shift] - scale * b) % q
        if 2 * self.length <= r:
            self.prev, self.prev_disc = c, disc
            self.length = r + 1 - self.length
            self.shift = 1
        else:
            self.shift += 1
        self.conn = new

    def candidate(self) -> list[int] | None:
        """The monic recurrence polynomial x^L C(1/x) mod q, constant term
        first, once 2L is below the number of terms."""
        if 2 * self.length >= len(self.terms):
            return None
        return (self.conn + [0] * self.length)[self.length::-1]


def _exact_trace(n: int, delta: int, r: int) -> bool:
    """Whether `_trace_stream` gives t_r, and every trace before it, as an
    exact integer: while n delta^r < 2^62, and all of t_0 .. t_n when
    delta^ceil(n/2) < 2^62 bounds every power they read."""
    return n * delta ** r < _INT64_SAFE or r <= n and delta ** ((n + 1) // 2) < _INT64_SAFE


def _limb_vdot(x: np.ndarray, y: np.ndarray, top: int) -> int:
    """<x, y> over Z for int64 arrays with entries in [0, top], top < 2^62:
    each is split into limbs of b bits, with size * 2^(2b) <= 2^63, so the
    inner product of any two limbs sums within int64."""
    b = (63 - x.size.bit_length()) // 2
    shifts = range(0, top.bit_length(), b)
    xs = [x >> s & (1 << b) - 1 for s in shifts]
    ys = xs if y is x else [y >> s & (1 << b) - 1 for s in shifts]
    return sum(int(np.vdot(xa, yb)) << (s + u)
               for xa, s in zip(xs, shifts) for yb, u in zip(ys, shifts))


def _trace_stream(table: np.ndarray, q: int) -> Iterator[int]:
    """t_0, t_1, ... as t_2i = <A^i, A^i> and t_2i+1 = <A^i, A^i+1>, from
    t_0 = n, t_1 = tr A and A by one scatter (table_matrix).  All entries
    are nonnegative, so a partial sum of A^i, or of t_r, is at most
    delta^i, or n delta^r: A^i is exact in int64 while delta^i is below
    2^62, and a residue mod q past it.  t_r is one int64 inner product
    while n delta^r is below 2^62.  Past that it is exact only when the
    whole stream to t_n is (`_exact_trace`): delta^ceil(n/2) < 2^62 bounds
    every power that t_0 .. t_n read, and each of them is summed from
    limbs (`_limb_vdot`).  Every other t_r is a residue mod q.  Exact
    traces to t_n let the route read p_A off one prime; a trace made exact
    alone, with later ones left to other primes, saves no stream and
    costs limbs.  Arrays are reduced as x - x // q * q, equal to x % q
    because numpy's // floors, and about twice as fast."""
    n, delta = table.shape

    def inner(x, y, x_q, y_q, r):  # x_q, y_q: the residues in [0, q)
        if n * delta ** r < _INT64_SAFE:
            return int(np.vdot(x, y))
        if _exact_trace(n, delta, r):
            return _limb_vdot(x, y, delta ** ((r + 1) // 2))
        xy = x_q * y_q  # below 2^62: its high and low 31 bits each sum within int64
        return (int((xy >> 31).sum()) * 2 ** 31 + int((xy & (2 ** 31 - 1)).sum())) % q

    low = low_q = table_matrix(table)  # A^i, exact or mod q, and its residues
    yield n
    yield int(low.trace())
    low_bound, r = delta, 2
    while True:
        yield inner(low, low, low_q, low_q, r)
        bound = low_bound * delta
        exact = bound < _INT64_SAFE
        if exact:
            high = adjacency_times(table, low)
        else:
            high = adjacency_times(table, low_q)
            high -= high // q * q
        high_q = high - high // q * q if exact and bound >= q else high
        yield inner(low, high, low_q, high_q, r + 1)
        low, low_q, low_bound, r = high, high_q, bound, r + 2


def _vanishes_at(table: np.ndarray, c: Sequence[int], q: int) -> tuple[bool, bool]:
    """Whether c(A) = 0 mod q, and whether c(A) = 0 over Z, for monic
    residues c, by Horner (acc <- A acc + c_j I) on c lifted to least
    absolute values.  Each entry of a step, and each partial sum of its
    product with A, is at most sum |c_j| delta^j: below 2^62 the steps are
    exact in int64, past it they run mod q (partial sums below delta q),
    reduced as x - x // q * q like the traces."""
    n, delta = table.shape
    lift = _crt([c], [q])
    exact = sum(abs(x) * delta ** j for j, x in enumerate(lift)) < _INT64_SAFE
    coeffs = lift[:-1] if exact else [x % q for x in lift[:-1]]
    # c is monic of degree >= 1 (q does not divide t_0 = n), so the first
    # step is A + c_(s-1) I, with no product
    acc = table_matrix(table)
    for j, x in enumerate(reversed(coeffs)):
        if j:
            acc = adjacency_times(table, acc)
        acc.flat[::n + 1] += x
        if not exact:
            acc -= acc // q * q
    return not (acc - acc // q * q).any(), exact and not acc.any()


def _trace_form(c: Sequence[int], traces: Sequence[int], q: int) -> int:
    """F(c) = sum_{i,j<=L} c_i c_j t_(i+j) = tr c(A)^2 over Z, for monic
    residues c of degree L, lifted to least absolute values, and exact
    t_0 .. t_2L.  It is 0 mod q for every candidate (moment_route)."""
    lift = Poly(_crt([c], [q]))
    return sum(map(operator.mul, (lift * lift).coeffs, traces))


class _TableSource:
    """The trace source of a neighbour table: the traces of its 0/1
    matrix A (`_trace_stream`), exact while n delta^r is below 2^62, all
    of t_0 .. t_n exact when delta^ceil(n/2) is (`_exact_trace`), so that
    the route reads p_A off one prime, and residues mod q past that; and
    Horner (`_vanishes_at`) to evaluate a candidate at A.  Its m_A has
    degree at most n."""

    def __init__(self, table: np.ndarray) -> None:
        self.table = table
        self.n, self.delta = table.shape
        self.degree_bound = self.n

    def exact(self, count: int) -> bool:
        """Whether the stream's t_0 .. t_(count-1) are exact integers."""
        return _exact_trace(self.n, self.delta, count - 1)

    def stream(self, q: int) -> Iterator[int]:
        return _trace_stream(self.table, q)

    def vanishes(self, c: Sequence[int], q: int) -> tuple[bool, bool]:
        return _vanishes_at(self.table, c, q)


class Traces:
    """A trace source of `trace_route`, with no matrix: each exact trace t_r
    is computed once, by rule(r) once t_0 .. t_(r-1) are in."""

    vanishes = None  # no matrix to evaluate a candidate on: every trace is exact

    def __init__(self, n: int, delta: int, bound: int, rule: Callable[[int], int]) -> None:
        self.n, self.delta, self.degree_bound, self._rule, self._t = n, delta, bound, rule, []

    def _grow(self, count: int) -> list[int]:
        while len(self._t) < count:
            self._t.append(self._rule(len(self._t)))
        return self._t

    def traces(self, count: int) -> list[int]:
        """t_0 .. t_(count-1)."""
        return self._grow(count)[:count]

    def exact(self, count: int) -> bool:
        return True

    def stream(self, q: int) -> Iterator[int]:
        """t_0, t_1, ... as exact ints, whatever the prime q."""
        return (self._grow(r + 1)[r] for r in itertools.count())


def _can_be_final(modulus: int, c: Sequence[int], delta: int) -> bool:
    """Whether the lift of the monic residues c of degree s modulo
    `modulus` can be m_A: whether modulus exceeds 2 (delta + 1)^s, the sum
    of the C(s, j) delta^(s-j) that bound the |c_j| of every monic
    polynomial of degree s whose roots lie in [-delta, delta], as those
    of m_A do."""
    return modulus > 2 * (delta + 1) ** (len(c) - 1)


def _prime_run(source, q: int, terms: int) -> tuple[list[int], list[int] | None, bool]:
    """Up to `terms` traces of a trace source (`_route`), exact or mod q,
    with Berlekamp-Massey mod q on them; stops at the first candidate c
    that passes.  A trace form of 0 (_trace_form), from exact traces,
    accepts c over Z.  On a matrix it is tried on every candidate, as it
    costs less than the Horner steps that decide every other, and a run
    that finds none returns c None.  With no matrix it is tried only
    where the lift can be final (`_can_be_final`), a rejected candidate
    only goes on to the next term, and a run that ends returns the
    generator of all its terms.  Returns the traces, c and whether c(A) =
    0 over Z."""
    traces: list[int] = []
    bm, rejected = _BerlekampMassey(q), None
    for t in itertools.islice(source.stream(q), terms):
        traces.append(t)
        bm.push(t)
        c = bm.candidate()
        if c is None or c == rejected:
            continue
        if (source.exact(2 * len(c) - 1)
                and (source.vanishes is not None or _can_be_final(q, c, source.delta))
                and _trace_form(c, traces, q) == 0):
            return traces, c, True
        if source.vanishes is not None:
            zero_mod_q, zero = source.vanishes(c, q)
            if zero_mod_q:
                return traces, c, zero
        rejected = c
    return traces, None if source.vanishes else bm.candidate(), False


def _recurrence(source, terms: int, primes: Iterator[int],
                runs: list[tuple[int, list[int]]]) -> list[int] | None:
    """m_A, constant term first, from _prime_run on one prime after another
    (each appended to `runs`); None when a run of n + 1 terms finds none."""
    n, delta, bound = source.n, source.delta, source.degree_bound
    # (b * n delta^(2b))^b, b >= deg m_A, bounds the Hankel determinant of the proof
    hankel_bits = bound * (bound.bit_length() + n.bit_length() + 2 * bound * delta.bit_length())
    best: list[tuple[int, list[int]]] = []  # the runs with the longest recurrence
    previous = None  # the lift of best before its last run
    bad_bits = 0  # a lower bound on log2 of the product of the dropped primes
    for q in primes:
        traces, c, zero = _prime_run(source, q, terms)
        runs.append((q, traces))
        if zero:
            return _crt([c], [q])
        if c is None and terms == n + 1:
            return None
        if c is None or (best and len(c) < len(best[0][1])):
            bad_bits += q.bit_length() - 1
        else:
            if best and len(c) > len(best[0][1]):
                bad_bits += sum(p.bit_length() - 1 for p, _ in best)
                best, previous = [], None
            best.append((q, c))
            lift = _crt([r for _, r in best], [p for p, _ in best])
            modulus = math.prod(p for p, _ in best)
            if source.vanishes is None:
                # exact traces: the trace form decides, on a lift that can be
                # final (the run tried the lift of one prime itself)
                if (len(best) > 1
                        and (lift == previous or _can_be_final(modulus, lift, delta))
                        and _trace_form(lift, traces, modulus) == 0):
                    return lift
                previous = lift
            elif modulus > 2 * sum(abs(x) * delta ** j for j, x in enumerate(lift)):
                return lift
        if bad_bits > hankel_bits:
            raise AssertionError("more primes failed the moment route than divide "
                                 "its Hankel determinant")
    raise AssertionError("the moment route ran out of primes")


def _integer_traces(source, count: int, primes: Iterator[int],
                    runs: list[tuple[int, list[int]]]) -> list[int]:
    """t_0 .. t_(count-1) over Z: as the runs have them where they are
    exact, else by CRT over runs of enough traces once their primes'
    product exceeds 2 n delta^(count-1)."""
    usable = [(q, t[:count]) for q, t in runs if len(t) >= count]
    if source.exact(count):
        return usable[0][1]
    bound = source.n * source.delta ** (count - 1)
    while math.prod(q for q, _ in usable) <= 2 * bound:
        q = next(primes)
        usable.append((q, list(itertools.islice(source.stream(q), count))))
    return _crt([t for _, t in usable], [q for q, _ in usable])


def _trace_numerator(traces: Sequence[int], c: Sequence[int]) -> list[int]:
    """w_e = sum_{i<=e} t_i M_(e-i) for e < s, with M_j = c_(s-j), from
    t_0 .. t_(s-1) and the monic recurrence c of degree s, constant term
    first: the coefficient of x^(s-1-e) in N = c p'/p (moment_route)."""
    m = c[::-1]
    return [sum(traces[i] * m[e - i] for i in range(e + 1)) for e in range(len(c) - 1)]


def _newton(traces: Sequence[int], c: Sequence[int] | None = None) -> Poly:
    """det(xI - A) for an integer matrix A of order n = t_0, from its traces
    t_r = tr(A^r) and the monic recurrence c of degree s they obey, constant
    term first.  With M_j = c_(s-j), w_j (`_trace_numerator`) for j < s and
    w_s = 0, the coefficient a_r of x^(n-r) satisfies (moment_route proves
    it)

        r a_r = -sum_{j=1}^{min(r,s)} (M_j (r - j - n) + w_j) a_(r-j),

    which reads t_0 .. t_(s-1) only.  With no recurrence (c None) these
    are Newton's identities r a_r = -sum_{j=1}^{r} t_j a_(r-j) on t_0 ..
    t_n.  The division by r is exact for an integer matrix."""
    n = traces[0]
    if c is not None:
        s = len(c) - 1
        m = c[::-1]
        w = _trace_numerator(traces, c) + [0]
    a = [1]
    for r in range(1, n + 1):
        if c is None:
            total = -sum(map(operator.mul, a[::-1], traces[1:r + 1]))
        else:
            total = -sum((m[j] * (r - j - n) + w[j]) * a[r - j] for j in range(1, min(r, s) + 1))
        quot, rem = divmod(total, r)
        if rem:
            raise AssertionError(f"Newton's identities left remainder {rem} at r = {r}")
        a.append(quot)
    return Poly(a[::-1])


def min_poly_factors(m: Poly, traces: Sequence[int]) -> list[tuple[Poly, int]] | None:
    """The factors of the certified m_A of degree s (`_factors`), each with
    the multiplicity in p_A of each of its roots, from the exact traces
    t_0 .. t_(s-1); None when a root of m_A is beyond quadratic surds.

    Over the distinct eigenvalues lambda, of multiplicities m_lambda,
    N = m_A p_A'/p_A = sum m_lambda m_A/(x - lambda), so N(lambda) =
    m_lambda m_A'(lambda); N has the coefficients of `_trace_numerator`
    (moment_route).  For an integer root r, m_r = N(r)/m_A'(r).  Conjugate
    surds share one multiplicity, since p_A is rational: for the roots of
    f = x^2 + bx + c, N = m_lambda m_A' modulo f, so m_lambda is the ratio
    of the two remainders.  All of it runs in Python ints; a root of m_A
    that is not simple, or a ratio that is not one positive integer, is a
    broken invariant."""
    factors, residual = _factors(m)
    if residual.degree() > 0:
        return None
    numer = Poly(_trace_numerator(traces, m.coeffs)[::-1])
    deriv = Poly([i * c for i, c in enumerate(m.coeffs)][1:])
    out = []
    for f, once in factors:
        if f.degree() == 1:
            num, den = (numer(-f.coeffs[0]),), (deriv(-f.coeffs[0]),)
        else:
            num, den = (numer % f).coeffs, (deriv % f).coeffs
        ok = once == 1 and num and len(num) == len(den) and den[-1]
        mult = num[-1] // den[-1] if ok else 0
        if mult < 1 or num != tuple(d * mult for d in den):
            raise AssertionError(f"m_A = {m} gives its factor {f} no positive "
                                 f"integer multiplicity: N = {numer}")
        out.append((f, mult))
    return out


def moment_route(table: np.ndarray) -> Moments:
    """Charpoly and minimal polynomial of the symmetric 0/1 matrix A whose
    neighbour_table is `table`, from the closed-walk counts t_r = tr(A^r)
    on residues modulo primes q < 2^31, one prime at a time.

    Each run (_prime_run) feeds the traces, exact in int64 while their
    bound is below 2^62 and mod q past it, to Berlekamp-Massey mod q.  Once
    its length L satisfies 2L < (number of traces), its candidate c_q is
    kept only if c_q(A) = 0 mod q; otherwise the traces go on.  The runs
    with the longest L give c by CRT, lifted to least absolute values, and
    c is accepted once their primes' product M exceeds 2 sum |c_j| delta^j:
    each entry of c(A) is below M/2 in absolute value and 0 mod M, so
    c(A) = 0 over Z.  A single run shows c(A) = 0 over Z outright when its
    trace form vanishes over Z, or when the Horner steps ran exact.

    The trace form F(c) = sum_{i,j<=L} c_i c_j t_(i+j) = tr c(A)^2 is the
    sum of the squared entries of the symmetric c(A): F(c) = 0 over Z,
    from the lift of c and exact t_0 .. t_2L (n delta^(2L) < 2^62), makes
    c(A) = 0.  Mod q it is 0 for every candidate.  Berlekamp-Massey offers
    c of degree L only when 2L < N, N the traces pushed, and c then
    generates them: sum_{i<=L} c_i t_(m+i) = 0 mod q for 0 <= m <= N-1-L, a
    range that holds 0 .. L.  So each inner sum of F(c) = sum_m c_m sum_i
    c_i t_(m+i) is 0 mod q, from exact traces or residues.  Every other
    candidate goes on to Horner (_vanishes_at), which evaluates c(A) mod q.

    Then c = m_A: c(A) = 0 gives m_A | c, so s = deg m_A <= L.  And m_A,
    monic with integer coefficients, generates (t_r) (t_(r+s) + ... =
    tr(A^r m_A(A)) = 0), also modulo every prime, so L <= s.  So c is
    monic of degree s and divisible by the monic m_A: they are equal.
    Over Q the linear complexity of (t_r) is s (t_r = sum m_lambda
    lambda^r with every m_lambda > 0), so the Hankel determinant
    det(t_(i+j)), i, j < s, is nonzero.  A prime whose run certifies a
    shorter recurrence, or none by t_2s, divides it: such primes are
    dropped, and there are finitely many.

    With m = m_A certified, the route keeps t_0 .. t_(s-1) beside it.
    Over the distinct eigenvalues lambda, of multiplicities m_lambda,
    p'/p = sum m_lambda/(x - lambda) = sum_r t_r x^(-r-1), for p =
    det(xI - A) = sum_r a_r x^(n-r).  Every lambda is a simple root of m,
    so N = m p'/p = sum m_lambda m/(x - lambda) is a polynomial of degree
    s - 1: the polynomial part of m(x) sum_r t_r x^(-r-1), whose other
    coefficients sum_j M_j t_(e-j), e >= s, vanish by the recurrence
    (M_j = c_(s-j)).  So N = sum_{e<s} w_e x^(s-1-e) with w_e =
    sum_{i<=e} t_i M_(e-i) (`_trace_numerator`), and N(lambda) =
    m_lambda m'(lambda) gives the multiplicities on the roots of m
    (`min_poly_factors`).  p itself comes from t_0 .. t_(s-1) in
    O(n s) steps (_newton), only where it is read: the coefficients of
    x^(n+s-1-r) in m p' = N p give sum_{j<=min(r,s)} M_j (n - r + j)
    a_(r-j) = sum_{e<=min(r,s)} w_e a_(r-e), with w_s = 0.  The terms
    j = e = 0 leave -r a_r (w_0 = t_0 = n), so

        r a_r = -sum_{j=1}^{min(r,s)} (M_j (r - j - n) + w_j) a_(r-j).

    The same comparison for m = 1, of p' = N p with the power series
    N = sum_r t_r x^(-r-1), gives Newton's identities on t_0 .. t_n.  A
    trace t_r <= n delta^r is used as an integer only once the primes'
    product exceeds 2 n delta^r.  When a run reaches t_n with no
    recurrence certified (s close to n), no m_A is returned, p comes from
    Newton's identities on t_0 .. t_n and the spectrum from the factors
    of p (`graphs.Graph.factors`); `graphs.Graph.min_poly` gives m_A by trace_route.
    """
    return _route(_TableSource(table), len(table) + 1)


def trace_route(source) -> Moments:
    """The moment route on a source of exact traces, with no matrix: m_A
    and t_0 .. t_(s-1), as moment_route returns them.

    The source is a `Traces`: degree_bound bounds s = deg m_A, and delta
    the degrees.  Each run pushes 2b + 2 traces, b = degree_bound, and with
    no Horner step the trace form alone accepts: a candidate of one prime
    when its lift has F(c) = 0, else the CRT lift of the runs' last
    generators of the longest length once its F is 0 over Z.  From 2s
    terms on, the generator of a prime that divides no Hankel determinant
    is m_A mod q, so the lift of enough such primes is m_A, whose F is 0;
    a bad prime gives a shorter generator and is dropped as on a matrix.
    Whatever lift is accepted has F(c) = 0, so it is m_A."""
    return _route(source, 2 * source.degree_bound + 2)


def _route(source, terms: int) -> Moments:
    """Moments from runs of up to `terms` traces of a trace source."""
    primes = _primes_below(_ROUTE_PRIMES_BELOW)
    runs: list[tuple[int, list[int]]] = []
    c = _recurrence(source, terms, primes, runs)
    if c is None:
        return Moments(tuple(_integer_traces(source, source.n + 1, primes, runs)), None)
    return Moments(tuple(_integer_traces(source, len(c) - 1, primes, runs)), Poly(c))
