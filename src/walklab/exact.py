"""Exact algebra kernels: dense rational polynomials, quadratic surds,
the characteristic and minimal polynomials of a graph from its
closed-walk counts on residues modulo word-size primes (the moment
route), the CRT characteristic polynomial of any rational matrix (the
oracle that `selfcheck` and the tests hold the route against),
cyclotomic machinery, and spectra.

Everything in this module is exact.  No floating point enters any
computation; integrality, divisibility and sign decisions are made over
Z and Q only.  A polynomial coefficient or surd part is a Python int
where it is integral and a Fraction only where not (`_rational`, which
refuses floats), so integer polynomials compute in ints.  Matrices are
plain lists of rows with int or Fraction entries (numpy integers become
Python ints on entry), or integer numpy arrays whose dtype `exact_dtype`
picks from a stated bound; a product with a graph's adjacency is a row
gather on its neighbour table.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

Matrix = Sequence[Sequence[int | Fraction]]


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

    def leading(self) -> int | Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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

    def __rsub__(self, other: int | Fraction) -> Poly:
        return Poly((other,)) - self

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

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def exact_div(self, other: Poly) -> Poly:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def divides(self, other: Poly) -> bool:
        return divmod(other, self)[1].is_zero()

    def gcd(self, other: Poly) -> Poly:
        """Monic greatest common divisor (zero when both are zero), by
        Euclid with each remainder scaled to coprime integer coefficients
        so that the rationals do not grow from step to step."""
        a, b = self, other
        while b:
            a, b = b, _primitive(a % b)
        return a * Fraction(1, a.leading()) if a else a

    def derivative(self) -> Poly:
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: int | Fraction) -> int | Fraction:
        """Horner evaluation at the number x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale_arg(self, c: int | Fraction) -> Poly:
        """Return p(c*x)."""
        out, pw = [], 1
        for a in self.coeffs:
            out.append(a * pw)
            pw *= c
        return Poly(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if c < 0:
                sign = " - " if parts else "-"
            else:
                sign = " + " if parts else ""
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                body = xpart if mag == 1 else f"{mag}*{xpart}"
            parts.append(f"{sign}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _primitive(p: Poly) -> Poly:
    """The multiple of p with coprime integer coefficients."""
    (ints,), _ = _clear_denominators([p.coeffs])
    return Poly([x // math.gcd(*ints) for x in ints])


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
    """d-th cyclotomic polynomial, by exact division of x^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    p = Poly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            p = p.exact_div(cyclotomic(e))
    return p


@lru_cache(maxsize=None)
def min_poly_2cos(d: int) -> Poly:
    """Monic integer polynomial whose roots are 2cos(2*pi*j/d), gcd(j,d)=1.

    For d >= 3 it has degree phi(d)/2 and is obtained from the d-th
    cyclotomic polynomial via the substitution pairing x <-> z + 1/z:
    the cyclotomic polynomial is palindromic, so Phi_d(z)/z^(phi/2) is an
    integer combination of the Vieta-Lucas basis z^j + z^(-j).
    """
    if d < 1:
        raise ValueError("index must be >= 1")
    if d == 1:
        return Poly([-2, 1])
    if d == 2:
        return Poly([2, 1])
    phi = cyclotomic(d)
    half = phi.degree() // 2
    # basis polynomials v_j(x) = z^j + z^-j restated in x = z + 1/z
    v: list[Poly] = [Poly([2]), Poly.x()]
    while len(v) <= half:
        v.append(Poly.x() * v[-1] - v[-2])
    out = Poly([phi.coeffs[half]])
    for j in range(1, half + 1):
        out = out + phi.coeffs[half + j] * v[j]
    return out


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

    def as_fraction(self) -> int | Fraction:
        """The rational value: an int when it is integral, else a Fraction."""
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

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

    def __rsub__(self, other) -> QuadraticNumber:
        return (-self) + other

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

    def __rtruediv__(self, other) -> QuadraticNumber:
        o = self._coerced(other)
        return o / self

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

    def __abs__(self) -> QuadraticNumber:
        return -self if self.sign() < 0 else self

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


def is_quadratic_algebraic_integer(x: QuadraticNumber) -> bool:
    """Exact membership of x in the ring of algebraic integers.

    Rational values are algebraic integers iff they are plain integers.
    For x = a + b*sqrt(m) with b != 0 the integral basis of the quadratic
    field decides: integer a, b when m = 2, 3 (mod 4); when m = 1 (mod 4)
    the basis element is (1 + sqrt(m))/2, so 2b and a - b must be integers.
    """
    if x.is_rational:
        return x.a.denominator == 1
    assert x.m is not None
    if x.m % 4 in (2, 3):
        return x.a.denominator == 1 and x.b.denominator == 1
    twob = 2 * x.b
    return twob.denominator == 1 and (x.a - x.b).denominator == 1


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

    def dimension(self) -> int:
        return sum(mult for _, mult in self.entries)

    def distinct_count(self) -> int:
        return len(self.entries)

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

    def negated(self) -> Spectrum:
        return Spectrum.from_pairs((-v, m) for v, m in self.entries)

    def union(self, other: Spectrum) -> Spectrum:
        return Spectrum.from_pairs(tuple(self.entries) + tuple(other.entries))

    def scaled(self, factor: int | Fraction) -> Spectrum:
        if factor == 0:
            raise ValueError("zero scaling collapses the spectrum")
        return Spectrum.from_pairs((v * factor, m) for v, m in self.entries)

    def power_sum(self, r: int) -> int | Fraction:
        """Exact sum of the r-th powers of all eigenvalues (a rational
        number: conjugate surd pairs cancel for spectra of rational
        matrices).  Surd contributions are tracked per radicand."""
        rational = 0
        surd: dict[int, int | Fraction] = {}
        for value, mult in self.entries:
            term = value ** r
            rational += term.a * mult
            if term.b:
                assert term.m is not None
                surd[term.m] = surd.get(term.m, 0) + term.b * mult
        if any(coeff != 0 for coeff in surd.values()):
            raise ValueError("power sum is irrational")
        return _rational(rational)

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
_SCREEN_POINTS = (1, -1, 2, -2, 3, -3)


def extract_spectrum(p: Poly) -> Spectrum | Unresolved:
    """Resolve the roots of the characteristic polynomial of a real
    symmetric matrix, a monic integer polynomial whose roots are all
    real, into exact rational and quadratic-surd form.

    After the root 0 is stripped, the residual x^d + a_1 x^(d-1) +
    a_2 x^(d-2) + ... + a_0 has S = a_1^2 - 2a_2 as the sum of its
    squared roots (2E for a graph), so every root r has r^2 <= S.  One
    pass strips the integer roots (the only rational ones) r | a_0 with
    r^2 <= S, then the quadratic factors x^2 + bx + c with irrational
    roots α, β: c | a_0 and 4c < b^2 <= S + 2c, because b^2 - 4c =
    (α - β)^2 and b^2 - 2c = α^2 + β^2.  The residual only loses
    factors, so one pass is complete.  What is left over (degree >= 3)
    is returned as an Unresolved residual.

    The residual r is a monic integer Poly, so each division by a monic
    factor runs in Python ints.  A quadratic candidate f is first screened
    at the points _SCREEN_POINTS, where f | r forces f(v) | r(v) (and
    r(v) = 0 where f(v) = 0); only a candidate that passes is built and
    divided into r, and it is accepted when no remainder is left.
    """
    if not p.is_monic():
        raise ValueError("spectrum extraction requires a monic polynomial")
    if not p.is_integral():
        raise ValueError("spectrum extraction requires integer coefficients")
    nz = next(i for i, c in enumerate(p.coeffs) if c)
    pairs = [(QuadraticNumber(0), nz)] if nz else []
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
            mult = 0
            while residual.degree() > 0 and residual(root) == 0:
                residual //= Poly((-root, 1))
                mult += 1
            if mult:
                pairs.append((QuadraticNumber(root), mult))

    a0 = abs(residual.coeffs[0])
    values = [residual(v) for v in _SCREEN_POINTS]
    for c_abs in range(1, sq_sum // 2 + 1):
        if residual.degree() < 2:
            break
        if a0 % c_abs:
            continue
        for c in (c_abs, -c_abs):
            b_max = math.isqrt(sq_sum + 2 * c)
            for b in range(-b_max, b_max + 1):
                if b * b <= 4 * c:
                    continue
                at = [v * v + b * v + c for v in _SCREEN_POINTS]
                mult = 0
                while all(r % f == 0 if f else r == 0 for r, f in zip(values, at)):
                    quot, rem = divmod(residual, Poly((c, b, 1)))
                    if rem:
                        break
                    residual = quot
                    values = [r // f for r, f in zip(values, at)]
                    mult += 1
                if mult:
                    m, s = squarefree_part(b * b - 4 * c)
                    half_b, half_s = Fraction(-b, 2), Fraction(s, 2)
                    pairs.append((QuadraticNumber(half_b, half_s, m), mult))
                    pairs.append((QuadraticNumber(half_b, -half_s, m), mult))

    if residual.degree() > 0:
        return Unresolved(tuple(pairs), residual)
    return Spectrum.from_pairs(pairs)


# ---------------------------------------------------------------------------
# exact linear algebra


_INT64_SAFE = 2 ** 62


def _abs_max(x: np.ndarray) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact product of an r x p and a p x c integer matrix (p = len(b),
    c = len(b[0]), or 0 when b is empty).  Both operands are converted to
    int64 once; the native product runs when p * max|a| * max|b| < 2^62
    bounds every partial sum, and exact Python-int (object dtype)
    arithmetic runs otherwise, also when an entry does not fit in int64."""
    shape_a, shape_b = (len(a), len(b)), (len(b), len(b[0]) if len(b) else 0)
    try:
        x = np.array(a, dtype=np.int64).reshape(shape_a)
        y = np.array(b, dtype=np.int64).reshape(shape_b)
    except OverflowError:
        pass
    else:
        if _abs_max(x) * _abs_max(y) * len(b) < _INT64_SAFE:
            return (x @ y).tolist()
    x = np.array(a, dtype=object).reshape(shape_a)
    y = np.array(b, dtype=object).reshape(shape_b)
    return (x @ y).tolist()


def neighbour_table(a: np.ndarray) -> np.ndarray:
    """Row i lists the columns of the ones in row i of the square 0/1
    array a, padded to the largest row sum with n, the index of the zero
    row that adjacency_times appends."""
    n = a.shape[0]
    degrees = a.sum(axis=1)
    rows, cols = np.nonzero(a)
    table = np.full((n, int(degrees.max(initial=0))), n)
    table[rows, np.arange(rows.size) - (np.cumsum(degrees) - degrees)[rows]] = cols
    return table


def adjacency_times(table: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A @ p for the 0/1 matrix A of neighbour_table(A): row i is the sum
    of the rows of p at the neighbours of i, in O(n^2 * max degree)
    additions.  Every partial sum is a sum of some of the terms of the
    entry it forms."""
    rows = np.concatenate([p, np.zeros_like(p[:1])])
    out = np.zeros_like(p)
    for column in table.T:
        out += rows[column]
    return out


def exact_dtype(bound: int) -> type:
    """The dtype for exact integer arrays whose entries, and every partial
    sum that forms them, are at most bound in absolute value: int64 below
    2^62, Python ints (object dtype) from there on."""
    return np.int64 if bound < _INT64_SAFE else object


def _clear_denominators(mat: Matrix) -> tuple[list[list[int]], int]:
    """Return (c * mat as integer matrix, c) with c the global lcm of
    entry denominators."""
    c = 1
    for row in mat:
        for x in row:
            if isinstance(x, Fraction):
                c = math.lcm(c, x.denominator)
    out = [[int(_rational(x) * c) for x in row] for row in mat]
    return out, c


# ---------------------------------------------------------------------------
# characteristic polynomials


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


def _charpoly_mod(mat: np.ndarray, p: int) -> np.ndarray:
    """Charpoly coefficients mod p, via Hessenberg reduction mod p with
    vectorized row/column updates."""
    n = mat.shape[0]
    h = np.mod(mat, p).astype(np.int64)
    for j in range(n - 2):
        col = h[j + 1:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[piv, j + 1], :] = h[[j + 1, piv], :]
            h[:, [piv, j + 1]] = h[:, [j + 1, piv]]
        inv = pow(int(h[j + 1, j]), p - 2, p)
        t = (h[j + 2:, j] * inv) % p
        h[j + 2:, j:] = (h[j + 2:, j:] - t[:, None] * h[j + 1, j:][None, :]) % p
        h[:, j + 1] = (h[:, j + 1] + h[:, j + 2:] @ t) % p
    polys: list[np.ndarray] = [np.array([1], dtype=np.int64)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = np.zeros(m + 1, dtype=np.int64)
        cur[1:m + 1] = prev
        cur[:m] = (cur[:m] - int(h[m - 1, m - 1]) * prev) % p
        prod = 1
        for idx in range(m - 2, -1, -1):
            prod = (prod * int(h[idx + 1, idx])) % p
            if prod == 0:
                break
            coeff = (int(h[idx][m - 1]) * prod) % p
            if coeff:
                cur[:idx + 1] = (cur[:idx + 1] - coeff * polys[idx]) % p
        polys.append(np.mod(cur, p))
    return polys[n]


def _charpoly_coeff_bound(m: Sequence[Sequence[int]] | np.ndarray) -> int:
    """An integer above |c_(n-i)| for every coefficient of det(xI - m).

    c_(n-i) is, up to sign, the sum of the C(n,i) principal i x i minors.
    Hadamard bounds each by the product of its columns' norms, and those
    by the norms r_j of the full columns, so |c_(n-i)| <= e_i(r_1..r_n).
    Maclaurin's inequality and the power-mean inequality give
    e_i(r) <= C(n,i) (sum r_j / n)^i <= C(n,i) (F/n)^(i/2) with
    F = sum of the squared entries.  This holds for every square matrix,
    symmetric or not; isqrt(C(n,i)^2 F^i // n^i) + 1 exceeds that bound.
    """
    n = len(m)
    fro = int((np.asarray(m, dtype=object) ** 2).sum())
    return max(math.isqrt(math.comb(n, i) ** 2 * fro ** i // n ** i) + 1
               for i in range(n + 1))


def _charpoly_modular_int(m: np.ndarray) -> Poly:
    """Exact charpoly of a square integer array (int64, or object dtype
    for larger entries) by CRT over word-size primes, enough of them that
    their product exceeds twice _charpoly_coeff_bound(m)."""
    n = len(m)
    coeff_bound = _charpoly_coeff_bound(m)
    # primes small enough that dot products of residues fit in int64
    pmax = math.isqrt(_INT64_SAFE // max(n, 1))
    primes: list[int] = []
    modulus = 1
    for p in _primes_below(pmax):
        primes.append(p)
        modulus *= p
        if modulus > 2 * coeff_bound + 1:
            break
    return Poly(_crt([_charpoly_mod(m, p).tolist() for p in primes], primes))


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


def charpoly(mat: Matrix | np.ndarray) -> Poly:
    """Exact monic characteristic polynomial det(xI - mat), by CRT over
    word-size primes on the denominator-cleared integer matrix; an int64
    array is used as it is.  Integer input yields integer coefficients.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("charpoly requires a square matrix")
    if isinstance(mat, np.ndarray) and mat.dtype == np.int64:
        return _charpoly_modular_int(mat)
    ints, c = _clear_denominators(mat)
    p = _charpoly_modular_int(np.array(ints, dtype=object).reshape(n, n))
    if c == 1:
        return p
    # det(xI - M/c) = c^-n * det(cx I - M)
    return p.scale_arg(c) * Fraction(1, c ** n)


# ---------------------------------------------------------------------------
# the moment route: charpoly and minimal polynomial from tr(A^r)


# Residues below 2^31 multiply within int64, and a row gather of them sums to
# at most delta * 2^31 < 2^62 for every degree delta below 2^31.
_ROUTE_PRIMES_BELOW = 2 ** 31


@dataclass(frozen=True)
class Moments:
    """What the moment route computed: the adjacency charpoly, and m_A when
    a recurrence was certified by t_n (None otherwise)."""

    charpoly: Poly
    min_poly: Poly | None


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


def _trace_stream(table: np.ndarray, q: int) -> Iterator[int]:
    """t_0, t_1, ... as t_2i = <A^i, A^i> and t_2i+1 = <A^i, A^i+1>.  All
    entries are nonnegative, so a partial sum of A^i, or of t_r, is at most
    delta^i, or n delta^r: each is exact in int64 while that bound is below
    2^62, and a residue mod q past it."""
    n, delta = table.shape

    def inner(x, y, x_q, y_q, bound):  # x_q, y_q: the residues in [0, q)
        if bound < _INT64_SAFE:
            return int(np.vdot(x, y))
        xy = x_q * y_q  # below 2^62: its high and low 31 bits each sum within int64
        return (int((xy >> 31).sum()) * 2 ** 31 + int((xy & (2 ** 31 - 1)).sum())) % q

    low = low_q = np.eye(n, dtype=np.int64)  # A^i, exact or mod q, and its residues
    low_bound = 1
    while True:
        yield inner(low, low, low_q, low_q, n * low_bound ** 2)
        bound = low_bound * delta
        exact = bound < _INT64_SAFE
        high = adjacency_times(table, low) if exact else adjacency_times(table, low_q) % q
        high_q = high % q if exact and bound >= q else high
        yield inner(low, high, low_q, high_q, n * low_bound * bound)
        low, low_q, low_bound = high, high_q, bound


def _vanishes_at(table: np.ndarray, c: Sequence[int], q: int) -> tuple[bool, bool]:
    """Whether c(A) = 0 mod q, and whether c(A) = 0 over Z, for monic
    residues c, by Horner (acc <- A acc + c_j I) on c lifted to least
    absolute values.  Each entry of a step, and each partial sum of its
    product with A, is at most sum |c_j| delta^j: below 2^62 the steps are
    exact in int64, past it they run mod q (partial sums below delta q)."""
    n, delta = table.shape
    lift = _crt([c], [q])
    exact = sum(abs(x) * delta ** j for j, x in enumerate(lift)) < _INT64_SAFE
    acc = np.eye(n, dtype=np.int64)  # c is monic
    for x in reversed(lift[:-1] if exact else [x % q for x in lift[:-1]]):
        acc = adjacency_times(table, acc)
        acc.flat[::n + 1] += x
        if not exact:
            acc %= q
    return not (acc % q).any(), exact and not acc.any()


def _prime_run(table: np.ndarray, q: int,
               terms: int) -> tuple[list[int], list[int] | None, bool]:
    """Up to `terms` traces, exact or mod q, with Berlekamp-Massey mod q on
    them; stops at the first candidate c with c(A) = 0 mod q.  Returns the
    traces, c (None if no candidate passed) and whether c(A) = 0 over Z."""
    traces: list[int] = []
    bm, rejected = _BerlekampMassey(q), None
    for t in itertools.islice(_trace_stream(table, q), terms):
        traces.append(t)
        bm.push(t)
        c = bm.candidate()
        if c is not None and c != rejected:
            zero_mod_q, zero = _vanishes_at(table, c, q)
            if zero_mod_q:
                return traces, c, zero
            rejected = c
    return traces, None, False


def _recurrence(table: np.ndarray, terms: int, primes: Iterator[int],
                runs: list[tuple[int, list[int]]]) -> list[int] | None:
    """m_A, constant term first, from _prime_run on one prime after another
    (each appended to `runs`); None when a run of n + 1 terms finds none."""
    n, delta = table.shape
    # (n * n delta^(2n))^n bounds the Hankel determinant of the proof
    hankel_bits = n * (2 * n.bit_length() + 2 * n * delta.bit_length())
    best: list[tuple[int, list[int]]] = []  # the runs with the longest recurrence
    bad_bits = 0  # a lower bound on log2 of the product of the dropped primes
    for q in primes:
        traces, c, zero = _prime_run(table, q, terms)
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
                best = []
            best.append((q, c))
            lift = _crt([r for _, r in best], [p for p, _ in best])
            height = sum(abs(x) * delta ** j for j, x in enumerate(lift))
            if math.prod(p for p, _ in best) > 2 * height:
                return lift
        if bad_bits > hankel_bits:
            raise AssertionError("more primes failed the moment route than divide "
                                 "its Hankel determinant")
    raise AssertionError("the moment route ran out of primes")


def _integer_traces(table: np.ndarray, count: int, primes: Iterator[int],
                    runs: list[tuple[int, list[int]]]) -> list[int]:
    """t_0 .. t_(count-1) over Z: exact below 2^62, else by CRT over runs
    of enough traces once their primes' product exceeds 2 n delta^(count-1)."""
    n, delta = table.shape
    bound = n * delta ** (count - 1)
    usable = [(q, t[:count]) for q, t in runs if len(t) >= count]
    if bound < _INT64_SAFE:
        return usable[0][1]
    while math.prod(q for q, _ in usable) <= 2 * bound:
        q = next(primes)
        usable.append((q, list(itertools.islice(_trace_stream(table, q), count))))
    return _crt([t for _, t in usable], [q for q, _ in usable])


def _newton(traces: Sequence[int]) -> Poly:
    """det(xI - A) from t_r = tr(A^r), r = 0..n, by Newton's identities
    r a_r = -sum_{i=1}^{r} a_(r-i) t_i over Z for the coefficient a_r of
    x^(n-r).  The division by r is exact for an integer matrix."""
    n = len(traces) - 1
    a = [1]
    for r in range(1, n + 1):
        total = -sum(a[r - i] * traces[i] for i in range(1, r + 1) if traces[i])
        quot, rem = divmod(total, r)
        if rem:
            raise AssertionError(f"Newton's identities left remainder {rem} at r = {r}")
        a.append(quot)
    return Poly(a[::-1])


def power_sum_of_roots(p: Poly, r: int) -> int:
    """The r-th power sum of the roots of the monic integer p by Newton's
    identities p_k = -k a_k - sum_{i<k} a_i p_(k-i), a_i of x^(deg p - i)."""
    a = list(reversed(p.coeffs)) + [0] * r
    sums = [0]
    for k in range(1, r + 1):
        sums.append(-k * a[k] - sum(a[i] * sums[k - i] for i in range(1, k)))
    return sums[r]


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
    c(A) = 0 over Z (seen outright when the Horner steps ran exact).

    Then c = m_A: c(A) = 0 gives m_A | c, so s = deg m_A <= L.  And m_A,
    monic with integer coefficients, generates (t_r) (t_(r+s) + ... =
    tr(A^r m_A(A)) = 0), also modulo every prime, so L <= s.  So c is
    monic of degree s and divisible by the monic m_A: they are equal.
    Over Q the linear complexity of (t_r) is s (t_r = sum m_lambda
    lambda^r with every m_lambda > 0), so the Hankel determinant
    det(t_(i+j)), i, j < s, is nonzero.  A prime whose run certifies a
    shorter recurrence, or none by t_2s, divides it: such primes are
    dropped, and there are finitely many.

    The recurrence, through tr(A^r c(A)) = 0, extends t_0 .. t_(s-1) to
    t_n, and Newton's identities give det(xI - A).  A trace t_r <= n
    delta^r is used as an integer only once the primes' product exceeds
    2 n delta^r.  When a run reaches t_n with no recurrence certified (s
    close to n), Newton's identities run on t_0 .. t_n and no m_A is
    returned; min_poly_route goes on to t_(2n+1).
    """
    n = len(table)
    primes = _primes_below(_ROUTE_PRIMES_BELOW)
    runs: list[tuple[int, list[int]]] = []
    c = _recurrence(table, n + 1, primes, runs)
    if c is None:
        return Moments(_newton(_integer_traces(table, n + 1, primes, runs)), None)
    s = len(c) - 1
    traces = _integer_traces(table, s, primes, runs)
    while len(traces) <= n:
        m = len(traces) - s
        traces.append(-sum(cj * traces[m + j] for j, cj in enumerate(c[:-1])))
    return Moments(_newton(traces), Poly(c))


def min_poly_route(table: np.ndarray) -> Poly:
    """m_A by the moment route with runs of up to t_(2n+1): every prime
    whose traces have linear complexity s = deg m_A certifies m_A mod q by
    t_2s, so the route always ends with a certified recurrence."""
    return Poly(_recurrence(table, 2 * len(table) + 2, _primes_below(_ROUTE_PRIMES_BELOW), []))
