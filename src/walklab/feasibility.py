"""Feasible spectra of bipartite regular periodic graphs with five
distinct eigenvalues, and the four-eigenvalue classification.

A candidate (k, n) passes when the eigenvalue multiplicities come out as
positive integers, n is even (equal partite sets), and the closed-walk
counts are integers for every power; the quadrangle counts then either
confirm the row or eliminate it.  The count of closed 2r-walks,
kθ^(2r-2) + 2k²((k²)^(r-1) - (θ²)^(r-1))/n, is k for r = 1 and, since
k² - θ² divides (k²)^(r-1) - (θ²)^(r-1), integral for every r exactly
when n | 2k²(k² - θ²) (r = 2 gives the converse).  With k = 2h and
θ² = ch², the multiplicity a = (n - 4h)/(ch) makes n = hm for
m = 4 + ca, so that number is 8h⁴(4 - c) and the candidates are
n = hm for the divisors m of 8h³(4 - c) up to the window's top
4h²(4 - c); every one of them has integral closed-walk counts by
construction.  A row is a named tuple of ints, (θ-class, k, n, a, b,
8q), and equals the plain tuple of its fields.  Rows eliminated by the
quadrangle checks are kept with their elimination reason so the
generated tables mirror the reference ones.
A known realization is a builder expression (`expressions.parse_expr`, as
`--expr`); the tables certify its spectrum (`realizes`) from its
closed-walk traces in closed form (`expressions.read_expr`), so they build
no graph.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring
from typing import NamedTuple, Sequence

from .exact import QuadraticNumber, Spectrum
from .expressions import read_expr


def _half_degree(k: int) -> int:
    if k % 2:
        raise ValueError("degree must be even")
    return k // 2


class ThetaClass(Enum):
    """The three admissible second-largest eigenvalues for even degree k:
    θ = (k/2)√c with c = 1, 2, 3.  θ is an algebraic integer only for
    even k, where θ² = c(k/2)² is an integer.  Members are singletons
    that compare by identity, so they hash by identity too, in C rather
    than by `Enum.__hash__`."""

    HALF = "half"
    SQRT2 = "sqrt2"
    SQRT3 = "sqrt3"

    __hash__ = object.__hash__

    def __init__(self, label: str) -> None:
        self.label = label  # the value, read without the Enum descriptor
        self.c = ("half", "sqrt2", "sqrt3").index(label) + 1  # theta^2 = c (k/2)^2

    def theta_sq(self, k: int) -> int:
        return self.c * _half_degree(k) ** 2

    def theta(self, k: int) -> QuadraticNumber:
        return QuadraticNumber.sqrt(self.c, _half_degree(k))

    def __str__(self) -> str:
        return self.label


class FeasibleRow(NamedTuple):
    """One candidate spectrum {[±k]^1, [±θ]^a, [0]^b} that passes the
    multiplicity, window, parity and closed-walk tests, with 8q for its
    exact quadrangle count q; `elimination` names the quadrangle test it
    fails."""

    theta_class: ThetaClass
    k: int
    n: int
    a: int
    b: int
    q8: int

    @property
    def q(self) -> Fraction:
        return Fraction(self.q8, 8)

    @property
    def q_x(self) -> Fraction:
        """The quadrangles through each vertex, 4q/n."""
        return Fraction(self.q8, 2 * self.n)

    @property
    def feasible(self) -> bool:
        return self.elimination() is None

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "eliminated"

    def elimination(self) -> str | None:
        """Category of the quadrangle-based elimination, if any; q_x has
        the sign of q."""
        if self.q8 % 8:
            return "q_nonintegral"
        if self.q8 < 0:
            return "q_negative"
        if self.q8 % (2 * self.n):
            return "qx_nonintegral"
        return None

    def spectrum(self) -> Spectrum:
        """{[±k]^1, [±θ]^a, [0]^b}, built in descending order: k > θ > 0
        in every θ-class and a, b >= 1 for every row."""
        k, theta = QuadraticNumber(self.k), self.theta_class.theta(self.k)
        return Spectrum(((k, 1), (theta, self.a), (QuadraticNumber(0), self.b),
                         (-theta, self.a), (-k, 1)))


def _divisors(h: int, c: int) -> list[int]:
    """The divisors m <= 4h²(4 - c) of 8h³(4 - c), ascending, grown prime
    by prime with every partial product past 4h²(4 - c) dropped.  The
    primes are those of h, found by trial division up to √h, and 2 and 3."""
    primes = {2, 3}
    rest, p = h, 2
    while p * p <= rest:
        while rest % p == 0:
            primes.add(p)
            rest //= p
        p += 1
    if rest > 1:
        primes.add(rest)
    top, cap, divisors = 8 * h ** 3 * (4 - c), 4 * h * h * (4 - c), [1]
    for p in primes:
        layer = divisors
        while top % p == 0:
            top //= p
            layer = [d * p for d in layer if d * p <= cap]
            divisors = divisors + layer
    return sorted(divisors)


def enumerate_rows(theta_class: ThetaClass, k: int) -> list[FeasibleRow]:
    """All candidate rows for one θ-class and even degree k = 2h, read
    off their parameter m = 4 + ca, since a = (n - 4h)/(ch) makes n = hm.
    The closed-walk condition n | 8h⁴(4 - c) is m | 8h³(4 - c), and the
    window's top n = 4h³(4 - c) is m = 4h²(4 - c), so m runs over
    `_divisors(h, c)`.  A divisor gives a row when c | m - 4 with a >= 1
    (the window's lower end), n is even and b = n - 2 - 2a >= 1;
    quadrangle failures are kept, annotated.  The closed 4-walks at a
    vertex are 2k² - k degenerate ones plus two traversals of each
    quadrangle through it, so the fourth power sum 2k⁴ + 2aθ⁴ is
    8q + n(2k² - k), and each vertex lies on q_x = 4q/n quadrangles.
    Rows are made by `tuple.__new__`, as `FeasibleRow._make` does."""
    if k < 2 or k % 2:
        raise ValueError("degree must be even and at least 2")
    h, c = k // 2, theta_class.c
    walks, quartic, degenerate = 2 * k ** 4, 2 * (c * h * h) ** 2, 2 * k * k - k
    new, rows = tuple.__new__, []
    for m in _divisors(h, c):
        a, rem = divmod(m - 4, c)
        n = h * m
        b = n - 2 - 2 * a
        if rem or a < 1 or n % 2 or b < 1:
            continue
        rows.append(new(FeasibleRow, (theta_class, k, n, a, b,
                                      walks + a * quartic - n * degenerate)))
    return rows


# ---------------------------------------------------------------------------
# known realizations and reference annotations


class ReferenceRow(NamedTuple):
    """Static annotation carried over from the reference tables: the
    existence column verbatim, the stated elimination category, and for
    a known realization its registry graph as a builder expression
    (`expressions.parse_expr`)."""

    existence: str
    elimination: str | None = None
    note: str = ""
    expr: str | None = None


_QX = "qx_nonintegral"
_QN = "q_nonintegral"
_QNEG = "q_negative"

REFERENCE_TABLE: dict[tuple[ThetaClass, int, int], ReferenceRow] = {
    # theta = k/2
    (ThetaClass.HALF, 4, 12): ReferenceRow("C6⊗J2", expr="tensorj(cycle(6),2)"),
    (ThetaClass.HALF, 4, 16): ReferenceRow("H(4,2)", expr="hamming(4,2)"),
    (ThetaClass.HALF, 4, 24): ReferenceRow("L(Q3)⊗K2", expr="bdouble(line(hypercube(3)))"),
    (ThetaClass.HALF, 4, 32): ReferenceRow("IG(AG(2,4)\\pc)", None, "q=0"),
    (ThetaClass.HALF, 4, 48): ReferenceRow("-", None, "[S]"),
    (ThetaClass.HALF, 4, 64): ReferenceRow("-", None, "[S]"),
    (ThetaClass.HALF, 4, 96): ReferenceRow("-", None, "[S]"),
    (ThetaClass.HALF, 6, 18): ReferenceRow("C6⊗J3", expr="tensorj(cycle(6),3)"),
    (ThetaClass.HALF, 6, 24): ReferenceRow("-", _QX),
    (ThetaClass.HALF, 6, 36): ReferenceRow("?"),
    (ThetaClass.HALF, 6, 54): ReferenceRow("H(3,3)⊗K2", expr="bdouble(hamming(3,3))"),
    (ThetaClass.HALF, 6, 72): ReferenceRow("-", _QX),
    (ThetaClass.HALF, 6, 108): ReferenceRow("?"),
    (ThetaClass.HALF, 6, 162): ReferenceRow("IG(pg(5,5,2))", None, "q=0"),
    (ThetaClass.HALF, 6, 216): ReferenceRow("-", _QNEG),
    (ThetaClass.HALF, 6, 324): ReferenceRow("-", _QNEG),
    (ThetaClass.HALF, 8, 24): ReferenceRow("C6⊗J4", expr="tensorj(cycle(6),4)"),
    (ThetaClass.HALF, 8, 32): ReferenceRow("H(4,2)⊗J2", expr="tensorj(hamming(4,2),2)"),
    (ThetaClass.HALF, 8, 48): ReferenceRow(
        "L(Q3)⊗K2⊗J2", expr="tensorj(bdouble(line(hypercube(3))),2)"),
    (ThetaClass.HALF, 8, 64): ReferenceRow("K4,4□K4,4", expr="cart(kbip(4,4),kbip(4,4))"),
    (ThetaClass.HALF, 8, 96): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 128): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 192): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 256): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 384): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 512): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 768): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 30): ReferenceRow("C6⊗J5", expr="tensorj(cycle(6),5)"),
    (ThetaClass.HALF, 10, 40): ReferenceRow("-", _QX),
    (ThetaClass.HALF, 10, 50): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 60): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 100): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 120): ReferenceRow("-", _QX),
    (ThetaClass.HALF, 10, 150): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 200): ReferenceRow("-", _QX),
    (ThetaClass.HALF, 10, 250): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 300): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 500): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 600): ReferenceRow("-", _QX),
    (ThetaClass.HALF, 10, 750): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 1000): ReferenceRow("-", _QX),
    (ThetaClass.HALF, 10, 1250): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 1500): ReferenceRow("?"),
    # theta = (sqrt2/2) k
    (ThetaClass.SQRT2, 2, 8): ReferenceRow("C8", expr="cycle(8)"),
    (ThetaClass.SQRT2, 4, 16): ReferenceRow("C8⊗J2", expr="tensorj(cycle(8),2)"),
    (ThetaClass.SQRT2, 4, 32): ReferenceRow("TD1(2,4)⊗J2,1", None, "[vDS]"),
    (ThetaClass.SQRT2, 4, 64): ReferenceRow("?"),
    (ThetaClass.SQRT2, 6, 18): ReferenceRow("-", _QN),
    (ThetaClass.SQRT2, 6, 24): ReferenceRow("C8⊗J3", expr="tensorj(cycle(8),3)"),
    (ThetaClass.SQRT2, 6, 36): ReferenceRow("?"),
    (ThetaClass.SQRT2, 6, 48): ReferenceRow("-", _QX),
    (ThetaClass.SQRT2, 6, 54): ReferenceRow("-", _QN),
    (ThetaClass.SQRT2, 6, 72): ReferenceRow("?"),
    (ThetaClass.SQRT2, 6, 108): ReferenceRow("?"),
    (ThetaClass.SQRT2, 6, 144): ReferenceRow("-", _QX),
    (ThetaClass.SQRT2, 6, 162): ReferenceRow("-", _QN),
    (ThetaClass.SQRT2, 6, 216): ReferenceRow("?"),
    (ThetaClass.SQRT2, 8, 32): ReferenceRow("C8⊗J4", expr="tensorj(cycle(8),4)"),
    (ThetaClass.SQRT2, 8, 64): ReferenceRow("TD1(2,4)⊗J2,1⊗J2", None, "[vDS]"),
    (ThetaClass.SQRT2, 8, 128): ReferenceRow("?"),
    (ThetaClass.SQRT2, 8, 256): ReferenceRow("?"),
    (ThetaClass.SQRT2, 8, 512): ReferenceRow("?"),
    (ThetaClass.SQRT2, 10, 40): ReferenceRow("C8⊗J5", expr="tensorj(cycle(8),5)"),
    (ThetaClass.SQRT2, 10, 50): ReferenceRow("-", _QN),
    (ThetaClass.SQRT2, 10, 80): ReferenceRow("-", _QX),
    (ThetaClass.SQRT2, 10, 100): ReferenceRow("?"),
    (ThetaClass.SQRT2, 10, 200): ReferenceRow("?"),
    (ThetaClass.SQRT2, 10, 250): ReferenceRow("-", _QN),
    (ThetaClass.SQRT2, 10, 400): ReferenceRow("-", _QX),
    (ThetaClass.SQRT2, 10, 500): ReferenceRow("?"),
    (ThetaClass.SQRT2, 10, 1000): ReferenceRow("?"),
    # theta = (sqrt3/2) k
    (ThetaClass.SQRT3, 4, 32): ReferenceRow("-", None, "[vDS]"),
    (ThetaClass.SQRT3, 8, 64): ReferenceRow("?"),
    (ThetaClass.SQRT3, 8, 256): ReferenceRow("?"),
    (ThetaClass.SQRT3, 10, 50): ReferenceRow("-", _QN),
    (ThetaClass.SQRT3, 10, 200): ReferenceRow("-", _QN),
    (ThetaClass.SQRT3, 10, 500): ReferenceRow("?"),
}

# the known realizations, (existence, expr) by row
REALIZATIONS = {key: (ref.existence, ref.expr) for key, ref in REFERENCE_TABLE.items()
                if ref.expr}

_ELIM_TEXT = {
    _QX: "q_x not integral",
    _QN: "q not integral",
    _QNEG: "q < 0",
    None: "",
}


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) from one gcd: "num/den" in lowest terms,
    or the integer alone."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _tail(row: FeasibleRow) -> tuple[str, str, str, str, str]:
    """The row's q, q_x, status, comment and realization as strings, from
    its ints, with one `elimination` call and one reference lookup: q
    and q_x are 8q/8 and 8q/2n in lowest terms (integers when the row is
    feasible), and the comment names the computed elimination, then any
    different one the reference states, then the reference's note."""
    cls, k, n, _, _, q8 = row
    mine = row.elimination()
    if mine is None:  # 8 and 2n divide 8q
        q, q_x, status = str(q8 // 8), str(q8 // (2 * n)), "feasible"
    else:
        q, q_x, status = _ratio(q8, 8), _ratio(q8, 2 * n), "eliminated"
    ref = REFERENCE_TABLE.get((cls, k, n))
    if ref is None:
        return q, q_x, status, _ELIM_TEXT[mine], "?"
    parts = [] if mine is None else [_ELIM_TEXT[mine]]
    if ref.elimination != mine and ref.elimination is not None:
        parts.append(f"reference says {_ELIM_TEXT[ref.elimination]} (exact: q={q}, q_x={q_x})")
    if ref.note:
        parts.append(ref.note)
    return q, q_x, status, "; ".join(parts), ref.existence


def realizes(traces: Sequence[int], row: FeasibleRow) -> bool:
    """Whether a graph with the closed-walk counts t_0 .. t_10,
    t_r = tr A^r, has the row's spectrum {[±k]^1, [±θ]^a, [0]^b}, with
    t = θ² (an integer for even k).

    The adjacency matrix A of the graph has that spectrum exactly when
      1. t_0 = row.n,
      2. t_2 = 2k² + 2at, t_3 = 0 and t_4 = 2k⁴ + 2at²
         (t_1 = 0 holds, as a graph has no loops), and
      3. M = A⁵ - uA³ + vA = 0, with u = k² + t and v = k²t.
    A is symmetric, hence diagonalizable, so 3 puts every eigenvalue in
    {0, ±θ, ±k}; the Vandermonde matrix of those five distinct values is
    invertible, so the power sums 0 to 4 fix their multiplicities.  M is
    symmetric too, so M = 0 exactly when tr M² = t_10 - 2u t_8 +
    (u² + 2v) t_6 - 2uv t_4 + v² t_2, the sum of its squared entries, is 0.
    """
    t0, _, t2, t3, t4, _, t6, _, t8, _, t10 = traces
    k2, t = row.k * row.k, row.theta_class.theta_sq(row.k)
    if [t0, t2, t3, t4] != [row.n, 2 * k2 + 2 * row.a * t, 0, 2 * k2 * k2 + 2 * row.a * t * t]:
        return False
    u, v = k2 + t, k2 * t
    return t10 - 2 * u * t8 + (u * u + 2 * v) * t6 - 2 * u * v * t4 + v * v * t2 == 0


def verify_realization(row: FeasibleRow) -> bool:
    """Certify the spectrum of the registry graph of a row in
    REALIZATIONS by `realizes` on the closed-form traces of its
    expression, read with no vertex cap (`expressions.read_expr`)."""
    expr = REALIZATIONS[row.theta_class, row.k, row.n][1]
    return realizes(read_expr(expr, capped=False).traces(11), row)


# ---------------------------------------------------------------------------
# table rendering


CSV_FIELDS = ("class", "k", "n", "a", "b", "q", "q_x", "status", "comment",
              "realization")

# The largest degree the tables and `enumerate` run to, checked before
# any row is built: `tables --kmax 1000` writes 80 372 rows (5 MB of
# csv) in a fraction of a second, and the rows grow faster than k_max.
MAX_DEGREE = 1000


def _blocks(k_max: int) -> dict[tuple[ThetaClass, int], list[FeasibleRow]]:
    """The rows of each θ-class and even degree k <= k_max, in (class, k)
    order; a degree bound past MAX_DEGREE is refused before any row is
    built."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if k_max > MAX_DEGREE:
        raise ValueError(f"k_max is {k_max}; degrees are capped at {MAX_DEGREE}")
    return {(cls, k): enumerate_rows(cls, k)
            for cls in ThetaClass for k in range(2, k_max + 1, 2)}


def all_rows(k_max: int) -> list[FeasibleRow]:
    return list(chain.from_iterable(_blocks(k_max).values()))


def _theta_text(h: int, c: int) -> str:
    """θ = h√c as `Spectrum.render` writes it: h for c = 1, and the
    factor 1 dropped."""
    return str(h) if c == 1 else f"{h}√{c}" if h > 1 else f"√{c}"


def _csv_field(text: str) -> str:
    r"""A field as csv.writer(lineterminator="\n") writes it inside a row
    of several fields: quoted, each quote doubled, when it holds a comma,
    a quote or a newline (the writer leaves a lone "\r" unquoted)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_rows(rows: list[FeasibleRow], fmt: str) -> str:
    """Rows as csv or json records, exact rationals as strings, or as
    text lines "k | n | spectrum | status | realization | comment".  Each
    row is one line of its format's template (a json record as
    json.dumps(indent=2, ensure_ascii=False) writes it), filled in from
    its ints and `_tail`.  Only the comment and the realization are free
    text, and only they are quoted (`_csv_field`) or escaped
    (`encode_basestring`); the other fields are digits, "-", "/" and
    fixed labels, which neither format escapes."""
    tails = zip(rows, map(_tail, rows))
    if fmt == "text":
        return "".join([
            f"{k} | {n} | {{[±{k}]^1, [±{_theta_text(k // 2, cls.c)}]^{a}, [0]^{b}}} | "
            f"{status} | {realization} | {comment}\n"
            for (cls, k, n, a, b, _), (_, _, status, comment, realization) in tails])
    if fmt == "csv":
        return ",".join(CSV_FIELDS) + "\n" + "".join([
            f"{cls.label},{k},{n},{a},{b},{q},{q_x},{status},"
            f"{_csv_field(comment)},{_csv_field(realization)}\n"
            for (cls, k, n, a, b, _), (q, q_x, status, comment, realization) in tails])
    if fmt == "json":
        if not rows:
            return "[]\n"
        return "[\n" + ",\n".join([
            f'  {{\n    "class": "{cls.label}",\n    "k": "{k}",\n    "n": "{n}",\n'
            f'    "a": "{a}",\n    "b": "{b}",\n    "q": "{q}",\n    "q_x": "{q_x}",\n'
            f'    "status": "{status}",\n    "comment": {encode_basestring(comment)},\n'
            f'    "realization": {encode_basestring(realization)}\n  }}'
            for (cls, k, n, a, b, _), (q, q_x, status, comment, realization) in tails]) + "\n]\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_tables(k_max: int, fmt: str = "text") -> str:
    """Deterministic table of all rows for even k <= k_max, sorted by
    (class, k, n).  The spectra of the registry realizations are
    certified from their closed-walk traces before rendering."""
    blocks = _blocks(k_max)
    for cls, k, n in REALIZATIONS:
        for row in blocks.get((cls, k), ()):
            if row.n == n and not verify_realization(row):
                raise AssertionError(f"registry spectrum mismatch at ({cls}, {k}, {n})")
    if fmt != "text":
        return render_rows(list(chain.from_iterable(blocks.values())), fmt)
    text = []
    for cls in ThetaClass:
        cls_rows = list(chain.from_iterable(
            block for (block_cls, _), block in blocks.items() if block_cls is cls))
        if cls_rows:
            text.append(f"theta-class {cls.label}\n"
                        "k | n | spectrum | status | realization | comment\n"
                        + render_rows(cls_rows, "text"))
    return "\n".join(text)
