"""Feasible spectra of bipartite regular periodic graphs with five
distinct eigenvalues, and the four-eigenvalue classification.

A candidate (k, n) passes when the eigenvalue multiplicities come out as
positive integers, n is even (equal partite sets), and the closed-walk
counts are integers for every power; the quadrangle counts then either
confirm the row or eliminate it.  The count of closed 2r-walks,
kθ^(2r-2) + 2k²((k²)^(r-1) - (θ²)^(r-1))/n, is k for r = 1 and, since
k² - θ² divides (k²)^(r-1) - (θ²)^(r-1), integral for every r exactly
when n | 2k²(k² - θ²) (r = 2 gives the converse).  So the candidates are
the divisors of that number inside the vertex-count window, and every
one of them has integral closed-walk counts by construction.  Rows
eliminated by the quadrangle checks are kept with their elimination
reason so the generated tables mirror the reference ones.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .exact import QuadraticNumber, Spectrum, adjacency_times, exact_dtype
from .graphs import (
    Graph,
    bipartite_double,
    cartesian_product,
    complete_bipartite,
    cycle,
    hamming,
    hypercube,
    line_graph,
    tensor_allones,
)


class ThetaClass(Enum):
    """The three admissible second-largest eigenvalues for even degree k:
    k/2, (sqrt(2)/2) k, and (sqrt(3)/2) k."""

    HALF = "half"
    SQRT2 = "sqrt2"
    SQRT3 = "sqrt3"

    def theta_sq(self, k: int) -> Fraction:
        sq = {"half": Fraction(1, 4), "sqrt2": Fraction(1, 2), "sqrt3": Fraction(3, 4)}
        return sq[self.value] * k * k

    def theta(self, k: int) -> QuadraticNumber:
        if self is ThetaClass.HALF:
            return QuadraticNumber(Fraction(k, 2))
        radicand = 2 if self is ThetaClass.SQRT2 else 3
        return QuadraticNumber.sqrt(radicand, Fraction(k, 2))

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FeasibleRow:
    """One candidate spectrum {[±k]^1, [±θ]^a, [0]^b} that passes the
    multiplicity, window, parity and closed-walk tests, with its exact
    quadrangle counts; `elimination` names the quadrangle test it fails."""

    theta_class: ThetaClass
    k: int
    n: int
    a: int
    b: int
    q: Fraction
    q_x: Fraction
    known_realization: str | None = None

    @property
    def feasible(self) -> bool:
        return self.elimination() is None

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "eliminated"

    def elimination(self) -> str | None:
        """Category of the quadrangle-based elimination, if any."""
        if self.q.denominator != 1:
            return "q_nonintegral"
        if self.q < 0:
            return "q_negative"
        if self.q_x.denominator != 1:
            return "qx_nonintegral"
        if self.q_x < 0:
            return "qx_negative"
        return None

    def spectrum(self) -> Spectrum:
        """{[±k]^1, [±θ]^a, [0]^b}, built in descending order: k > θ > 0
        in every θ-class and a, b >= 1 for every row."""
        k, theta = QuadraticNumber(self.k), self.theta_class.theta(self.k)
        return Spectrum(((k, 1), (theta, self.a), (QuadraticNumber(0), self.b),
                         (-theta, self.a), (-k, 1)))


def multiplicities(k: int, theta_sq: Fraction | int, n: int) -> tuple[int, int] | None:
    """Multiplicities (a, b) of (±θ, 0) forced by the power sums, when
    both are positive integers: a = (nk - 2k²)/(2θ²), b = n - 2 - 2a."""
    if theta_sq <= 0:
        raise ValueError("theta^2 must be positive")
    a, rem = divmod((n * k - 2 * k * k) * theta_sq.denominator, 2 * theta_sq.numerator)
    if rem or a <= 0:
        return None
    b = n - 2 - 2 * a
    if b <= 0:
        return None
    return a, b


def n_bounds(k: int, theta_sq: Fraction | int) -> tuple[Fraction, int]:
    """Vertex-count window 2(k²+θ²)/k <= n <= 2k(k²-θ²)."""
    theta_sq = Fraction(theta_sq)
    if theta_sq >= k * k:
        raise ValueError("theta^2 must be below k^2")
    lo = Fraction(2) * (k * k + theta_sq) / k
    hi = 2 * k * (k * k - theta_sq)
    if hi != int(hi):
        raise ValueError("upper bound is not an integer")
    return lo, int(hi)


def _closed_walk_divisors(k: int, theta_sq: int) -> list[int]:
    """Divisors of m = 2k²(k² - θ²) in ascending order.  For the three
    θ-classes m is 3k⁴/2, k⁴ or k⁴/2, so its primes are those of k, found
    by trial division up to √k, and 3."""
    m = 2 * k * k * (k * k - theta_sq)
    primes = {3}
    rest, p = k, 2
    while p * p <= rest:
        while rest % p == 0:
            primes.add(p)
            rest //= p
        p += 1
    if rest > 1:
        primes.add(rest)
    divisors = [1]
    for p in primes:
        powers = [1]
        while m % p == 0:
            m //= p
            powers.append(powers[-1] * p)
        divisors = [d * q for d in divisors for q in powers]
    if m != 1:
        raise AssertionError(f"2k²(k² - θ²) has a prime outside k and 3 at k={k}")
    return sorted(divisors)


def enumerate_rows(theta_class: ThetaClass, k: int) -> list[FeasibleRow]:
    """All candidate rows for one θ-class and even degree k: n runs over
    the divisors of 2k²(k² - θ²) inside the window, which makes every
    closed-walk count integral, filtered by parity and integral
    multiplicities; quadrangle failures are kept, annotated."""
    if k < 2 or k % 2:
        raise ValueError("degree must be even and at least 2")
    theta_sq = theta_class.theta_sq(k)
    if theta_sq.denominator != 1:
        raise ValueError("theta^2 must be integral for an even degree")
    theta_sq_int = int(theta_sq)
    lo, hi = n_bounds(k, theta_sq)
    rows = []
    for n in _closed_walk_divisors(k, theta_sq_int):
        if n < lo or n > hi or n % 2:
            continue
        mult = multiplicities(k, theta_sq_int, n)
        if mult is None:
            continue
        a, b = mult
        power4 = 2 * k ** 4 + 2 * a * theta_sq_int ** 2
        q = Fraction(power4 - n * (2 * k * k - k), 8)
        q_x = 4 * q / n
        label = REALIZATIONS.get((theta_class, k, n), (None, None))[0]
        rows.append(FeasibleRow(theta_class, k, n, a, b, q, q_x, label))
    return rows


def classify_four_eigenvalue(k_max: int) -> list[tuple[int, int, Spectrum]]:
    """Replay of the four-distinct-eigenvalue classification: the window
    k > θ² kills the surd classes outright and forces k = 2, θ = 1,
    whence n = 6; the result does not depend on k_max."""
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    out: list[tuple[int, int, Spectrum]] = []
    for k in range(2, k_max + 1, 2):
        for cls in ThetaClass:
            theta_sq = cls.theta_sq(k)
            if not k > theta_sq:
                continue
            # four-eigenvalue shape: a = n/2 - 1, so theta^2 (n-2) = nk - 2k^2
            denom = k - theta_sq
            n = 2 * (k * k - theta_sq) / denom
            if n.denominator != 1:
                continue
            n_int = int(n)
            if n_int < 4 or n_int % 2 or n_int // 2 - 1 < 1:
                continue
            theta = cls.theta(k)
            spec = Spectrum.from_pairs([
                (QuadraticNumber(k), 1), (QuadraticNumber(-k), 1),
                (theta, n_int // 2 - 1), (-theta, n_int // 2 - 1),
            ])
            out.append((k, n_int, spec))
    return out


# ---------------------------------------------------------------------------
# known realizations and reference annotations


def _c6_blowup(m: int) -> Callable[[], Graph]:
    return lambda: tensor_allones(cycle(6), m)


def _c8_blowup(m: int) -> Callable[[], Graph]:
    return lambda: tensor_allones(cycle(8), m)


def _lq3_double() -> Graph:
    return bipartite_double(line_graph(hypercube(3)))


REALIZATIONS: dict[tuple[ThetaClass, int, int], tuple[str, Callable[[], Graph]]] = {
    (ThetaClass.HALF, 4, 12): ("C6⊗J2", _c6_blowup(2)),
    (ThetaClass.HALF, 4, 16): ("H(4,2)", lambda: hamming(4, 2)),
    (ThetaClass.HALF, 4, 24): ("L(Q3)⊗K2", _lq3_double),
    (ThetaClass.HALF, 6, 18): ("C6⊗J3", _c6_blowup(3)),
    (ThetaClass.HALF, 6, 54): ("H(3,3)⊗K2", lambda: bipartite_double(hamming(3, 3))),
    (ThetaClass.HALF, 8, 24): ("C6⊗J4", _c6_blowup(4)),
    (ThetaClass.HALF, 8, 32): ("H(4,2)⊗J2", lambda: tensor_allones(hamming(4, 2), 2)),
    (ThetaClass.HALF, 8, 48): ("L(Q3)⊗K2⊗J2", lambda: tensor_allones(_lq3_double(), 2)),
    (ThetaClass.HALF, 8, 64): ("K4,4□K4,4", lambda: cartesian_product(
        complete_bipartite(4, 4), complete_bipartite(4, 4))),
    (ThetaClass.HALF, 10, 30): ("C6⊗J5", _c6_blowup(5)),
    (ThetaClass.SQRT2, 2, 8): ("C8", lambda: cycle(8)),
    (ThetaClass.SQRT2, 4, 16): ("C8⊗J2", _c8_blowup(2)),
    (ThetaClass.SQRT2, 6, 24): ("C8⊗J3", _c8_blowup(3)),
    (ThetaClass.SQRT2, 8, 32): ("C8⊗J4", _c8_blowup(4)),
    (ThetaClass.SQRT2, 10, 40): ("C8⊗J5", _c8_blowup(5)),
}


@dataclass(frozen=True)
class ReferenceRow:
    """Static annotation carried over from the reference tables: the
    existence column verbatim and the stated elimination category."""

    existence: str
    elimination: str | None = None
    note: str = ""


_QX = "qx_nonintegral"
_QN = "q_nonintegral"
_QNEG = "q_negative"

REFERENCE_TABLE: dict[tuple[ThetaClass, int, int], ReferenceRow] = {
    # theta = k/2
    (ThetaClass.HALF, 4, 12): ReferenceRow("C6⊗J2"),
    (ThetaClass.HALF, 4, 16): ReferenceRow("H(4,2)"),
    (ThetaClass.HALF, 4, 24): ReferenceRow("L(Q3)⊗K2"),
    (ThetaClass.HALF, 4, 32): ReferenceRow("IG(AG(2,4)\\pc)", None, "q=0"),
    (ThetaClass.HALF, 4, 48): ReferenceRow("-", None, "[S]"),
    (ThetaClass.HALF, 4, 64): ReferenceRow("-", None, "[S]"),
    (ThetaClass.HALF, 4, 96): ReferenceRow("-", None, "[S]"),
    (ThetaClass.HALF, 6, 18): ReferenceRow("C6⊗J3"),
    (ThetaClass.HALF, 6, 24): ReferenceRow("-", _QX),
    (ThetaClass.HALF, 6, 36): ReferenceRow("?"),
    (ThetaClass.HALF, 6, 54): ReferenceRow("H(3,3)⊗K2"),
    (ThetaClass.HALF, 6, 72): ReferenceRow("-", _QX),
    (ThetaClass.HALF, 6, 108): ReferenceRow("?"),
    (ThetaClass.HALF, 6, 162): ReferenceRow("IG(pg(5,5,2))", None, "q=0"),
    (ThetaClass.HALF, 6, 216): ReferenceRow("-", _QNEG),
    (ThetaClass.HALF, 6, 324): ReferenceRow("-", _QNEG),
    (ThetaClass.HALF, 8, 24): ReferenceRow("C6⊗J4"),
    (ThetaClass.HALF, 8, 32): ReferenceRow("H(4,2)⊗J2"),
    (ThetaClass.HALF, 8, 48): ReferenceRow("L(Q3)⊗K2⊗J2"),
    (ThetaClass.HALF, 8, 64): ReferenceRow("K4,4□K4,4"),
    (ThetaClass.HALF, 8, 96): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 128): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 192): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 256): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 384): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 512): ReferenceRow("?"),
    (ThetaClass.HALF, 8, 768): ReferenceRow("?"),
    (ThetaClass.HALF, 10, 30): ReferenceRow("C6⊗J5"),
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
    (ThetaClass.SQRT2, 2, 8): ReferenceRow("C8"),
    (ThetaClass.SQRT2, 4, 16): ReferenceRow("C8⊗J2"),
    (ThetaClass.SQRT2, 4, 32): ReferenceRow("TD1(2,4)⊗J2,1", None, "[vDS]"),
    (ThetaClass.SQRT2, 4, 64): ReferenceRow("?"),
    (ThetaClass.SQRT2, 6, 18): ReferenceRow("-", _QN),
    (ThetaClass.SQRT2, 6, 24): ReferenceRow("C8⊗J3"),
    (ThetaClass.SQRT2, 6, 36): ReferenceRow("?"),
    (ThetaClass.SQRT2, 6, 48): ReferenceRow("-", _QX),
    (ThetaClass.SQRT2, 6, 54): ReferenceRow("-", _QN),
    (ThetaClass.SQRT2, 6, 72): ReferenceRow("?"),
    (ThetaClass.SQRT2, 6, 108): ReferenceRow("?"),
    (ThetaClass.SQRT2, 6, 144): ReferenceRow("-", _QX),
    (ThetaClass.SQRT2, 6, 162): ReferenceRow("-", _QN),
    (ThetaClass.SQRT2, 6, 216): ReferenceRow("?"),
    (ThetaClass.SQRT2, 8, 32): ReferenceRow("C8⊗J4"),
    (ThetaClass.SQRT2, 8, 64): ReferenceRow("TD1(2,4)⊗J2,1⊗J2", None, "[vDS]"),
    (ThetaClass.SQRT2, 8, 128): ReferenceRow("?"),
    (ThetaClass.SQRT2, 8, 256): ReferenceRow("?"),
    (ThetaClass.SQRT2, 8, 512): ReferenceRow("?"),
    (ThetaClass.SQRT2, 10, 40): ReferenceRow("C8⊗J5"),
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

_ELIM_TEXT = {
    _QX: "q_x not integral",
    _QN: "q not integral",
    _QNEG: "q < 0",
    "qx_negative": "q_x < 0",
    None: "",
}


def row_comment(row: FeasibleRow) -> str:
    """Computed elimination reason, plus an explicit flag whenever the
    reference table states a different one."""
    mine = row.elimination()
    parts = []
    if mine is not None:
        parts.append(_ELIM_TEXT[mine])
    ref = REFERENCE_TABLE.get((row.theta_class, row.k, row.n))
    if ref is not None:
        if ref.elimination != mine and ref.elimination is not None:
            parts.append(
                f"reference says {_ELIM_TEXT[ref.elimination]}"
                f" (exact: q={row.q}, q_x={row.q_x})")
        if ref.note:
            parts.append(ref.note)
    return "; ".join(parts)


def row_existence(row: FeasibleRow) -> str:
    if row.known_realization is not None:
        return row.known_realization
    ref = REFERENCE_TABLE.get((row.theta_class, row.k, row.n))
    if ref is not None:
        return ref.existence
    return "?"


def realizes(g: Graph, row: FeasibleRow) -> bool:
    """Whether g has the row's spectrum {[±k]^1, [±θ]^a, [0]^b}, decided
    from closed-walk counts, with t = θ² (an integer for even k).

    The adjacency matrix A of g has that spectrum exactly when
      1. g has row.n vertices,
      2. tr A² = 2k² + 2at, tr A³ = 0 and tr A⁴ = 2k⁴ + 2at²
         (tr A = 0 holds, as g has no loops), and
      3. A⁵ - (k² + t)A³ + k²tA = 0.
    A is symmetric, hence diagonalizable, so 3 puts every eigenvalue in
    {0, ±θ, ±k}; the Vandermonde matrix of those five distinct values is
    invertible, so the power sums 0 to 4 fix their multiplicities.
    tr A⁴ is the sum of the squared entries of the symmetric A².

    The powers are row gathers.  An entry of A^r is at most delta^r, delta
    the largest degree, so no entry or partial sum below passes
    n delta^5 + (k² + t) delta^3 + k² t.
    """
    if g.n != row.n:
        return False
    k2, t = row.k * row.k, int(row.theta_class.theta_sq(row.k))
    table = g.neighbour_table
    delta = table.shape[1]
    a = g.adjacency.astype(exact_dtype(g.n * delta ** 5 + (k2 + t) * delta ** 3 + k2 * t))
    a2 = adjacency_times(table, a)
    a3 = adjacency_times(table, a2)
    traces = (int(a2.trace()), int(a3.trace()), int((a2 * a2).sum()))
    if traces != (2 * k2 + 2 * row.a * t, 0, 2 * k2 * k2 + 2 * row.a * t * t):
        return False
    a5 = adjacency_times(table, adjacency_times(table, a3))
    return not (a5 - (k2 + t) * a3 + k2 * t * a).any()


def verify_realization(row: FeasibleRow) -> bool:
    """Construct the registry graph for the row, if it has one, and
    certify its spectrum by `realizes`."""
    entry = REALIZATIONS.get((row.theta_class, row.k, row.n))
    if entry is None:
        return True
    return realizes(entry[1](), row)


# ---------------------------------------------------------------------------
# table rendering


CSV_FIELDS = ("class", "k", "n", "a", "b", "q", "q_x", "status", "comment",
              "realization")


def all_rows(k_max: int) -> list[FeasibleRow]:
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    rows: list[FeasibleRow] = []
    for cls in ThetaClass:
        for k in range(2, k_max + 1, 2):
            rows.extend(enumerate_rows(cls, k))
    return rows


def _row_record(row: FeasibleRow) -> dict[str, str]:
    return {
        "class": row.theta_class.value,
        "k": str(row.k),
        "n": str(row.n),
        "a": str(row.a),
        "b": str(row.b),
        "q": str(row.q),
        "q_x": str(row.q_x),
        "status": row.status,
        "comment": row_comment(row),
        "realization": row_existence(row),
    }


def render_rows(rows: list[FeasibleRow], fmt: str) -> str:
    """Rows as csv or json records, exact rationals as strings, or as
    text lines "k | n | spectrum | status | realization | comment"."""
    if fmt == "text":
        return "".join(" | ".join([
            str(r.k), str(r.n), r.spectrum().render(), r.status,
            row_existence(r), row_comment(r)]) + "\n" for r in rows)
    records = [_row_record(r) for r in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(records, indent=2, ensure_ascii=False) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_tables(k_max: int, fmt: str = "text") -> str:
    """Deterministic table of all rows for even k <= k_max, sorted by
    (class, k, n).  Registry realizations are reconstructed and their
    spectra certified by closed-walk counts before rendering."""
    rows = all_rows(k_max)
    for row in rows:
        if not verify_realization(row):
            raise AssertionError(
                f"registry spectrum mismatch at ({row.theta_class}, {row.k}, {row.n})")
    if fmt != "text":
        return render_rows(rows, fmt)
    blocks = []
    for cls in ThetaClass:
        cls_rows = [r for r in rows if r.theta_class is cls]
        if cls_rows:
            blocks.append(f"theta-class {cls.value}\n"
                          "k | n | spectrum | status | realization | comment\n"
                          + render_rows(cls_rows, "text"))
    return "\n".join(blocks)


def read_tables_csv(text: str) -> list[dict[str, str]]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_FIELDS:
        raise ValueError("unexpected CSV header")
    return list(reader)
