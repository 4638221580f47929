"""Feasibility enumeration: the candidate filters, the regenerated
reference tables, the closed-form oracle for one block, realization
verification, and the four-eigenvalue classification."""

import csv
import enum
import hashlib
import io
import json
from fractions import Fraction

import pytest

import numpy as np

from walklab import expressions, feasibility, graphs
from walklab.cli import main
from walklab.exact import QuadraticNumber, Spectrum
from walklab.expressions import parse_expr, read_expr
from walklab.feasibility import (
    CSV_FIELDS,
    REFERENCE_TABLE,
    REALIZATIONS,
    ThetaClass,
    all_rows,
    enumerate_rows,
    realizes,
    render_rows,
    render_tables,
    verify_realization,
)
from walklab.graphs import Graph, cycle
from walklab.oracles import classify_four_eigenvalue, closed_walk_traces, power_sum
from walklab.walk import Periodic, decide_periodic

from oracles import (
    closed_walks_integral,
    dimension,
    enumerate_rows_by_window,
    multiplicities,
    n_bounds,
    read_tables_csv,
    spectral_quadrangles,
    spectrum_realizes,
)


def row_comment(row):
    """Computed elimination reason, plus an explicit flag whenever the
    reference table states a different one."""
    return feasibility._tail(row)[3]


def row_existence(row):
    return feasibility._tail(row)[4]


EXPECTED_N_COLUMNS = {
    (ThetaClass.HALF, 4): [12, 16, 24, 32, 48, 64, 96],
    (ThetaClass.HALF, 6): [18, 24, 36, 54, 72, 108, 162, 216, 324],
    (ThetaClass.HALF, 8): [24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768],
    (ThetaClass.HALF, 10): [30, 40, 50, 60, 100, 120, 150, 200, 250, 300,
                            500, 600, 750, 1000, 1250, 1500],
    (ThetaClass.SQRT2, 2): [8],
    (ThetaClass.SQRT2, 4): [16, 32, 64],
    (ThetaClass.SQRT2, 6): [18, 24, 36, 48, 54, 72, 108, 144, 162, 216],
    (ThetaClass.SQRT2, 8): [32, 64, 128, 256, 512],
    (ThetaClass.SQRT2, 10): [40, 50, 80, 100, 200, 250, 400, 500, 1000],
    (ThetaClass.SQRT3, 4): [32],
    (ThetaClass.SQRT3, 8): [64, 256],
    (ThetaClass.SQRT3, 10): [50, 200, 500],
}


# ---------------------------------------------------------------------------
# filters


def test_multiplicities_examples():
    assert multiplicities(4, 4, 12) == (2, 6)
    assert multiplicities(6, 18, 18) == (1, 14)
    assert multiplicities(4, 4, 11) is None  # a = 3/2


def test_n_bounds_examples():
    assert n_bounds(4, 4) == (10, 96)
    assert n_bounds(4, 8) == (12, 64)
    assert n_bounds(2, 2) == (6, 8)
    assert n_bounds(4, 5) == (11, 88)  # the window starts at 10.5
    with pytest.raises(ValueError):
        n_bounds(2, 4)


def test_theta_sq_is_an_int_for_even_degrees():
    quarters = {ThetaClass.HALF: 1, ThetaClass.SQRT2: 2, ThetaClass.SQRT3: 3}
    for cls, c in quarters.items():
        for k in range(2, 201, 2):
            theta_sq = cls.theta_sq(k)
            assert type(theta_sq) is int and 4 * theta_sq == c * k * k, (cls, k)
            assert cls.theta(k) * cls.theta(k) == QuadraticNumber(theta_sq)
        for k in (1, 3, 5, 41):
            with pytest.raises(ValueError):
                cls.theta_sq(k)
            with pytest.raises(ValueError):
                cls.theta(k)


@pytest.mark.parametrize("cls", list(ThetaClass))
def test_window_starts_at_the_least_n_with_a_at_least_one(cls):
    for k in range(2, 41, 2):
        theta_sq = cls.theta_sq(k)
        lo, hi = n_bounds(k, theta_sq)
        assert type(lo) is int and type(hi) is int
        assert [n for n in range(1, lo + 1) if multiplicities(k, theta_sq, n)] == [lo], (cls, k)
        assert multiplicities(k, theta_sq, lo)[0] == 1


def test_the_integer_layer_builds_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("feasibility built a Fraction")

    monkeypatch.setattr(feasibility, "Fraction", refuse)
    rows = all_rows(40)
    assert len(rows) == 819
    assert [(k, n) for k, n, _ in classify_four_eigenvalue(40)] == [(2, 6)]
    realized = [row for row in rows if (row.theta_class, row.k, row.n) in REALIZATIONS]
    assert len(realized) == 15 and all(verify_realization(row) for row in realized)
    # the tables render from the rows' ints, and certify the registry rows only
    for name in ("QuadraticNumber", "Spectrum"):
        monkeypatch.setattr(feasibility, name, refuse)
    certified = []

    def count(row):
        certified.append((row.theta_class, row.k, row.n))
        return verify_realization(row)

    monkeypatch.setattr(feasibility, "verify_realization", count)
    for fmt, digest in TABLE_DIGESTS.items():
        certified.clear()
        assert hashlib.sha256(render_tables(40, fmt).encode()).hexdigest() == digest
        assert certified == list(REALIZATIONS), fmt


def test_closed_walks_examples():
    assert closed_walks_integral(4, 4, 12)
    assert not closed_walks_integral(4, 4, 10)  # fourth moment 54.4
    assert closed_walks_integral(6, 9, 27)  # arithmetic holds; parity kills it


def test_closed_walks_matches_direct_scan():
    # direct check of the first dozen powers agrees with the cycle decision
    for k, theta_sq in ((4, 4), (4, 8), (6, 9), (6, 18), (8, 16)):
        lo, hi = n_bounds(k, theta_sq)
        for n in range(int(lo), hi + 1, max(1, hi // 37)):
            direct = all(
                (2 * k ** (2 * r) + (n * k - 2 * k * k) * theta_sq ** (r - 1)) % n == 0
                for r in range(1, 13))
            if closed_walks_integral(k, theta_sq, n):
                assert direct, (k, theta_sq, n)
            else:
                assert not all(
                    (2 * k ** (2 * r) + (n * k - 2 * k * k) * theta_sq ** (r - 1)) % n == 0
                    for r in range(1, 61)), (k, theta_sq, n)


# ---------------------------------------------------------------------------
# enumeration against the reference tables


def test_enumerate_reproduces_reference_columns():
    for (cls, k), expected in EXPECTED_N_COLUMNS.items():
        got = [row.n for row in enumerate_rows(cls, k)]
        assert got == expected, (cls, k)


def test_enumerate_half4_closed_form():
    # independent oracle: even n in [10, 96] dividing 384
    expected = [n for n in range(10, 97) if n % 2 == 0 and 384 % n == 0]
    got = [row.n for row in enumerate_rows(ThetaClass.HALF, 4)]
    assert got == expected
    assert all(row.b == 6 for row in enumerate_rows(ThetaClass.HALF, 4))


def test_enumerate_sqrt3_k4():
    rows = enumerate_rows(ThetaClass.SQRT3, 4)
    assert len(rows) == 1
    row = rows[0]
    assert (row.n, row.a, row.b) == (32, 4, 22)
    assert row.spectrum().render() == "{[±4]^1, [±2√3]^4, [0]^22}"


def test_enumerate_rejects_odd_degree():
    with pytest.raises(ValueError):
        enumerate_rows(ThetaClass.HALF, 5)


@pytest.mark.parametrize("cls", list(ThetaClass))
def test_enumerate_by_divisors_matches_the_window_scan(cls):
    for k in range(2, 41, 2):
        rows = [(row, row.q, row.q_x) for row in enumerate_rows(cls, k)]
        oracle = enumerate_rows_by_window(cls, k)
        assert rows == oracle, (cls, k)
        # equal rows hash alike, their θ-class included
        assert [hash(r) for r, _, _ in rows] == [hash(r) for r, _, _ in oracle], (cls, k)


@pytest.mark.parametrize("cls", list(ThetaClass))
def test_row_parameters_are_the_divisors_up_to_the_window_top(cls):
    # m = n/(k/2) runs over the divisors of 8(k/2)³(4 - c) up to
    # 4(k/2)²(4 - c); every even k up to 80 reaches primes up to 37 in k/2
    c = cls.c
    for h in range(1, 41):
        top, cap = 8 * h ** 3 * (4 - c), 4 * h * h * (4 - c)
        assert cap == n_bounds(2 * h, cls.theta_sq(2 * h))[1] // h
        expected = [m for m in range(1, cap + 1) if top % m == 0]
        assert feasibility._divisors(h, c) == expected, (cls, 2 * h)


def test_tables_need_neither_the_window_nor_the_multiplicity_formula(capsys):
    # the rows come from their parameter m alone; both formulas live only
    # in the window-scan oracle of the tests
    assert not {"multiplicities", "n_bounds"} & set(vars(feasibility))
    for fmt, digest in TABLE_DIGESTS.items():
        assert main(["tables", "--kmax", "40", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, fmt


def test_row_n_divides_the_closed_two_walk_bound():
    # the r = 2 closed-walk count k θ² + 2k²(k² − θ²)/n is an integer
    closed_form = {ThetaClass.HALF: Fraction(3, 2), ThetaClass.SQRT2: Fraction(1),
                   ThetaClass.SQRT3: Fraction(1, 2)}
    for row in all_rows(40):
        k, theta_sq = row.k, row.theta_class.theta_sq(row.k)
        m = 2 * k * k * (k * k - theta_sq)
        assert m == closed_form[row.theta_class] * k ** 4
        assert m % row.n == 0, (row.theta_class, k, row.n)


def test_all_rows_past_the_window_scan_reach():
    rows = all_rows(200)
    assert len(rows) == 8843
    for row in rows:
        theta_sq = row.theta_class.theta_sq(row.k)
        assert 2 + 2 * row.a + row.b == row.n
        assert 2 * row.k ** 2 + 2 * row.a * theta_sq == row.n * row.k
        assert closed_walks_integral(row.k, theta_sq, row.n)


def test_row_counting_identities():
    # multiplicities add up and the second moment balances exactly
    for (cls, k) in EXPECTED_N_COLUMNS:
        for row in enumerate_rows(cls, k):
            assert 2 + 2 * row.a + row.b == row.n
            theta_sq = cls.theta_sq(k)
            assert 2 * k * k + 2 * row.a * theta_sq == row.n * k
            spec = row.spectrum()
            assert dimension(spec) == row.n
            assert power_sum(spec, 2) == row.n * k


def test_rows_agree_with_walk_engine_quadrangles():
    for (cls, k) in EXPECTED_N_COLUMNS:
        for row in enumerate_rows(cls, k):
            q, q_x = spectral_quadrangles(power_sum(row.spectrum(), 4), row.n, row.k)
            assert q == row.q
            assert q_x == row.q_x


def test_elimination_annotations_match_reference():
    # the reference comment column agrees with the exact computation
    # everywhere except the two flagged sqrt3 k=10 rows
    flagged = {(ThetaClass.SQRT3, 10, 50), (ThetaClass.SQRT3, 10, 200)}
    for (cls, k, n), ann in REFERENCE_TABLE.items():
        if ann.elimination is None:
            continue
        row = next(r for r in enumerate_rows(cls, k) if r.n == n)
        if (cls, k, n) in flagged:
            assert row.elimination() != ann.elimination
        else:
            assert row.elimination() == ann.elimination, (cls, k, n)


def test_flagged_rows_exact_values():
    rows50 = {r.n: r for r in enumerate_rows(ThetaClass.SQRT3, 10)}
    assert rows50[50].q == 4125 and rows50[50].q_x == 330
    assert rows50[50].feasible  # not quadrangle-eliminable after all
    assert "reference says" in row_comment(rows50[50])
    assert rows50[200].q == 14625 and rows50[200].q_x == Fraction(585, 2)
    assert rows50[200].elimination() == "qx_nonintegral"
    assert "reference says" in row_comment(rows50[200])


def test_rows_are_immutable_tuples_of_their_fields():
    row = _row(ThetaClass.HALF, 4, 12)
    assert row == (ThetaClass.HALF, 4, 12, 2, 6, 240)
    for field in row._fields:
        with pytest.raises(AttributeError):
            setattr(row, field, 0)
    assert row == (ThetaClass.HALF, 4, 12, 2, 6, 240)


def test_tables_render_without_enum_hashing(monkeypatch):
    # θ-classes hash by identity, so the reference lookups never reach
    # the Python-level Enum.__hash__
    def refuse(self):
        raise AssertionError("Enum.__hash__ called")

    monkeypatch.setattr(enum.Enum, "__hash__", refuse)
    for fmt, digest in TABLE_DIGESTS.items():
        assert hashlib.sha256(render_tables(40, fmt).encode()).hexdigest() == digest


def test_eliminated_rows_are_retained():
    rows = enumerate_rows(ThetaClass.HALF, 6)
    by_n = {r.n: r for r in rows}
    assert by_n[24].status == "eliminated" and by_n[24].elimination() == "qx_nonintegral"
    assert by_n[216].status == "eliminated" and by_n[216].elimination() == "q_negative"
    assert by_n[18].status == "feasible"


# ---------------------------------------------------------------------------
# realizations


def test_realizations_verify():
    for (cls, k, n), (label, expr) in REALIZATIONS.items():
        row = next(r for r in enumerate_rows(cls, k) if r.n == n)
        assert row_existence(row) == label
        assert verify_realization(row), label


# the constructor call behind each registry expression, written out
_HALF, _SQRT2 = ThetaClass.HALF, ThetaClass.SQRT2
REGISTRY_CALLS = {
    (_HALF, 4, 12): lambda: graphs.tensor_allones(graphs.cycle(6), 2),
    (_HALF, 4, 16): lambda: graphs.hamming(4, 2),
    (_HALF, 4, 24): lambda: graphs.bipartite_double(graphs.line_graph(graphs.hypercube(3))),
    (_HALF, 6, 18): lambda: graphs.tensor_allones(graphs.cycle(6), 3),
    (_HALF, 6, 54): lambda: graphs.bipartite_double(graphs.hamming(3, 3)),
    (_HALF, 8, 24): lambda: graphs.tensor_allones(graphs.cycle(6), 4),
    (_HALF, 8, 32): lambda: graphs.tensor_allones(graphs.hamming(4, 2), 2),
    (_HALF, 8, 48): lambda: graphs.tensor_allones(
        graphs.bipartite_double(graphs.line_graph(graphs.hypercube(3))), 2),
    (_HALF, 8, 64): lambda: graphs.cartesian_product(
        graphs.complete_bipartite(4, 4), graphs.complete_bipartite(4, 4)),
    (_HALF, 10, 30): lambda: graphs.tensor_allones(graphs.cycle(6), 5),
    (_SQRT2, 2, 8): lambda: graphs.cycle(8),
    (_SQRT2, 4, 16): lambda: graphs.tensor_allones(graphs.cycle(8), 2),
    (_SQRT2, 6, 24): lambda: graphs.tensor_allones(graphs.cycle(8), 3),
    (_SQRT2, 8, 32): lambda: graphs.tensor_allones(graphs.cycle(8), 4),
    (_SQRT2, 10, 40): lambda: graphs.tensor_allones(graphs.cycle(8), 5),
}


def test_registry_expressions_build_the_constructor_graphs():
    # equal adjacency arrays: the same graph in the same vertex order
    assert REALIZATIONS.keys() == REGISTRY_CALLS.keys()
    for key, (label, expr) in REALIZATIONS.items():
        assert np.array_equal(parse_expr(expr).adjacency, REGISTRY_CALLS[key]().adjacency), label
    # the registry is data: feasibility reaches the graphs only by the grammar
    constructors = {id(fn) for _, node, build in expressions._BUILDERS.values()
                    for fn in (node, build)}
    assert not [name for name, value in vars(feasibility).items() if id(value) in constructors]
    assert not [(key, name) for key, ref in REFERENCE_TABLE.items()
                for name in ref._fields if callable(getattr(ref, name))]


def test_registry_traces_from_the_factors_equal_those_of_the_built_graphs():
    for label, expr in REALIZATIONS.values():
        assert read_expr(expr).traces(11) == closed_walk_traces(parse_expr(expr), 11), label


def _refuse_to_build(monkeypatch):
    def refuse(self, table):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "_set_table", refuse)  # every Graph is made here


def test_tables_build_no_graph(monkeypatch):
    # the registry rows are certified from closed-form traces: no Graph is
    # made, and the vertex cap, which bounds only built graphs, does not apply
    _refuse_to_build(monkeypatch)
    for cap in (None, "1"):
        if cap is not None:
            monkeypatch.setenv("WALKLAB_MAX_VERTICES", cap)
        for fmt, digest in TABLE_DIGESTS.items():
            assert hashlib.sha256(render_tables(40, fmt).encode()).hexdigest() == digest, fmt


# the analyze-families graphs of the bench (the 18 families less K4,4□K4,4)
ANALYZE_FAMILIES = [expr for _, expr in REALIZATIONS.values()
                    if expr != "cart(kbip(4,4),kbip(4,4))"]
ANALYZE_FAMILIES += ["petersen()", "hypercube(6)", "line(hypercube(4))"]


def test_expression_commands_build_no_graph(monkeypatch, capsys):
    # period, analyze and quadrangles read these expressions off their
    # structure and closed-form traces alone
    _refuse_to_build(monkeypatch)
    assert len(ANALYZE_FAMILIES) == 17
    for expr in ANALYZE_FAMILIES + ["hypercube(12)"]:
        for command in ("analyze", "period", "quadrangles"):
            code = main([command, "--expr", expr])
            out, err = capsys.readouterr()
            assert code in (0, 2) and out and not err, (command, expr)
    main(["period", "--expr", "hypercube(12)"])
    assert capsys.readouterr().out == "NOT PERIODIC witness=5/6\n"


def test_certificate_agrees_with_the_spectrum_oracle_on_every_realization():
    # each registry graph against every row of its degree, in all three
    # classes: rows with its own n but another θ included
    for (cls, k, n), (label, expr) in REALIZATIONS.items():
        g = parse_expr(expr)
        traces = closed_walk_traces(g, 11)
        for other in ThetaClass:
            for row in enumerate_rows(other, k):
                own = (other, row.n) == (cls, n)
                assert (realizes(traces, row) == spectrum_realizes(g, row) == own), \
                    (label, other, row.n)


def _row(cls, k, n):
    return next(r for r in enumerate_rows(cls, k) if r.n == n)


def _closed_walk_conditions(g, row):
    """The certificate's three conditions, each computed on its own with
    numpy int64 powers: (n matches, traces match, annihilated)."""
    a = np.array(g.adjacency, dtype=np.int64)
    k2, t = row.k ** 2, row.theta_class.theta_sq(row.k)
    powers = [np.linalg.matrix_power(a, r) for r in range(6)]
    traces = [int(np.trace(p)) for p in powers[:5]]
    want = [row.n, 0, 2 * k2 + 2 * row.a * t, 0, 2 * k2 ** 2 + 2 * row.a * t * t]
    annihilated = not (powers[5] - (k2 + t) * powers[3] + k2 * t * powers[1]).any()
    return g.n == row.n, traces[1:] == want[1:], annihilated


def test_certificate_rejects_an_isolated_vertex_only_by_the_vertex_count():
    # C8 plus an isolated vertex: same traces, annihilated, n = 9
    g = Graph.from_edges(9, cycle(8).edges())
    row = _row(ThetaClass.SQRT2, 2, 8)
    assert _closed_walk_conditions(g, row) == (False, True, True)
    assert not realizes(closed_walk_traces(g, 11), row)
    assert not spectrum_realizes(g, row)


def test_certificate_rejects_two_squares_only_by_the_fourth_moment():
    # C4 + C4 has eigenvalues {±2, 0}, roots of A⁵ - 6A³ + 8A, and the
    # n and tr A² of the C8 row, but tr A⁴ = 64 where the row has 48
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    row = _row(ThetaClass.SQRT2, 2, 8)
    assert _closed_walk_conditions(g, row) == (True, False, True)
    a = np.array(g.adjacency, dtype=np.int64)
    assert np.trace(a @ a) == 16 and np.trace(np.linalg.matrix_power(a, 4)) == 64
    assert not realizes(closed_walk_traces(g, 11), row)
    assert not spectrum_realizes(g, row)


# 24 edges of K6,6 with degrees 3 to 5, found by a seeded random search
# (random.Random(0).sample of 24 of the 36 edges, first hit)
_K66_SUBGRAPH = [(0, 8), (0, 9), (0, 10), (1, 6), (1, 7), (1, 8), (1, 10), (1, 11),
                 (2, 6), (2, 8), (2, 9), (2, 11), (3, 7), (3, 9), (3, 10), (3, 11),
                 (4, 7), (4, 8), (4, 9), (4, 11), (5, 6), (5, 7), (5, 9), (5, 10)]


def test_certificate_rejects_a_k66_subgraph_only_by_the_annihilator():
    # the power sums 0 to 4 match the (half, 4, 12) row, the spectrum does not
    g = Graph.from_edges(12, _K66_SUBGRAPH)
    assert sorted(set(g.degrees())) == [3, 4, 5]
    row = _row(ThetaClass.HALF, 4, 12)
    assert _closed_walk_conditions(g, row) == (True, True, False)
    assert not realizes(closed_walk_traces(g, 11), row)
    assert not spectrum_realizes(g, row)


def test_row_spectrum_equals_the_sorted_spectrum_of_its_pairs():
    rows = all_rows(200)
    assert len(rows) == 8843
    for row in rows:
        theta = row.theta_class.theta(row.k)
        pairs = [(QuadraticNumber(row.k), 1), (QuadraticNumber(-row.k), 1),
                 (theta, row.a), (-theta, row.a), (QuadraticNumber(0), row.b)]
        assert row.spectrum() == Spectrum.from_pairs(pairs), (row.theta_class, row.k, row.n)
        # the text table writes the spectrum column from the row's ints
        column = render_rows([row], "text").split(" | ")[2]
        assert column == row.spectrum().render(), (row.theta_class, row.k, row.n)


def test_realization_graphs_are_periodic():
    for (cls, k, n), (label, expr) in REALIZATIONS.items():
        g = parse_expr(expr)
        verdict = decide_periodic(g)
        assert isinstance(verdict, Periodic), label
        assert verdict.period == (12 if cls is ThetaClass.HALF else 8), label


# ---------------------------------------------------------------------------
# four-eigenvalue classification


def test_classification_is_c6_only():
    rows = classify_four_eigenvalue(100)
    assert len(rows) == 1
    k, n, spec = rows[0]
    assert (k, n) == (2, 6)
    assert spec.render() == "{[±2]^1, [±1]^2}"


def test_classification_independent_of_kmax():
    expected = classify_four_eigenvalue(2)
    for k_max in (4, 10, 60):
        assert classify_four_eigenvalue(k_max) == expected


def test_classification_window():
    # half class with k = 4 fails k > theta^2 (4 is not above 4)
    assert not any(k == 4 for k, _, _ in classify_four_eigenvalue(10))
    # surd classes never qualify: k > theta^2 would force k < 2
    for k, n, spec in classify_four_eigenvalue(40):
        theta = [v for v in spec.values() if v.sign() > 0][-1]
        assert theta.is_rational


# ---------------------------------------------------------------------------
# rendering


def _dict_writer_csv(records):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


def test_render_tables_csv_roundtrip():
    text = render_tables(40, "csv")
    assert _dict_writer_csv(read_tables_csv(text)) == text


def test_writers_equal_the_standard_library_writers(capsys):
    # each record built from the exact objects, written by json.dumps and
    # csv.DictWriter, for all 8 843 rows up to k = 200
    rows = all_rows(200)
    records = [dict(zip(CSV_FIELDS, (
        row.theta_class.value, str(row.k), str(row.n), str(row.a), str(row.b),
        str(row.q), str(row.q_x), row.status, row_comment(row), row_existence(row))))
        for row in rows]
    assert render_rows(rows, "json") == json.dumps(records, indent=2, ensure_ascii=False) + "\n"
    assert render_rows(rows, "csv") == _dict_writer_csv(records)
    # a degree with no rows
    for fmt, empty in (("json", "[]\n"), ("csv", ",".join(CSV_FIELDS) + "\n"), ("text", "")):
        assert main(["enumerate", "--class", "sqrt3", "--k", "2", "--format", fmt]) == 0
        assert capsys.readouterr().out == empty, fmt


def test_render_tables_text_layout():
    text = render_tables(4, "text")
    lines = [l for l in text.splitlines() if l]
    assert lines[0] == "theta-class half"
    first = next(l for l in lines if l.startswith("4 | 12"))
    assert "C6⊗J2" in first
    assert "theta-class sqrt2" in lines
    assert any(l.startswith("2 | 8") and "C8" in l for l in lines)


def test_render_tables_json_exact_strings():
    rows = json.loads(render_tables(10, "json"))
    rec = next(r for r in rows
               if r["class"] == "sqrt3" and r["k"] == "10" and r["n"] == "200")
    assert rec["q"] == "14625" and rec["q_x"] == "585/2"
    assert rec["status"] == "eliminated"


def test_render_tables_deterministic():
    assert render_tables(8, "csv") == render_tables(8, "csv")


# sha256 of render_tables(40, fmt): the bytes the bench's tables workload
# prints, pinned so that a change to the tables is a deliberate one
TABLE_DIGESTS = {
    "text": "4c2632e57263da56b14c89a1311970d134daba2dc6680c2423011cc1fc075485",
    "csv": "747a82e2aab3b7f8f0381503d070192e8b5dee6461c41d6768f76dffd8eb718d",
    "json": "90025893fc732a5dee5a75896ec2cbc112f200095d850fc38d54694c81cfa685",
}


@pytest.mark.parametrize("fmt", list(TABLE_DIGESTS))
def test_tables_at_kmax_40_are_byte_identical(fmt):
    digest = hashlib.sha256(render_tables(40, fmt).encode()).hexdigest()
    assert digest == TABLE_DIGESTS[fmt]
