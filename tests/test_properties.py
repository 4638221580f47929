"""Property tests on seeded random 3- and 4-regular graphs with at most
16 vertices: the exact pipeline does not depend on the vertex labels, and
both file formats round-trip.  On seeded random regular graphs with up
to 20 vertices and their complements, some of them past the int64
bound, and on blow-ups of random regular graphs by J_2 and J_3, the
moment route's charpoly equals the CRT and Bareiss charpolys, its m_A,
certified by t_n or by t_(2n+1), equals p / gcd(p, p'), the spectrum
read off a certified m_A and its traces equals the roots of p and the
verdict from it the p_2T sieve, every candidate
recurrence c it offers has a trace form F(c) that is 0 mod q, and the
closed-walk counts at each vertex are the diagonals of the matrix
powers; on those of degree at most 5, `analyze` reports the Hoffman
identity that the oracle finds.  On random builder expressions with at
most 200 vertices, the closed-form traces equal those of the built
graph; on random ones, valid or not, with at most 120 vertices, the
closed-form reading gives the built graph's refusal, m_A, factors,
verdict and analyze report, under small vertex caps too.  On random text
of ASCII, Unicode whitespace and non-ASCII digits and letters, the
builder grammar's tokenizer gives the tokens or the refusal of a scan
over the characters.  On random integer matrices with up to
30 rows, the CRT charpoly equals the rational Hessenberg oracle and the
Bareiss interpolation route, and its coefficients lie within the CRT
bound.
The breadth-first 2-colouring gives the same connectivity and parts as
a per-vertex search, and the same components and colours as the former
level-by-level numpy search, on seeded random regular graphs, on
bipartite graphs with several components, on isolated vertices, on
disjoint edges and on a long cycle.  The graph6 reader gives the
neighbour table of the former dense decode on random graphs of any
degrees, with or without the header, and the same error text on lines
near graph6 with a character changed, cut or added.
Division by a monic integer divisor is division over Q in Python ints, and
deflation by it is repeated division.  The
integer matrix product, and the product of a 0/1 matrix by row gathers,
agree with the triple loop on both sides of the int64 bound, and the
O(s) symmetry test of a spectrum agrees with the multiset definition.
No product of monic integer linear and quadratic factors fails the mod-2
test of `walk._splits_mod_2`, and `Poly.__str__` prints int and Fraction
coefficients as the Fraction reference does.  The Hessenberg reduction
over F_2 gives p_A mod 2 on random regular graphs, bipartite doubles,
products, and irregular, padded and disconnected tables, K1 and K2
included; on random regular graphs and blow-ups the verdict and its
coefficient are those of the Fraction oracle.
On random graphs with at most 7 vertices (K1, edgeless, complete,
regular or of any degrees), tensorj, cart, kron, bdouble and line build
the neighbour tables of their former dense np.kron forms.  The csv and
json writers of the feasibility rows write random free text in the
comment and realization columns as csv.writer and json.dumps do."""

import contextlib
import csv
import io
import itertools
import json
import math
import random
import string
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from walklab import feasibility
from walklab.cli import main
from walklab.exact import (
    Poly,
    QuadraticNumber,
    Spectrum,
    _BerlekampMassey,
    _factors,
    _trace_form,
    adjacency_times,
    charpoly_mod_2,
    min_poly_factors,
    moment_route,
    neighbour_table,
    table_matrix,
)
from walklab.expressions import ExprError, _tokenize, parse_expr, read_expr
from walklab.feasibility import CSV_FIELDS, ReferenceRow, all_rows, render_rows
from walklab.graphio import GRAPH6_HEADER, from_edge_list, from_graph6, to_edge_list, to_graph6
from walklab.graphs import (
    Graph,
    GraphError,
    bipartite_double,
    cartesian_product,
    closed_walks,
    colouring,
    complete_graph,
    cycle,
    is_bipartite,
    is_connected,
    kronecker_product,
    line_graph,
    tensor_allones,
)
from walklab.oracles import (
    _charpoly_coeff_bound,
    charpoly,
    closed_walk_traces,
    extract_spectrum,
    hoffman_check,
    int_mat_power,
    int_matmul,
    min_poly_route,
    radical,
)
from walklab.walk import NotPeriodic, _splits_mod_2, decide_periodic

from oracles import (
    build_as_read,
    cartesian_product_dense,
    charpoly_bareiss,
    colouring_by_levels,
    colouring_by_search,
    decide_periodic_by_fractions,
    graph6_matrix,
    graph6_of_matrix,
    hessenberg_charpoly,
    kronecker_product_dense,
    line_graph_dense,
    matmul_reference,
    mod_2_bits,
    poly_str_by_fractions,
    random_regular,
    tensor_allones_dense,
    tokenize_by_scan,
)

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None)


@st.composite
def regular_graphs(draw):
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(min_value=k + 1, max_value=16).filter(lambda n: n * k % 2 == 0))
    return random_regular(n, k, random.Random(draw(st.integers(0, 2 ** 32 - 1))))


@st.composite
def relabelled_pairs(draw):
    g = draw(regular_graphs())
    perm = draw(st.permutations(range(g.n)))
    return g, Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@seed(20261017)
@PROPERTY_SETTINGS
@given(relabelled_pairs())
def test_relabelling_leaves_charpoly_and_decision_unchanged(pair):
    g, h = pair
    assert h.charpoly == g.charpoly
    # frozen dataclasses: verdict, period and orders (or witness and residual)
    assert decide_periodic(h) == decide_periodic(g)


@seed(20261018)
@PROPERTY_SETTINGS
@given(regular_graphs())
def test_graph6_and_edge_list_round_trip(g):
    assert to_graph6(g) == graph6_of_matrix(g.adjacency)
    assert from_graph6(to_graph6(g)).adjacency.tolist() == g.adjacency.tolist()
    assert from_edge_list(to_edge_list(g)).adjacency.tolist() == g.adjacency.tolist()


def _complement(g):
    return Graph.from_edges(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                                  if not g.adjacency[u][v]])


@st.composite
def low_degree_regular_graphs(draw):
    """Seeded random 3-, 4- and 5-regular graphs on up to 20 vertices
    (connected, as random_regular draws them)."""
    k = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(min_value=k + 1, max_value=20).filter(lambda n: n * k % 2 == 0))
    return random_regular(n, k, random.Random(draw(st.integers(0, 2 ** 32 - 1))))


@st.composite
def regular_graphs_and_complements(draw):
    """low_degree_regular_graphs, or their complements, whose larger
    degree takes traces past 2^62."""
    g = draw(low_degree_regular_graphs())
    return _complement(g) if draw(st.booleans()) and g.n > g.degree(0) + 1 else g


@st.composite
def blow_ups(draw):
    """A seeded random 3-, 4- or 5-regular graph on b <= 12 vertices
    tensored with J_m, m = 2 or 3.  A (x) J_m has the eigenvalues
    m lambda and 0 only, so deg m_A <= b + 1: for m = 3 (n = 3b) the
    route certifies m_A by t_n and builds p_A from it."""
    k = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(min_value=k + 1, max_value=12).filter(lambda n: n * k % 2 == 0))
    base = random_regular(n, k, random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    return tensor_allones(base, draw(st.sampled_from([2, 3])))


@seed(20261024)
@PROPERTY_SETTINGS
@given(st.one_of(regular_graphs_and_complements(), blow_ups()))
@example(_complement(Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])))  # s = 3
@example(random_regular(20, 3, random.Random(1)))
# s = 11 and 30 * 9^22 > 2^62: t_22 is a residue, so Horner certifies m_A
@example(tensor_allones(random_regular(10, 3, random.Random(1)), 3))
def test_moment_route_matches_the_crt_and_bareiss(g):
    adj = g.adjacency.tolist()
    p = charpoly(adj)
    assert p == charpoly_bareiss(adj)
    moments = moment_route(g.neighbour_table)
    assert moments.charpoly == p
    m = radical(p)
    if moments.min_poly is not None:
        assert moments.min_poly == m
    assert min_poly_route(g.neighbour_table) == m
    assert g.min_poly == m


@seed(20261031)
@PROPERTY_SETTINGS
@given(st.one_of(regular_graphs_and_complements(), blow_ups()))
@example(tensor_allones(cycle(7), 3))  # m_A has the cubic factor of 2cos(2pi/7): p_A path
@example(tensor_allones(cycle(9), 2))  # period 36, also on the p_A path
@example(tensor_allones(cycle(8), 3))  # the conjugate pairs ±3√2
@example(complete_graph(7))  # the witness -1/6
def test_the_spectrum_and_verdict_from_m_a_equal_those_from_p_a(g):
    # the spectrum from a certified m_A and its traces equals the roots of
    # p_A, and Kronecker on it equals the p_2T sieve of the Fraction oracle
    reference = extract_spectrum(g.charpoly)
    assert g.spectrum == reference
    moments = g._moments
    if moments.min_poly is not None and isinstance(reference, Spectrum):
        expected = min_poly_factors(moments.min_poly, moments.traces), Poly.one()
    else:
        expected = _factors(g.charpoly)
    assert g.factors == expected
    if is_connected(g):
        assert decide_periodic(g) == decide_periodic_by_fractions(g)


def test_the_m_a_path_on_its_pinned_graphs():
    for g, route, verdict in (
            (tensor_allones(cycle(7), 3), False, "PERIODIC period=28 orders={1,2,4,7}"),
            (tensor_allones(cycle(9), 2), False, "PERIODIC period=36 orders={1,2,3,4,9}"),
            (tensor_allones(cycle(8), 3), True, "PERIODIC period=8 orders={1,2,4,8}"),
            (complete_graph(7), True, "NOT PERIODIC witness=-1/6")):
        assert g._moments.min_poly is not None
        # the factors of a resolved m_A read no charpoly
        g.factors
        assert ("charpoly" not in g.__dict__) is route
        assert decide_periodic(g).render() == verdict


@seed(20261030)
@PROPERTY_SETTINGS
@given(st.one_of(low_degree_regular_graphs(), blow_ups()))
# 30 * 9^r > 2^62 from r = 19: the later traces reach the route as residues
@example(tensor_allones(random_regular(10, 3, random.Random(1)), 3))
def test_every_route_candidate_has_a_trace_form_of_zero_mod_q(g):
    # Berlekamp-Massey offers c of degree L once 2L < N, N the traces it
    # has: c generates them mod q, sum_i c_i t_(m+i) = 0 for m <= N-1-L,
    # and m <= L is in that range, so each inner sum of F(c) = sum_m c_m
    # sum_i c_i t_(m+i) is 0 mod q.  Only F(c) over Z can reject c
    real, candidates = _BerlekampMassey.candidate, []

    def recording(self):
        c = real(self)
        if c is not None:
            candidates.append((c, list(self.terms), self.q))
        return c

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_BerlekampMassey, "candidate", recording)
        moment_route(g.neighbour_table)
        min_poly_route(g.neighbour_table)
    assert candidates
    assert all(_trace_form(c, traces, q) % q == 0 for c, traces, q in candidates)


@seed(20261028)
@PROPERTY_SETTINGS
@given(regular_graphs_and_complements())
@example(_complement(random_regular(20, 3, random.Random(1))))  # 20 * 16^r > 2^62 from r = 15
def test_closed_walks_are_the_diagonals_of_the_matrix_powers(g):
    # up to r = 16, where n delta^r passes 2^62 for the larger complements
    adj = g.adjacency.tolist()
    for r, w in zip(range(2, 17), closed_walks(g)):
        power = int_mat_power(adj, r)
        assert w.tolist() == [power[x][x] for x in range(g.n)], r


# (text, vertices, edges) of the families the grammar names, up to 512 vertices
_FAMILIES = ([(f"complete({c})", c, c * (c - 1) // 2) for c in range(1, 13)]
             + [(f"cycle({c})", c, c) for c in range(3, 41)]
             + [(f"kbip({p},{q})", p + q, p * q) for p in range(1, 9) for q in range(p, 9)]
             + [(f"hamming({d},{q})", q ** d, q ** d * d * (q - 1) // 2)
                for d in range(1, 4) for q in range(2, 6)]
             + [("petersen()", 10, 15)])


# leaves and factors that their constructors refuse
_REFUSED = ["cycle(0)", "cycle(2)", "complete(0)", "kbip(0,3)", "kbip(2,0)", "hamming(0,3)",
            "hamming(2,1)", "line(complete(1))", "tensorj(cycle(5),0)"]


@st.composite
def _expression_parts(draw, budget, depth, invalid):
    """(text, n, bound) for `expressions`: n None where it is not known
    without building the graph, and bound >= n."""
    ops = ["family", "line"] + (["tensorj", "kron", "cart", "bdouble"] if depth and budget >= 2
                                else [])
    op = draw(st.sampled_from(ops))
    if op == "family":
        if invalid and draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(_REFUSED)), None, 1
        text, n, _ = draw(st.sampled_from([f for f in _FAMILIES if f[1] <= budget]))
        return text, n, n
    if op == "line":
        if depth and budget >= 3 and draw(st.booleans()):
            # over any node of b vertices: at most b(b - 1)/2 edges
            text, _, bound = draw(_expression_parts(math.isqrt(2 * budget), depth - 1, invalid))
            return f"line({text})", None, max(1, bound * (bound - 1) // 2)
        text, _, edges = draw(st.sampled_from([f for f in _FAMILIES if 1 <= f[2] <= budget]))
        return f"line({text})", edges, edges
    if op == "tensorj":
        m = draw(st.integers(0 if invalid else 1, min(4, budget)))
        text, n, bound = draw(_expression_parts(budget // max(m, 1), depth - 1, invalid))
        return f"tensorj({text},{m})", None if n is None or not m else n * m, bound * max(m, 1)
    if op == "bdouble":
        text, n, bound = draw(_expression_parts(budget // 2, depth - 1, invalid))
        return f"bdouble({text})", None if n is None else 2 * n, 2 * bound
    left, n, bound = draw(_expression_parts(budget // 2, depth - 1, invalid))
    right, p, other = draw(_expression_parts(budget // bound, depth - 1, invalid))
    return f"{op}({left},{right})", None if None in (n, p) else n * p, bound * other


def expressions(budget=200, depth=3, invalid=False):
    """A builder expression with at most `budget` vertices, as (text, n),
    n None where it is not known without building the graph: tensorj,
    kron, cart and bdouble nested up to `depth` deep over the families,
    and line over the families and over any node.  With `invalid`, some
    leaves and blow-up factors are ones their constructors refuse."""
    return _expression_parts(budget, depth, invalid).map(lambda parts: parts[:2])


@seed(20261032)
@PROPERTY_SETTINGS
@given(expressions())
@example(("kron(cycle(5),complete(2))", 10))
@example(("cart(cycle(9),complete(5))", 45))
@example(("tensorj(tensorj(cycle(6),2),3)", 36))
@example(("bdouble(petersen())", 20))
@example(("line(kron(kbip(1,2),cycle(3)))", None))  # a line over an irregular node
def test_expression_traces_equal_those_of_the_built_graph(drawn):
    text, n = drawn
    g = parse_expr(text)
    assert n in (None, g.n) and g.n <= 200
    assert read_expr(text).traces(11) == closed_walk_traces(g, 11)


def _read(read, text):
    """What reading text gives: the graph, or its refusal's type and text."""
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _verdict(g):
    try:
        return decide_periodic(g)
    except ValueError as exc:
        return type(exc), str(exc)


def _analyze(*source):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", *source]) == 0
    return out.getvalue()


@seed(20261101)
@settings(max_examples=100, deadline=None, database=None)
@given(expressions(budget=120, invalid=True), st.sampled_from([None, None, "1", "9", "40"]))
@example(("line(kron(kbip(1,2),cycle(3)))", None), None)  # a line built over an irregular node
@example(("bdouble(cycle(4))", 8), None)  # two components
@example(("kron(kbip(1,2),complete(1))", 3), None)  # regular with no edges
@example(("tensorj(cycle(7),3)", 21), None)  # a cubic factor: p_A from the traces
@example(("line(hypercube(3))", 12), "9")
def test_an_expression_reads_as_the_graph_it_builds(drawn, cap):
    # the closed-form reading against the graph built as it is read: the
    # same refusal (under a small vertex cap too), m_A, factor list,
    # verdict and analyze report
    text, _ = drawn
    with pytest.MonkeyPatch.context() as patch:
        if cap is None:
            patch.delenv("WALKLAB_MAX_VERTICES", raising=False)
        else:
            patch.setenv("WALKLAB_MAX_VERTICES", cap)
        built, closed = _read(build_as_read, text), _read(read_expr, text)
        if not isinstance(built, Graph):
            assert closed == built
            return
        assert (closed.n, closed.edge_count, closed.regularity) == \
            (built.n, built.edge_count, built.regularity)
        assert closed.min_poly == built.min_poly
        assert closed.factors == built.factors
        assert _verdict(closed) == _verdict(built)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.g6"
            path.write_text(to_graph6(built) + "\n", encoding="ascii")
            assert _analyze("--expr", text) == _analyze("--file", str(path))


# the grammar's characters, weighted, then whitespace (ASCII, and beyond
# it what str.isspace accepts), then characters it refuses: ASCII ones, a
# zero-width space, an Arabic-Indic digit, a superscript and a letter
_TOKEN_TEXT = st.text(st.sampled_from(
    (string.ascii_letters + string.digits + "(),") * 3 + "_" + " \t\n\r\x0b\x0c"
    + "\x1c\x85\xa0\u2003\u2028\u3000" + "$.+-\u200b\u0664\u00b2\u00e9"), max_size=40)


def _tokens(tokenize, text):
    try:
        return tokenize(text)
    except ExprError as exc:
        return str(exc)


@seed(20261106)
@settings(max_examples=500, deadline=None, database=None)
@given(_TOKEN_TEXT)
@example("cycle(\u3000 6 )")
@example("tensorj( cycle(06),x_1)\x85")
@example("cycl\u00e9(3)")
def test_the_tokenizer_splits_text_as_the_character_scan_does(text):
    assert _tokens(_tokenize, text) == _tokens(tokenize_by_scan, text)


@seed(20261027)
@PROPERTY_SETTINGS
@given(low_degree_regular_graphs())
def test_analyze_reports_the_hoffman_identity_that_the_oracle_finds(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.g6"
        path.write_text(to_graph6(g) + "\n", encoding="ascii")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", "--file", str(path), "--format", "json"]) == 0
    assert json.loads(out.getvalue())["hoffman"] is hoffman_check(g) is True


@st.composite
def colouring_cases(draw):
    """A low_degree_regular_graphs graph; the bipartite double of its
    bipartite double, a bipartite graph with at least two components;
    or 1 to 12 isolated vertices."""
    kind = draw(st.sampled_from(["random", "double", "isolated"]))
    if kind == "isolated":
        return tensor_allones(complete_graph(1), draw(st.integers(1, 12)))
    g = draw(low_degree_regular_graphs())
    return g if kind == "random" else bipartite_double(bipartite_double(g))


@seed(20261029)
@PROPERTY_SETTINGS
@given(colouring_cases())
@example(bipartite_double(cycle(4)))
@example(cycle(5))
# many components, and a long diameter: each step of the search costs its
# frontier's rows, not n
@example(tensor_allones(complete_graph(1), 1024))
@example(Graph.from_edges(1024, [(2 * i, 2 * i + 1) for i in range(512)]))
@example(cycle(1024))
def test_the_breadth_first_colouring_matches_the_search_oracle(g):
    assert (is_connected(g), is_bipartite(g)) == colouring_by_search(g)
    # and the former numpy search, level by level, colour for colour
    components, colour = colouring(g)
    expected_components, expected = colouring_by_levels(g)
    assert components == expected_components
    assert colour.dtype == np.int8 and colour.tolist() == expected.tolist()


@st.composite
def graph6_lines(draw):
    """The graph6 line of a random simple graph on 1 to 70 vertices, its
    edges drawn with one of five densities (isolated vertices and rows
    of every length occur), with the header or without; past 62
    vertices the size takes four characters."""
    n = draw(st.integers(1, 70))
    density = draw(st.sampled_from([0, 0.05, 0.3, 0.7, 1]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    a = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        a[i][j] = a[j][i] = int(rng.random() < density)
    return draw(st.sampled_from(["", GRAPH6_HEADER])) + graph6_of_matrix(a)


@seed(20261031)
@settings(max_examples=100, deadline=None, database=None)
@given(graph6_lines())
@example("@")  # n = 1
@example("A?")  # n = 2, no edge
@example(GRAPH6_HEADER + "A_")  # n = 2, one edge
@example("Dxw")  # n = 5: a 4-cycle and an isolated vertex
def test_the_graph6_reader_gives_the_table_of_the_dense_decode(line):
    g = from_graph6(line)
    assert g.neighbour_table.tolist() == neighbour_table(graph6_matrix(line)).tolist()
    assert to_graph6(g) == line.removeprefix(GRAPH6_HEADER)


def _read_or_refuse(read, line):
    try:
        return read(line)
    except GraphError as exc:
        return str(exc)


@st.composite
def near_graph6_lines(draw):
    """A `graph6_lines` line with one character replaced, cut or added,
    from '?'..'~' and from outside it, or cut short."""
    line = draw(graph6_lines())
    at = draw(st.integers(0, len(line)))
    ch = draw(st.sampled_from("?@A_}~>0 é\x7f"))
    edit = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
    if edit == "replace":
        return line[:at] + ch + line[at + 1:]
    if edit == "insert":
        return line[:at] + ch + line[at:]
    if edit == "delete":
        return line[:at] + line[at + 1:]
    return line[:at]


@seed(20261101)
@settings(max_examples=300, deadline=None, database=None)
@given(near_graph6_lines())
@example("")
@example("~")  # truncated size
@example("~~??")
@example("?")  # no vertices
@example("A`")  # nonzero padding bits
def test_the_graph6_reader_refuses_as_the_dense_decode_does(line):
    expected = _read_or_refuse(lambda s: neighbour_table(graph6_matrix(s)).tolist(), line)
    assert _read_or_refuse(lambda s: from_graph6(s).neighbour_table.tolist(), line) == expected


@st.composite
def integer_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@seed(20261019)
@PROPERTY_SETTINGS
@given(integer_matrices())
def test_charpoly_matches_hessenberg_and_bareiss(m):
    p = charpoly(m)
    assert p.degree() == len(m) and p.is_monic() and p.is_integral()
    assert p == hessenberg_charpoly(m)
    assert p == charpoly_bareiss(m)


@st.composite
def monic_divisions(draw):
    """(dividend, monic divisor) as integer lists, constant term first: a
    multiple of the divisor plus a remainder that is zero about half the
    time, with up to two trailing zeros on the dividend."""
    coeff = st.integers(-50, 50)
    den = draw(st.lists(coeff, max_size=4)) + [1]
    quot = draw(st.lists(coeff, max_size=10))
    rem = draw(st.lists(coeff, max_size=len(den) - 1)) if draw(st.booleans()) else []
    num = list((Poly(quot) * Poly(den) + Poly(rem)).coeffs)
    return num + [0] * draw(st.integers(0, 2)), den


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(monic_divisions())
def test_integer_monic_division_matches_division_over_q(case):
    num, den = case
    quot, rem = divmod(Poly(num), Poly(den))
    assert all(type(c) is int for c in quot.coeffs + rem.coeffs)
    assert quot * Poly(den) + rem == Poly(num)
    assert rem.degree() < Poly(den).degree()


@st.composite
def deflations(draw):
    """(p, f): p a product of random monic integer factors, each to a power
    from 0 to 3, and a cofactor with a nonzero leading coefficient; f one of
    the factors or a random monic polynomial, which may not divide p."""
    coeff = st.integers(-9, 9)
    monic = st.lists(coeff, min_size=1, max_size=3).map(lambda cs: Poly(cs + [1]))
    factors = draw(st.lists(st.tuples(monic, st.integers(0, 3)), min_size=1, max_size=3))
    p = Poly(draw(st.lists(coeff, max_size=3)) + [draw(st.integers(1, 4))])
    for f, m in factors:
        p = p * f ** m
    return p, draw(st.one_of(st.sampled_from([f for f, _ in factors]), monic))


@seed(20261026)
@settings(max_examples=300, deadline=None, database=None)
@given(deflations())
def test_deflate_matches_repeated_division(case):
    p, f = case
    expected, mult = p, 0
    quot, rem = divmod(expected, f)
    while not rem:
        expected, mult = quot, mult + 1
        quot, rem = divmod(expected, f)
    q, m = p.deflate(f)
    assert (q, m) == (expected, mult)
    assert all(type(c) is int for c in q.coeffs)
    assert f ** m * q == p


@st.composite
def small_integer_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@seed(20261021)
@PROPERTY_SETTINGS
@given(small_integer_matrices())
@example([[5]])  # 1 x 1: |c_0| equals the bound
@example([[1, 1], [1, -1]])  # a Hadamard matrix: |det| equals the bound
@example([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
@example([[0, 0], [0, 0]])
def test_charpoly_coefficients_lie_within_the_crt_bound(m):
    # |c_(n-i)| <= C(n,i) (F/n)^(i/2), squared to stay in the integers,
    # on the Bareiss oracle; the bound the CRT uses lies strictly above
    n = len(m)
    fro = sum(x * x for row in m for x in row)
    coeffs = charpoly_bareiss(m).coeffs
    for i in range(n + 1):
        assert coeffs[n - i] ** 2 * n ** i <= math.comb(n, i) ** 2 * fro ** i, i
    assert max(abs(c) for c in coeffs) < _charpoly_coeff_bound(m)


# magnitudes on both sides of the int64-safe bound p * max|a| * max|b| < 2^62
# (the exact boundary for p = 1, 2, 4 included), at the edge of int64 and
# above 2^63
_MAGNITUDES = [0, 1, 2, 3, 2 ** 29, 2 ** 30 - 1, 2 ** 30, 2 ** 30 + 1, 2 ** 31 - 1, 2 ** 31,
               2 ** 31 + 1, 2 ** 32, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 3 ** 50]


@st.composite
def matmul_operands(draw):
    rows, inner = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4)) if inner else 0
    entry = st.one_of(st.integers(-3, 3), st.builds(
        lambda mag, sign: sign * mag, st.sampled_from(_MAGNITUDES), st.sampled_from([1, -1])))
    a = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return a, b


@seed(20261022)
@settings(max_examples=300, deadline=None, database=None)
@given(matmul_operands())
@example(([], []))
@example(([[], []], []))
@example(([[0, 0]], [[0, 0], [0, 0]]))
@example(([[2 ** 31]], [[2 ** 31]]))  # 2^62 exactly: the object path
@example(([[2 ** 31 - 1]], [[2 ** 31]]))  # just below: the int64 path
@example(([[2 ** 31, 2 ** 31]], [[2 ** 31], [2 ** 31]]))  # the sum overflows int64
@example(([[-2 ** 63, 1]], [[-1], [2 ** 63]]))
def test_int_matmul_matches_the_triple_loop(operands):
    a, b = operands
    assert int_matmul(a, b) == matmul_reference(a, b)
    assert int_matmul(np.array(a, dtype=object), np.array(b, dtype=object)) == \
        matmul_reference(a, b)


@st.composite
def zero_one_times_integer(draw):
    """A square 0/1 matrix (any pattern, empty rows included) and an
    integer matrix, small or past int64."""
    n = draw(st.integers(1, 8))
    a = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n))
    entry = st.integers(-9, 9) | st.integers(-2 ** 70, 2 ** 70)
    p = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return a, p


@seed(20261025)
@settings(max_examples=100, deadline=None, database=None)
@given(zero_one_times_integer())
# unpadded tables (every row full), padded ones and one of width 0, in
# int64 and past it
@example(([[0, 1], [1, 0]], [[2, -3], [5, 7]]))
@example(([[0, 1], [1, 0]], [[2 ** 70, -3], [5, 7]]))
@example(([[0, 1, 1], [1, 0, 0], [1, 0, 0]], [[1, 2, 3], [4, 5, 6], [-7, 8, 9]]))
@example(([[0, 1, 1], [1, 0, 0], [1, 0, 0]], [[1, 2, 3], [4, 5, 6], [-2 ** 70, 8, 9]]))
@example(([[0]], [[2 ** 70]]))
def test_adjacency_times_matches_the_triple_loop(case):
    a, p = case
    table = neighbour_table(np.array(a, dtype=np.int64))
    assert table_matrix(table).tolist() == a
    dtypes = [object] + ([np.int64] if all(abs(x) <= 9 for row in p for x in row) else [])
    for dtype in dtypes:
        operand = np.array(p, dtype=dtype)
        product = adjacency_times(table, operand)
        assert product.dtype == dtype and product.tolist() == matmul_reference(a, p)
        assert operand.tolist() == p  # the gathers add into their own output


_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_VALUES = st.builds(lambda a, b, m: QuadraticNumber(a, b if m else 0, m),
                    _FRACTIONS, _FRACTIONS, st.sampled_from([None, 2, 3, 5]))


@st.composite
def spectra(draw):
    """from_pairs spectra; about half mirror some of their pairs, with
    the same or a changed multiplicity, so both answers occur."""
    pairs = draw(st.lists(st.tuples(_VALUES, st.integers(1, 3)), max_size=6))
    if draw(st.booleans()):
        pairs += [(-v, m + draw(st.sampled_from([0, 0, 0, 1]))) for v, m in pairs]
    return Spectrum.from_pairs(pairs)


@seed(20261023)
@settings(max_examples=300, deadline=None, database=None)
@given(spectra())
def test_is_symmetric_matches_the_multiset_definition(spec):
    mults = dict(spec.entries)
    assert spec.is_symmetric() == (mults == {-v: m for v, m in spec.entries})


@st.composite
def split_products(draw):
    """Products of monic integer factors x - r and x^2 + bx + c with real
    roots, some repeated, of degree at most 16."""
    p = Poly.one()
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            f = Poly((-draw(st.integers(-6, 6)), 1))
        else:
            b = draw(st.integers(-6, 6))
            f = Poly((draw(st.integers(-12, b * b // 4)), b, 1))
        m = draw(st.integers(1, 4))
        if p.degree() + m * f.degree() <= 16:
            p = p * f ** m
    return p


@seed(20261102)
@settings(max_examples=300, deadline=None, database=None)
@given(split_products())
@example(Poly((-1, 1, 1)) ** 3 * Poly((0, 1)) ** 2)  # x^2 + x - 1 is x^2 + x + 1 mod 2
@example(Poly((-3, 1)) * Poly((5, 1)))  # (x + 1)^2 mod 2
@example(Poly((-1, 1, 1)) ** 8)
def test_a_product_of_linear_and_quadratic_factors_is_never_certified(p):
    # mod 2 each factor is x, x + 1, x^2, x^2 + 1 = (x + 1)^2, x^2 + x or
    # x^2 + x + 1; the factor search splits the product, leaving residual 1
    assert _splits_mod_2(mod_2_bits(p))
    assert p.degree() < 1 or _factors(p)[1] == Poly.one()


_COEFFS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10 ** 30, 10 ** 30),
                    st.fractions(max_denominator=10 ** 20))


@seed(20261103)
@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(_COEFFS, max_size=8))
@example([Fraction(-1, 2), 1, Fraction(1, 4096), -1, 0, Fraction(-3, 7)])
def test_poly_str_equals_the_fraction_reference(coeffs):
    p = Poly(coeffs)
    assert str(p) == poly_str_by_fractions(p)


@st.composite
def small_graphs(draw):
    """K1, an edgeless or complete graph, a random 2- or 3-regular graph,
    or a random graph of any degrees, on at most 7 vertices."""
    kind = draw(st.sampled_from(["K1", "edgeless", "complete", "regular", "any"]))
    if kind == "K1":
        return complete_graph(1)
    n = draw(st.integers(2, 7))
    if kind == "edgeless":
        return Graph(np.zeros((n, n), dtype=np.int64))
    if kind == "complete":
        return complete_graph(n)
    if kind == "regular" and n > 3:
        k = 2 if n % 2 else draw(st.sampled_from([2, 3]))
        return random_regular(n, k, random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


def _table_or_error(build, *args):
    try:
        table = build(*args).neighbour_table
    except GraphError as exc:
        return str(exc)
    assert table.dtype == np.int64 and not table.flags.writeable
    return table.tolist()


@seed(20261104)
@settings(max_examples=300, deadline=None, database=None)
@given(small_graphs(), small_graphs(), st.integers(1, 3))
def test_products_build_the_tables_of_their_dense_forms(g, h, m):
    # each product reads its table off its operands' tables, padded where
    # an operand is irregular; np.kron of the adjacencies is the reference
    for build, dense, args in ((tensor_allones, tensor_allones_dense, (g, m)),
                               (cartesian_product, cartesian_product_dense, (g, h)),
                               (kronecker_product, kronecker_product_dense, (g, h)),
                               (line_graph, line_graph_dense, (g,))):
        assert _table_or_error(build, *args) == _table_or_error(dense, *args), build.__name__
    assert (bipartite_double(g).neighbour_table.tolist()
            == kronecker_product_dense(g, complete_graph(2)).neighbour_table.tolist())


# free text for the comment and realization columns: the characters csv
# and json treat specially, control characters, non-ASCII text and ""
_FREE_TEXT = st.text(st.one_of(st.sampled_from(',"\n\r\\\t\x00\x1f\x7f;é⊗√\u2028 '),
                               st.characters()), max_size=12)
_FEASIBLE_ROWS = [row for row in all_rows(12) if row.feasible]


@seed(20261105)
@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(_FEASIBLE_ROWS), _FREE_TEXT, _FREE_TEXT)
@example(_FEASIBLE_ROWS[0], "", "")
@example(_FEASIBLE_ROWS[0], 'a,"b"\r\nc', "\\x")
def test_free_text_is_written_as_the_standard_library_writers_write_it(row, comment, realization):
    # a reference note on a feasible row is its whole comment; every csv
    # line is the one csv.writer writes for the ten fields, and every json
    # record the one json.dumps writes
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(feasibility.REFERENCE_TABLE, (row.theta_class, row.k, row.n),
                      ReferenceRow(realization, note=comment))
        csv_text, json_text = render_rows([row], "csv"), render_rows([row], "json")
    fields = (row.theta_class.value, str(row.k), str(row.n), str(row.a), str(row.b),
              str(row.q), str(row.q_x), row.status, comment, realization)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([CSV_FIELDS, fields])
    assert csv_text == buf.getvalue()
    assert json_text == json.dumps([dict(zip(CSV_FIELDS, fields))], indent=2,
                                   ensure_ascii=False) + "\n"


@st.composite
def products(draw):
    """The bipartite double of a low_degree_regular_graphs graph, or the
    cartesian or Kronecker product of two small_graphs (padded when one
    is irregular, disconnected when one is, or when both are bipartite)."""
    kind = draw(st.sampled_from(["bdouble", "cart", "kron"]))
    if kind == "bdouble":
        return bipartite_double(draw(low_degree_regular_graphs()))
    product = cartesian_product if kind == "cart" else kronecker_product
    return product(draw(small_graphs()), draw(small_graphs()))


@seed(20261104)
@PROPERTY_SETTINGS
@given(st.one_of(low_degree_regular_graphs(), products(), small_graphs()))
@example(complete_graph(1))
@example(complete_graph(2))
@example(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]))  # a star and an isolated vertex
@example(random_regular(30, 4, random.Random(5)))
def test_the_f2_charpoly_is_the_charpoly_mod_2(g):
    # the Hessenberg reduction over F_2 of the table against p_A of the
    # moment route reduced mod 2, on regular, irregular (padded) and
    # disconnected tables
    assert charpoly_mod_2(g.neighbour_table) == mod_2_bits(g.charpoly)
    assert g.charpoly_mod_2 == mod_2_bits(charpoly(g.adjacency.tolist()))


@seed(20261105)
@PROPERTY_SETTINGS
@given(st.one_of(low_degree_regular_graphs(), blow_ups()))
@example(random_regular(16, 3, random.Random(1)))  # k does not divide 2n
@example(tensor_allones(random_regular(10, 3, random.Random(1)), 3))
def test_the_verdict_and_coefficient_equal_those_of_the_fraction_route(g):
    # the certificate is the non-integral coefficient of p_2T of highest
    # degree, whether p_A mod 2 proved the residual first or not; the
    # oracle reads it off p_2T in Fractions
    expected = decide_periodic_by_fractions(g)
    assert decide_periodic(g) == expected
    if isinstance(expected, NotPeriodic) and expected.witness is None:
        exponent, value = expected.coefficient
        assert decide_periodic(g).render() == f"NOT PERIODIC coefficient=x^{exponent}:{value}"
        if 2 * g.n % g.regularity:
            assert exponent == g.n - 2
