"""Graph constructors, predicates, product spectra laws, and quadrangle
counting (walk bookkeeping against subset enumeration)."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from walklab.exact import QuadraticNumber, Spectrum, neighbour_table
from walklab.expressions import parse_expr
from walklab.graphs import (
    Graph,
    GraphError,
    bipartite_double,
    cartesian_product,
    complete_bipartite,
    closed_walks,
    complete_graph,
    count_quadrangles,
    cycle,
    hamming,
    hypercube,
    is_bipartite,
    is_connected,
    kronecker_product,
    line_graph,
    petersen,
    regularity,
    tensor_allones,
)
from walklab.graphio import from_edge_list, from_graph6, to_edge_list, to_graph6
from walklab.oracles import (arc_space, biadjacency, charpoly, count_quadrangles_brute,
                             extract_spectrum)

from oracles import scaled


def _spectrum(g):
    s = extract_spectrum(charpoly(g.adjacency.tolist()))
    assert isinstance(s, Spectrum)
    return s


def _handshake(g):
    assert sum(g.degrees()) == 2 * g.edge_count
    for i in range(g.n):
        assert g.adjacency[i][i] == 0
        for j in range(g.n):
            assert g.adjacency[i][j] == g.adjacency[j][i]


# ---------------------------------------------------------------------------
# constructors and named spectra


def test_cycle6():
    g = cycle(6)
    assert g.n == 6 and g.edge_count == 6
    assert regularity(g) == 2
    assert is_bipartite(g) is not None
    assert _spectrum(g).render() == "{[±2]^1, [±1]^2}"


def test_cycle_requires_three():
    with pytest.raises(GraphError):
        cycle(2)


def test_odd_cycle_not_bipartite():
    assert is_bipartite(cycle(5)) is None


def test_complete_graph_equals_the_edge_construction():
    for n in range(1, 31):
        by_edges = Graph.from_edges(n, itertools.combinations(range(n), 2))
        assert complete_graph(n).adjacency.tolist() == by_edges.adjacency.tolist(), n


def test_complete_bipartite():
    g = complete_bipartite(3, 3)
    assert g.edge_count == 9 and regularity(g) == 3
    assert _spectrum(g).render() == "{[±3]^1, [0]^4}"
    assert complete_bipartite(1, 1).edge_count == 1


def test_hypercube_and_hamming():
    q3 = hypercube(3)
    assert q3.n == 8 and regularity(q3) == 3
    assert _spectrum(q3).render() == "{[±3]^1, [±1]^3}"
    h42 = hamming(4, 2)
    assert _spectrum(h42).render() == "{[±4]^1, [±2]^4, [0]^6}"
    # one-letter words give a complete graph
    assert hamming(1, 5).adjacency.tolist() == complete_graph(5).adjacency.tolist()


def test_line_graph():
    lq3 = line_graph(hypercube(3))
    assert lq3.n == 12 and regularity(lq3) == 4
    assert _spectrum(lq3).render() == "{[4]^1, [2]^3, [0]^3, [-2]^5}"
    # line graph of a cycle is the same cycle
    for n in (3, 5, 6, 8):
        lg = line_graph(cycle(n))
        assert lg.n == n and regularity(lg) == 2 and is_connected(lg)
        assert _spectrum(lg) == _spectrum(cycle(n))
    # line graph of the claw is a triangle
    tri = line_graph(complete_bipartite(1, 3))
    assert tri.adjacency.tolist() == complete_graph(3).adjacency.tolist()


def test_tensor_allones():
    g = tensor_allones(cycle(6), 2)
    assert g.n == 12 and regularity(g) == 4
    assert _spectrum(g).render() == "{[±4]^1, [±2]^2, [0]^6}"
    assert tensor_allones(cycle(6), 1) is cycle(6) or \
        tensor_allones(cycle(6), 1).adjacency.tolist() == cycle(6).adjacency.tolist()
    g83 = tensor_allones(cycle(8), 3)
    assert g83.n == 24 and regularity(g83) == 6
    assert _spectrum(g83).render() == "{[±6]^1, [±3√2]^2, [0]^18}"


def test_tensor_allones_spectrum_law():
    # Spec(g (x) J_m) = m * Spec(g) plus n(m-1) extra zeros, exactly
    for g in (cycle(4), cycle(6), complete_bipartite(2, 2), complete_bipartite(3, 3),
              hypercube(3), hamming(4, 2)):
        base = _spectrum(g)
        for m in (2, 3):
            blown = _spectrum(tensor_allones(g, m))
            expected = Spectrum.from_pairs(
                list(scaled(base, m).entries) + [(QuadraticNumber(0), g.n * (m - 1))])
            assert blown == expected, (g, m)


def test_bipartite_double_law():
    for g in (cycle(5), petersen(), line_graph(hypercube(3)), complete_graph(4)):
        doubled = _spectrum(bipartite_double(g))
        base = _spectrum(g)
        negated = [(-v, m) for v, m in base.entries]
        assert doubled == Spectrum.from_pairs(list(base.entries) + negated)
        assert is_bipartite(bipartite_double(g)) is not None


def test_constructors_match_networkx():
    # vertex order (g-vertex, h-vertex), and the line graph's vertices are
    # the edges in canonical order
    nx = pytest.importorskip("networkx")

    def matrix(h, key=None):
        return nx.to_numpy_array(h, nodelist=sorted(h, key=key), dtype=np.int64).tolist()

    g, h = cycle(5), cycle(4)
    ng, nh = nx.cycle_graph(5), nx.cycle_graph(4)
    assert cartesian_product(g, h).adjacency.tolist() == matrix(nx.cartesian_product(ng, nh))
    assert kronecker_product(g, h).adjacency.tolist() == matrix(nx.tensor_product(ng, nh))
    for m in (2, 3):
        assert tensor_allones(g, m).adjacency.tolist() == \
            matrix(nx.lexicographic_product(ng, nx.empty_graph(m)))
    for base, nbase in ((g, ng), (h, nh), (complete_graph(4), nx.complete_graph(4))):
        assert line_graph(base).adjacency.tolist() == matrix(nx.line_graph(nbase), key=sorted)


def test_bipartite_double_small_cases():
    # doubling K2 by the defining formula gives two disjoint edges (the
    # double of a bipartite graph is disconnected); doubling K3 gives C6
    doubled = bipartite_double(complete_graph(2))
    assert doubled.adjacency.tolist() == \
        kronecker_product(complete_graph(2), complete_graph(2)).adjacency.tolist()
    assert not is_connected(doubled)
    assert _spectrum(doubled).render() == "{[±1]^2}"
    hexagon = bipartite_double(complete_graph(3))
    assert is_connected(hexagon) and regularity(hexagon) == 2
    assert _spectrum(hexagon) == _spectrum(cycle(6))


def test_cartesian_product_spectrum():
    g = cartesian_product(complete_bipartite(4, 4), complete_bipartite(4, 4))
    assert g.n == 64 and regularity(g) == 8
    assert _spectrum(g).render() == "{[±8]^1, [±4]^12, [0]^38}"


def test_double_of_line_graph():
    g = bipartite_double(line_graph(hypercube(3)))
    assert _spectrum(g).render() == "{[±4]^1, [±2]^8, [0]^6}"


def test_petersen():
    g = petersen()
    assert g.n == 10 and g.edge_count == 15 and regularity(g) == 3
    assert _spectrum(g).render() == "{[3]^1, [1]^5, [-2]^4}"


def test_constructor_invariants():
    for g in (cycle(7), complete_bipartite(2, 5), hamming(2, 3), petersen(),
              tensor_allones(cycle(4), 3), bipartite_double(petersen())):
        _handshake(g)


def test_equal_parts_for_regular_bipartite():
    for g in (cycle(6), cycle(8), complete_bipartite(3, 3), hypercube(3),
              hamming(4, 2), tensor_allones(cycle(6), 2)):
        split = is_bipartite(g)
        if split is not None and regularity(g) and is_connected(g):
            assert len(split.part1) == len(split.part2)


# ---------------------------------------------------------------------------
# predicates and structure


def test_connectivity():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    assert not is_connected(two_triangles)
    assert is_connected(cycle(5))


def test_regularity_absent():
    assert regularity(complete_bipartite(1, 3)) is None


def test_arc_space():
    g = cycle(4)
    space = arc_space(g)
    assert space.size == 2 * g.edge_count
    assert space.arcs == tuple(sorted(space.arcs))
    for a in range(space.size):
        inv = space.inverse_index[a]
        assert inv != a and space.inverse_index[inv] == a
        assert space.arcs[inv][0] == space.arcs[a][1]
        assert space.arcs[inv][1] == space.arcs[a][0]


def test_biadjacency_k22():
    g = complete_bipartite(2, 2)
    split = is_bipartite(g)
    n = biadjacency(g, split)
    assert n.tolist() == [[1, 1], [1, 1]]


def test_biadjacency_cycle6_identity():
    # N N^T = I + J for the 6-cycle (k=2, theta=1, n=6)
    g = cycle(6)
    split = is_bipartite(g)
    n = biadjacency(g, split)
    assert all(sum(row) == 2 for row in n)
    prod = [[sum(n[i][t] * n[j][t] for t in range(3)) for j in range(3)]
            for i in range(3)]
    assert prod == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


def test_biadjacency_bad_split():
    from walklab.graphs import PartiteSplit
    g = cycle(6)
    with pytest.raises(GraphError):
        biadjacency(g, PartiteSplit((0, 1, 2), (3, 4, 5)))


def test_loops_and_duplicates_rejected():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(((0, 1), (0, 0)))  # asymmetric


def test_graph_owns_a_read_only_copy_of_its_input():
    rows = [[0, 1], [1, 0]]
    array = np.array(rows)
    for source in (rows, array):
        g = Graph(source)
        source[0][1] = 0
        assert g.adjacency.tolist() == [[0, 1], [1, 0]]
        assert g.adjacency.dtype == np.int64
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0


@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [1]], "adjacency matrix is not square"),  # ragged
    ([[0, 1, 0], [1, 0, 1]], "adjacency matrix is not square"),
    ([[0, 2], [2, 0]], "adjacency entries must be 0 or 1"),
    ([[1, 1], [1, 0]], "loops are not allowed"),
    ([[0, 1], [0, 0]], "adjacency matrix is not symmetric"),
    ([], "graph has no vertices"),
])
def test_each_single_fault_keeps_its_message(rows, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        Graph(rows)


def test_hamming_is_the_cartesian_power_of_the_complete_graph():
    # vertex order too: the first factor's vertex is the first letter
    for q in range(2, 257):
        d = 1
        while q ** d <= 256:
            power = functools.reduce(cartesian_product, [complete_graph(q)] * d)
            assert (hamming(d, q).adjacency == power.adjacency).all(), (d, q)
            d += 1
    with pytest.raises(GraphError, match=r"at least 10\^100 vertices"):
        hamming(20000, 2)


def test_graph_values_are_python_ints():
    # json.dumps refuses numpy integers, and a Fraction keeps their width
    g = hypercube(3)
    q, per_vertex = count_quadrangles(g)
    values = [g.n, g.edge_count, g.degree(0), *g.degrees(), q, *per_vertex]
    values += [*is_bipartite(g).part1, *is_bipartite(g).part2]
    values += [v for edge in g.edges() for v in edge]
    assert all(type(v) is int for v in values)


def test_vertex_cap(monkeypatch):
    monkeypatch.setenv("WALKLAB_MAX_VERTICES", "5")
    with pytest.raises(GraphError):
        cycle(6)
    monkeypatch.setenv("WALKLAB_MAX_VERTICES", "6")
    assert cycle(6).n == 6


# about 3000 vertices: (operands, built under the default cap; constructor)
_OVER_CAP = {
    "from_edges": (lambda: (3000, []), Graph.from_edges),
    "edge list": (lambda: ("3000 0\n",), from_edge_list),
    "cycle": (lambda: (3000,), cycle),
    "complete": (lambda: (3000,), complete_graph),
    "kbip": (lambda: (1500, 1500), complete_bipartite),
    "hamming": (lambda: (5, 5), hamming),
    "line": (lambda: (complete_graph(78),), line_graph),
    "tensorj": (lambda: (cycle(6), 500), tensor_allones),
    "cart": (lambda: (cycle(50), cycle(60)), cartesian_product),
    "kron": (lambda: (cycle(50), cycle(60)), kronecker_product),
    "bdouble": (lambda: (cycle(1500),), bipartite_double),
}


@pytest.mark.parametrize("name", list(_OVER_CAP))
def test_vertex_cap_refuses_before_allocating(monkeypatch, name):
    # under a cap of 16 the constructor refuses with the usual message
    # before it builds anything of size n (an n x n table is megabytes)
    operands, build = _OVER_CAP[name]
    args = operands()
    monkeypatch.setenv("WALKLAB_MAX_VERTICES", "16")
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match=r"^graph has \d+ vertices; cap is 16$"):
            build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("build", [
    lambda line: cycle(4096),
    lambda line: from_graph6(line),
    lambda line: bipartite_double(cycle(2048)),
    lambda line: tensor_allones(cycle(1024), 4),
    lambda line: cartesian_product(cycle(64), cycle(64)),
    lambda line: kronecker_product(cycle(64), cycle(64)),
    lambda line: line_graph(cycle(4096)),
], ids=["from_edges", "from_graph6", "bdouble", "tensorj", "cart", "kron", "line"])
def test_building_a_graph_peaks_below_one_and_three_quarter_adjacencies(build):
    # a graph is its neighbour table: building a graph on 4096 vertices
    # (C4096, from its arcs or its graph6 line, and the products of small
    # operands) stays under n^2 / 8 bytes, which a dense n x n copy of any
    # dtype, even packed bits, fills
    line = to_graph6(cycle(4096))
    tracemalloc.start()
    try:
        g = build(line)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n ** 2 // 8
    assert "adjacency" not in vars(g)  # built only when read


@pytest.mark.parametrize("expr", ["hamming(3,3)", "complete(5)", "kbip(2,3)", "petersen()",
                                  "line(kbip(2,3))", "tensorj(cycle(5),2)",
                                  "cart(cycle(3),kbip(1,2))", "kron(cycle(5),complete(3))",
                                  "bdouble(petersen())", "complete(1)"])
def test_every_table_lists_ascending_neighbours_then_padding(expr):
    # the table is the one of the adjacency it stands for, each row
    # ascending with the padding n after the neighbours, from the
    # constructors and from both readers
    g = parse_expr(expr)
    for h in (g, from_graph6(to_graph6(g)), from_edge_list(to_edge_list(g))):
        table = h.neighbour_table
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.tolist() == neighbour_table(h.adjacency).tolist() == g.neighbour_table.tolist()
        assert all(row == sorted(row) for row in table.tolist())


def test_vertex_cap_rejects_bad_values(monkeypatch):
    for raw in ("abc", "4.5", "0", "-3"):
        monkeypatch.setenv("WALKLAB_MAX_VERTICES", raw)
        with pytest.raises(GraphError, match=f"WALKLAB_MAX_VERTICES.*{raw}"):
            cycle(6)


# ---------------------------------------------------------------------------
# closed walks and quadrangles


def test_closed_walks_of_k100_from_the_closed_form():
    # K_n has eigenvalues n - 1 and -1 (n - 1 times), and every vertex the
    # same closed-walk counts; n delta^r = 100 * 99^r passes 2^62 at r = 9
    n = 100
    walks = list(itertools.islice(closed_walks(complete_graph(n)), 11))
    for r, w in enumerate(walks, start=2):
        expected = ((n - 1) ** r + (n - 1) * (-1) ** r) // n
        assert w.tolist() == [expected] * n, r
        assert w.dtype == (np.int64 if r <= 8 else object), r


def test_quadrangles_examples():
    q, per = count_quadrangles(cycle(4))
    assert q == 1 and per == [1, 1, 1, 1]
    q, per = count_quadrangles(complete_bipartite(3, 3))
    assert q == 9 and per == [6] * 6 and sum(per) == 4 * q == 36
    q, per = count_quadrangles(cycle(6))
    assert q == 0 and per == [0] * 6


def test_quadrangles_of_q9_from_the_closed_form():
    # each pair of the d coordinates spans one square through a vertex of
    # Q_d: q_x = C(d,2) and q = 2^d C(d,2) / 4; 512 vertices are out of the
    # brute-force oracle's reach
    q, per_vertex = count_quadrangles(hypercube(9))
    assert q == 4608 and per_vertex == [36] * 512


def test_quadrangles_complete_graph():
    # K4 holds three distinct quadrangles
    q, per = count_quadrangles(complete_graph(4))
    assert q == 3 and per == [3, 3, 3, 3]


def test_quadrangles_bookkeeping_matches_enumeration():
    graphs = [cycle(4), cycle(5), cycle(6), complete_graph(4), complete_graph(5),
              complete_bipartite(3, 3), complete_bipartite(2, 4), hypercube(3),
              petersen(), line_graph(hypercube(3)), tensor_allones(cycle(6), 2),
              hamming(4, 2), complete_bipartite(1, 3)]
    for g in graphs:
        q1, pv1 = count_quadrangles(g)
        q2, pv2 = count_quadrangles_brute(g)
        assert (q1, pv1) == (q2, pv2), g
        assert sum(pv1) == 4 * q1
