"""graph6 encoding (bit-exact against known strings), edge-list format,
and the auto-detecting reader."""

import re

import pytest

from walklab.graphio import (
    from_edge_list,
    from_graph6,
    load,
    to_edge_list,
    to_graph6,
)
from walklab.graphs import (
    Graph,
    GraphError,
    complete_bipartite,
    complete_graph,
    cycle,
    hamming,
    hypercube,
    petersen,
    tensor_allones,
)

from oracles import graph6_matrix


def test_known_graph6_strings():
    # standard encodings: K4 and the 4-vertex path
    assert to_graph6(complete_graph(4)) == "C~"
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert to_graph6(path4) == "Ch"
    assert from_graph6("C~").adjacency.tolist() == complete_graph(4).adjacency.tolist()
    assert from_graph6("Ch").adjacency.tolist() == path4.adjacency.tolist()


def test_graph6_roundtrip():
    for g in (complete_graph(1), complete_graph(2), cycle(3), cycle(8),
              complete_bipartite(3, 4), hypercube(3), petersen(),
              hamming(4, 2), tensor_allones(cycle(6), 2)):
        assert from_graph6(to_graph6(g)).adjacency.tolist() == g.adjacency.tolist()


def test_graph6_header_accepted():
    g = petersen()
    assert from_graph6(">>graph6<<" + to_graph6(g)).adjacency.tolist() == g.adjacency.tolist()


def test_graph6_size_boundary():
    # n = 63 switches to the multi-byte size encoding
    g = cycle(63)
    enc = to_graph6(g)
    assert enc.startswith(chr(126))
    assert from_graph6(enc).adjacency.tolist() == g.adjacency.tolist()


def test_graph6_rejects_garbage():
    with pytest.raises(GraphError):
        from_graph6("C")  # truncated body
    with pytest.raises(GraphError):
        from_graph6("C~~")  # oversized body
    faults = {"C\x7f": "invalid graph6 character '\\x7f'",
              "0" + "A" * 20: "invalid graph6 character '0'",  # a size below '?'
              "Cw~": "graph6 body has 2 characters, expected 1",
              "Bx": "nonzero padding bits in graph6 body"}
    for line, message in faults.items():
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            from_graph6(line)


def test_graph6_checks_come_in_the_order_of_the_dense_decode(monkeypatch):
    # character, size, body length, padding bits, then the vertex cap
    six = to_graph6(cycle(6))
    monkeypatch.setenv("WALKLAB_MAX_VERTICES", "5")
    faults = {six: "graph has 6 vertices; cap is 5",
              six[:-1] + "~": "nonzero padding bits in graph6 body",
              six + "?": "graph6 body has 4 characters, expected 3",
              six[:-1] + "\x7f": "invalid graph6 character '\\x7f'",
              "~?": "truncated graph6 size",
              "?": "graph has no vertices"}
    for line, message in faults.items():
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            graph6_matrix(line)
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            from_graph6(line)


def test_edge_list_errors_name_the_first_fault(monkeypatch):
    faults = {"3 2\n0 1\n0 3\n": "edge (0,3) out of range for 3 vertices",
              "3 2\n0 1\n2 2\n": "loop at vertex 2",
              "3 3\n0 1\n1 2\n1 0\n": "duplicate edge (1,0)",
              "0 0\n": "graph has no vertices"}
    for text, message in faults.items():
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            from_edge_list(text)
    monkeypatch.setenv("WALKLAB_MAX_VERTICES", "2")
    with pytest.raises(GraphError, match=r"^graph has 3 vertices; cap is 2$"):
        from_edge_list("3 1\n0 5\n")


def test_edge_list_roundtrip():
    for g in (cycle(6), petersen(), complete_bipartite(2, 3)):
        assert from_edge_list(to_edge_list(g)).adjacency.tolist() == g.adjacency.tolist()


def test_edge_list_errors():
    with pytest.raises(GraphError):
        from_edge_list("3\n0 1\n")
    with pytest.raises(GraphError):
        from_edge_list("3 2\n0 1\n")  # declared two edges, got one
    with pytest.raises(GraphError):
        from_edge_list("3 1\n0 3\n")  # vertex out of range


@pytest.mark.parametrize("text", ["3 1\n1_0 2\n", "3 1\n0 +1\n", "3 1\n0 -1\n",
                                  "3 1\n0 0x1\n", "3 1\n0 1.0\n", "3 1\n0 \u0661\n",
                                  "3 1\n0 1 2\n"])
def test_edge_lines_must_be_plain_ascii_decimals(text):
    with pytest.raises(GraphError, match="^bad edge line: "):
        from_edge_list(text)


@pytest.mark.parametrize("text", ["3 +2\n0 1\n1 2\n", "3 0_2\n0 1\n1 2\n",
                                  "\uff13 0\n", "-3 0\n", "3.0 0\n"])
def test_edge_list_header_must_be_plain_ascii_decimals(text):
    with pytest.raises(GraphError, match="^bad edge-list header: "):
        from_edge_list(text)


def test_autodetect():
    g = petersen()
    assert load(to_graph6(g)).adjacency.tolist() == g.adjacency.tolist()
    assert load(">>graph6<<" + to_graph6(g)).adjacency.tolist() == g.adjacency.tolist()
    assert load(to_edge_list(g)).adjacency.tolist() == g.adjacency.tolist()


def test_graph6_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    for g in (cycle(3), cycle(63), complete_graph(4), petersen(),
              hamming(4, 2), complete_bipartite(3, 4)):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))  # vertex order fixes the encoding
        nxg.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert to_graph6(g) == expected
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert sorted(map(tuple, map(sorted, back.edges()))) == g.edges()
