"""Simple undirected graphs with a canonical vertex ordering,
constructors for the graph families used in the enumeration, structural
predicates, and exact quadrangle counting.  A graph is one read-only
int64 adjacency array; each product with it is a row gather on the
graph's cached neighbour table."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .exact import (
    Moments,
    Poly,
    Spectrum,
    Unresolved,
    adjacency_times,
    exact_dtype,
    extract_spectrum,
    min_poly_route,
    moment_route,
    neighbour_table,
)

DEFAULT_MAX_VERTICES = 4096


class GraphError(ValueError):
    pass


def _max_vertices() -> int:
    raw = os.environ.get("WALKLAB_MAX_VERTICES")
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        cap = int(raw)
    except ValueError:
        raise GraphError(f"WALKLAB_MAX_VERTICES is not an integer: {raw!r}") from None
    if cap < 1:
        raise GraphError(f"WALKLAB_MAX_VERTICES must be at least 1, got {raw!r}")
    return cap


# Numbers are read up to 100 digits, and vertex counts from 10^100 up are
# refused by that bound whatever the cap, so no error message has to print
# an int that Python refuses to convert to text (more than 4300 digits).
MAX_DIGITS = 100
_HUGE_COUNT = 10 ** MAX_DIGITS


def read_decimal(token: str) -> int:
    """A token of ASCII decimal digits as an int, refused past MAX_DIGITS
    significant digits."""
    significant = token.lstrip("0")
    if len(significant) > MAX_DIGITS:
        raise GraphError(f"number has {len(significant)} digits; at most {MAX_DIGITS} are read")
    return int(significant or "0")


def _check_vertex_count(n: int) -> None:
    """Refuse a vertex count above the cap; the constructors call this
    before they allocate anything of size n."""
    cap = _max_vertices()
    if n >= _HUGE_COUNT:
        raise GraphError(f"graph has at least 10^{MAX_DIGITS} vertices; cap is {cap}")
    if n > cap:
        raise GraphError(f"graph has {n} vertices; cap is {cap}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph: a read-only int64 copy of the symmetric 0/1
    adjacency with zero diagonal it is given (nested sequences or an
    array).  Graphs compare by identity; every count, degree and vertex
    they return is a Python int."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.adjacency)
        if n == 0:
            raise GraphError("graph has no vertices")
        _check_vertex_count(n)
        try:
            a = np.array(self.adjacency)
        except ValueError:  # ragged rows
            raise GraphError("adjacency matrix is not square") from None
        if a.shape != (n, n):
            raise GraphError("adjacency matrix is not square")
        if not ((a == 0) | (a == 1)).all():
            raise GraphError("adjacency entries must be 0 or 1")
        a = a.astype(np.int64, copy=False)
        if a.diagonal().any():
            raise GraphError("loops are not allowed")
        if (a != a.T).any():
            raise GraphError("adjacency matrix is not symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        _check_vertex_count(n)
        adj = np.zeros((n, n), dtype=np.uint8)  # Graph makes the one int64 copy
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if adj[u, v]:
                raise GraphError(f"duplicate edge ({u},{v})")
            adj[u, v] = adj[v, u] = 1
        return cls(adj)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """The edges (i, j) with i < j, in row-major order."""
        return [(i, j) for i, j in np.argwhere(np.triu(self.adjacency)).tolist()]

    def degree(self, v: int) -> int:
        return int(self.adjacency[v].sum())

    def degrees(self) -> list[int]:
        return self.adjacency.sum(axis=1).tolist()

    def neighbors(self, v: int) -> list[int]:
        row = self.neighbour_table[v]
        return row[row < self.n].tolist()

    @cached_property
    def neighbour_table(self) -> np.ndarray:
        """The read-only `exact.neighbour_table` of the adjacency: each
        product with A is a row gather on it (`exact.adjacency_times`)."""
        table = neighbour_table(self.adjacency)
        table.setflags(write=False)
        return table

    @cached_property
    def _moments(self) -> Moments:
        return moment_route(self.neighbour_table)

    @cached_property
    def charpoly(self) -> Poly:
        """Adjacency characteristic polynomial, computed once per graph by
        the moment route (`exact.moment_route`), which stops at t_n."""
        return self._moments.charpoly

    @cached_property
    def min_poly(self) -> Poly:
        """Minimal polynomial of the adjacency matrix: the recurrence the
        moment route certified by t_n, or else the one it certifies when it
        runs on to t_(2n+1) at most (`exact.min_poly_route`)."""
        if self._moments.min_poly is not None:
            return self._moments.min_poly
        return min_poly_route(self.neighbour_table)

    @cached_property
    def spectrum(self) -> Spectrum | Unresolved:
        """Exact adjacency spectrum, or what resisted extraction."""
        return extract_spectrum(self.charpoly)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class PartiteSplit:
    part1: tuple[int, ...]
    part2: tuple[int, ...]


# ---------------------------------------------------------------------------
# constructors


def cycle(n: int) -> Graph:
    """Cycle graph C_n (n >= 3)."""
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least 1 vertex")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} with part1 = 0..p-1, part2 = p..p+q-1."""
    if p < 1 or q < 1:
        raise GraphError("both parts need at least one vertex")
    return Graph.from_edges(p + q, ((i, p + j) for i in range(p) for j in range(q)))


def hamming(d: int, q: int) -> Graph:
    """Hamming graph H(d,q): words of length d over q symbols, adjacent
    iff they differ in exactly one coordinate.  Lexicographic word order."""
    if d < 1 or q < 2:
        raise GraphError("hamming needs d >= 1 and q >= 2")
    count = 1
    for _ in range(d):  # q ** d, stopped once it reaches 10^100
        count *= q
        if count >= _HUGE_COUNT:
            break
    _check_vertex_count(count)
    words = list(itertools.product(range(q), repeat=d))
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for w in words:
        for pos in range(d):
            for sym in range(w[pos] + 1, q):
                other = w[:pos] + (sym,) + w[pos + 1:]
                edges.append((index[w], index[other]))
    return Graph.from_edges(len(words), edges)


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube Q_d = H(d,2)."""
    return hamming(d, 2)


def petersen() -> Graph:
    """Petersen graph: 2-subsets of a 5-set, adjacent iff disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [(index[p], index[r]) for p, r in itertools.combinations(pairs, 2)
             if not set(p) & set(r)]
    return Graph.from_edges(len(pairs), edges)


def line_graph(g: Graph) -> Graph:
    """Line graph: vertices are the edges of g in canonical order,
    adjacent iff the edges share an endpoint."""
    _check_vertex_count(g.edge_count)
    ends = np.argwhere(np.triu(g.adjacency))
    adj = np.zeros((len(ends), len(ends)), dtype=np.int64)
    for v in range(g.n):
        at_v = np.flatnonzero((ends == v).any(axis=1))
        adj[np.ix_(at_v, at_v)] = 1
    np.fill_diagonal(adj, 0)
    return Graph(adj)


def tensor_allones(g: Graph, m: int) -> Graph:
    """Blow-up: adjacency A(g) tensor J_m, vertex order (g-vertex, copy)."""
    if m < 1:
        raise GraphError("blow-up factor must be >= 1")
    if m == 1:
        return g
    _check_vertex_count(g.n * m)
    return Graph(np.kron(g.adjacency, np.ones((m, m), dtype=np.int64)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """A(g) tensor I + I tensor A(h), vertex order (g-vertex, h-vertex)."""
    _check_vertex_count(g.n * h.n)
    return Graph(np.kron(g.adjacency, np.eye(h.n, dtype=np.int64))
                 + np.kron(np.eye(g.n, dtype=np.int64), h.adjacency))


def kronecker_product(g: Graph, h: Graph) -> Graph:
    """A(g) tensor A(h), vertex order (g-vertex, h-vertex)."""
    _check_vertex_count(g.n * h.n)
    return Graph(np.kron(g.adjacency, h.adjacency))


def bipartite_double(g: Graph) -> Graph:
    """g tensor K_2; its spectrum is the original one united with its
    negation."""
    return kronecker_product(g, complete_graph(2))


# ---------------------------------------------------------------------------
# predicates


def is_connected(g: Graph) -> bool:
    """Breadth-first search from vertex 0, one frontier at a time."""
    reached = np.zeros(g.n + 1, dtype=bool)
    reached[g.n] = True  # the neighbour table's padding
    frontier = np.array([0])
    while frontier.size:
        reached[frontier] = True
        seen = np.zeros_like(reached)
        seen[g.neighbour_table[frontier]] = True
        frontier = np.flatnonzero(seen & ~reached)
    return bool(reached.all())


def is_bipartite(g: Graph) -> PartiteSplit | None:
    """BFS 2-coloring over all components; None when an odd cycle exists."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in g.neighbors(v):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    part1 = tuple(v for v in range(g.n) if color[v] == 0)
    part2 = tuple(v for v in range(g.n) if color[v] == 1)
    return PartiteSplit(part1, part2)


def regularity(g: Graph) -> int | None:
    """Common degree, or None when degrees differ."""
    degs = g.degrees()
    return degs[0] if all(d == degs[0] for d in degs) else None


# ---------------------------------------------------------------------------
# quadrangles


def count_quadrangles(g: Graph) -> tuple[int, list[int]]:
    """Exact number of quadrangles (4-cycle subgraphs) and the per-vertex
    counts, from closed-4-walk bookkeeping.

    Closed 4-walks at x split into: back-and-forth on one edge (deg x),
    two spokes (deg x * (deg x - 1)), a length-2 path walked out and back
    (sum over neighbours y of deg y - 1), and two traversals of each
    quadrangle through x.  Subtracting the degenerate cases from
    (A^4)_{x,x} leaves 2 q_x.

    (A^4)_{x,x} is the squared norm of row x of A^2, one row gather; its
    partial sums are at most delta^4, delta the largest degree.
    """
    table = g.neighbour_table
    a2 = adjacency_times(table, g.adjacency.astype(exact_dtype(table.shape[1] ** 4)))
    degs = a2.diagonal()
    path2 = adjacency_times(table, (degs - 1)[:, None])[:, 0]
    walks = (a2 * a2).sum(axis=1) - degs * degs - path2
    if (walks < 0).any() or (walks % 2).any():
        raise AssertionError("closed-walk bookkeeping went negative or odd")
    per_vertex = (walks // 2).tolist()
    total4 = sum(per_vertex)
    if total4 % 4:
        raise AssertionError("per-vertex quadrangle counts do not sum to 4q")
    return total4 // 4, per_vertex
