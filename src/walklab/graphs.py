"""Simple undirected graphs with a canonical vertex ordering,
constructors for the graph families used in the enumeration, structural
predicates, and exact quadrangle counting."""

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
    charpoly,
    extract_spectrum,
    int_matmul,
    moment_route,
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


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: symmetric 0/1 adjacency with zero diagonal."""

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.adjacency)
        if n == 0:
            raise GraphError("graph has no vertices")
        _check_vertex_count(n)
        for i, row in enumerate(self.adjacency):
            if len(row) != n:
                raise GraphError("adjacency matrix is not square")
            if row[i] != 0:
                raise GraphError("loops are not allowed")
            for j, x in enumerate(row):
                if x not in (0, 1):
                    raise GraphError("adjacency entries must be 0 or 1")
                if x != self.adjacency[j][i]:
                    raise GraphError("adjacency matrix is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        _check_vertex_count(n)
        adj = [[0] * n for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if adj[u][v]:
                raise GraphError(f"duplicate edge ({u},{v})")
            adj[u][v] = adj[v][u] = 1
        return cls(tuple(tuple(row) for row in adj))

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(sum(row) for row in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.adjacency[i][j]]

    def degree(self, v: int) -> int:
        return sum(self.adjacency[v])

    def degrees(self) -> list[int]:
        return [sum(row) for row in self.adjacency]

    def neighbors(self, v: int) -> list[int]:
        return [u for u, x in enumerate(self.adjacency[v]) if x]

    @cached_property
    def adjacency_array(self) -> np.ndarray:
        """The adjacency as a read-only int64 array."""
        a = np.array(self.adjacency, dtype=np.int64)
        a.setflags(write=False)
        return a

    @cached_property
    def _moments(self) -> Moments | None:
        return moment_route(self.adjacency_array)

    @cached_property
    def charpoly(self) -> Poly:
        """Adjacency characteristic polynomial, computed once per graph:
        from the traces of A's powers when they fit in int64, by CRT
        otherwise."""
        if self._moments is not None:
            return self._moments.charpoly
        return charpoly(self.adjacency_array)

    @cached_property
    def min_poly(self) -> Poly:
        """Minimal polynomial of the adjacency matrix: the recurrence the
        moment route certified, or p / gcd(p, p'), exact because A is
        symmetric and therefore diagonalizable."""
        if self._moments is not None and self._moments.min_poly is not None:
            return self._moments.min_poly
        p = self.charpoly
        return p.exact_div(p.gcd(p.derivative()))

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
    es = g.edges()
    edges = ((i, j) for i, j in itertools.combinations(range(len(es)), 2)
             if set(es[i]) & set(es[j]))
    return Graph.from_edges(len(es), edges)


def tensor_allones(g: Graph, m: int) -> Graph:
    """Blow-up: adjacency A(g) tensor J_m, vertex order (g-vertex, copy)."""
    if m < 1:
        raise GraphError("blow-up factor must be >= 1")
    if m == 1:
        return g
    n = g.n
    _check_vertex_count(n * m)
    adj = [[g.adjacency[i // m][j // m] for j in range(n * m)] for i in range(n * m)]
    return Graph(tuple(tuple(row) for row in adj))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """A(g) tensor I + I tensor A(h), vertex order (g-vertex, h-vertex)."""
    n, m = g.n, h.n
    _check_vertex_count(n * m)
    adj = [[0] * (n * m) for _ in range(n * m)]
    for i in range(n * m):
        gi, hi = divmod(i, m)
        for j in range(n * m):
            gj, hj = divmod(j, m)
            if (gi == gj and h.adjacency[hi][hj]) or (hi == hj and g.adjacency[gi][gj]):
                adj[i][j] = 1
    return Graph(tuple(tuple(row) for row in adj))


def kronecker_product(g: Graph, h: Graph) -> Graph:
    """A(g) tensor A(h), vertex order (g-vertex, h-vertex)."""
    n, m = g.n, h.n
    _check_vertex_count(n * m)
    adj = [[0] * (n * m) for _ in range(n * m)]
    for i in range(n * m):
        gi, hi = divmod(i, m)
        for j in range(n * m):
            gj, hj = divmod(j, m)
            if g.adjacency[gi][gj] and h.adjacency[hi][hj]:
                adj[i][j] = 1
    return Graph(tuple(tuple(row) for row in adj))


def bipartite_double(g: Graph) -> Graph:
    """g tensor K_2; its spectrum is the original one united with its
    negation."""
    return kronecker_product(g, complete_graph(2))


# ---------------------------------------------------------------------------
# predicates


def is_connected(g: Graph) -> bool:
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == g.n


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


def biadjacency(g: Graph, split: PartiteSplit) -> list[list[int]]:
    """The block N of the adjacency matrix, rows indexed by part1 and
    columns by part2, both in canonical vertex order."""
    seen = sorted(split.part1 + split.part2)
    if seen != list(range(g.n)):
        raise GraphError("split does not cover the vertex set exactly once")
    part1set = set(split.part1)
    for u, v in g.edges():
        if (u in part1set) == (v in part1set):
            raise GraphError(f"edge ({u},{v}) stays inside one part")
    return [[g.adjacency[u][v] for v in split.part2] for u in split.part1]


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
    """
    a = [list(row) for row in g.adjacency]
    a2 = int_matmul(a, a)
    a4 = int_matmul(a2, a2)
    degs = g.degrees()
    per_vertex = []
    for x in range(g.n):
        spoke = degs[x] * degs[x]
        path2 = sum(degs[y] - 1 for y in g.neighbors(x))
        walks = a4[x][x] - spoke - path2
        if walks < 0 or walks % 2:
            raise AssertionError("closed-walk bookkeeping went negative or odd")
        per_vertex.append(walks // 2)
    total4 = sum(per_vertex)
    if total4 % 4:
        raise AssertionError("per-vertex quadrangle counts do not sum to 4q")
    return total4 // 4, per_vertex
