"""Simple undirected graphs with a canonical vertex ordering,
constructors for the graph families used in the enumeration (the
builder grammar that names them lives in `expressions`), structural
predicates, the closed-walk counts at every vertex, and exact
quadrangle counting.  A graph is one read-only neighbour table, its
dense adjacency built only when read; each product with A is a row
gather on the table, and `closed_walks` is the one loop of such
products that walk-regularity and the quadrangle counts read.  One
breadth-first 2-colouring over the same table, cached per graph,
answers both connectivity and bipartiteness."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .exact import (
    Moments,
    Poly,
    Spectrum,
    Traces,
    Unresolved,
    _factors,
    adjacency_times,
    charpoly_mod_2,
    exact_dtype,
    min_poly_factors,
    moment_route,
    neighbour_table,
    spectrum_of,
    table_matrix,
    trace_route,
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


class _Spectral:
    """The spectral members a built graph and an expression share, read
    off `_moments`, what the moment route found (`exact.Moments`), and
    p_A mod 2 where it is read without p_A."""

    # p_A mod 2 as a bitmask (`exact.charpoly_mod_2`), or None: a graph
    # reads it off its table, and an expression, whose factors come from
    # the m_A of its closed-form traces, has none
    charpoly_mod_2: int | None = None

    @cached_property
    def charpoly(self) -> Poly:
        """Adjacency characteristic polynomial, from the traces of the
        moment route (`exact.Moments.charpoly`).  `factors` reads it only
        when the route certified no m_A or a root of m_A is beyond
        quadratic surds."""
        return self._moments.charpoly

    @cached_property
    def min_poly(self) -> Poly:
        """Minimal polynomial of the adjacency matrix: the recurrence the
        moment route certified by t_n, or else by `exact.trace_route` on its
        t_0 .. t_n and t_r = -sum_(j<n) p_j t_(r-n+j) past them (p_A(A) = 0)."""
        if self._moments.min_poly is not None:
            return self._moments.min_poly
        t, p, n = self._moments.traces, self.charpoly.coeffs[:-1], self.n
        source = Traces(n, self.neighbour_table.shape[1], n, lambda r: t[r] if r <= n else
                        -sum(a * b for a, b in zip(p, source.traces(r)[r - n:])))
        return trace_route(source).min_poly

    @cached_property
    def factors(self) -> tuple[list[tuple[Poly, int]], Poly]:
        """The spectral factors x - r and x^2 + bx + c, each with the
        multiplicity of its roots in p_A, and the monic residual that
        resisted them.  Where the route certified an m_A whose roots all
        resolve, these are its factors, with multiplicities solved from
        the route's traces (`exact.min_poly_factors`) and residual 1;
        otherwise those of p_A (`exact._factors`).  `spectrum` and
        `walk.decide_periodic` both read this one list."""
        moments = self._moments
        if moments.min_poly is not None:
            factors = min_poly_factors(moments.min_poly, moments.traces)
            if factors is not None:
                return factors, Poly.one()
        return _factors(self.charpoly)

    @cached_property
    def spectrum(self) -> Spectrum | Unresolved:
        """Exact adjacency spectrum, or what resisted extraction: the roots
        of `factors` (`exact.spectrum_of`)."""
        return spectrum_of(*self.factors)


class Graph(_Spectral):
    """Immutable simple graph, stored as its read-only neighbour table
    (`exact.neighbour_table`): row i lists the neighbours of vertex i in
    ascending order, padded with n to the largest degree.  `Graph(rows)`
    takes a symmetric 0/1 adjacency with zero diagonal (nested sequences
    or an array) and checks it; the readers and constructors that build
    the table from arcs make it with `_of_rows` or `_of_table`.  Graphs
    compare by identity; every count, degree and vertex they return is a
    Python int."""

    neighbour_table: np.ndarray

    def __init__(self, adjacency) -> None:
        n = len(adjacency)
        if n == 0:
            raise GraphError("graph has no vertices")
        _check_vertex_count(n)
        try:
            a = np.asarray(adjacency)
        except ValueError:  # ragged rows
            raise GraphError("adjacency matrix is not square") from None
        if a.shape != (n, n):
            raise GraphError("adjacency matrix is not square")
        if not ((a == 0) | (a == 1)).all():
            raise GraphError("adjacency entries must be 0 or 1")
        if a.diagonal().any():
            raise GraphError("loops are not allowed")
        if (a != a.T).any():
            raise GraphError("adjacency matrix is not symmetric")
        self._set_table(neighbour_table(a))

    def _set_table(self, table: np.ndarray) -> None:
        if not len(table):
            raise GraphError("graph has no vertices")
        table.setflags(write=False)
        object.__setattr__(self, "neighbour_table", table)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    @classmethod
    def _of_table(cls, table: np.ndarray) -> Graph:
        """The graph of a neighbour table known to be one: ascending rows
        of int64 neighbours, padded with n, and symmetric."""
        g = cls.__new__(cls)
        g._set_table(table)
        return g

    @classmethod
    def _of_rows(cls, rows: list[list[int]]) -> Graph:
        """The graph whose vertex i has the ascending neighbours rows[i]."""
        n = len(rows)
        width = max(map(len, rows), default=0)
        padded = [row + [n] * (width - len(row)) if len(row) < width else row for row in rows]
        return cls._of_table(np.array(padded, dtype=np.int64).reshape(n, width))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        _check_vertex_count(n)
        rows: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            arc = (u, v) if u < v else (v, u)
            if arc in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(arc)
            rows[u].append(v)
            rows[v].append(u)
        for row in rows:
            row.sort()
        return cls._of_rows(rows)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The read-only int64 0/1 adjacency matrix, built from the table
        the first time it is read."""
        a = table_matrix(self.neighbour_table)
        a.setflags(write=False)
        return a

    @property
    def n(self) -> int:
        return len(self.neighbour_table)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.neighbour_table < self.n)) // 2

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The ends i < j of the edges, in row-major order, as two arrays."""
        table, n = self.neighbour_table, self.n
        later = (table < n) & (table > np.arange(n)[:, None])
        return np.nonzero(later)[0], table[later]

    def edges(self) -> list[tuple[int, int]]:
        """The edges (i, j) with i < j, in row-major order."""
        return list(zip(*(ends.tolist() for ends in self.edge_ends())))

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.neighbour_table[v] < self.n))

    def degrees(self) -> list[int]:
        return np.count_nonzero(self.neighbour_table < self.n, axis=1).tolist()

    @cached_property
    def regularity(self) -> int | None:
        """The common degree, or None when degrees differ (`regularity`),
        computed once per graph."""
        return regularity(self)

    @cached_property
    def colouring(self) -> tuple[int, np.ndarray]:
        """The number of components and the read-only colours of
        `colouring`, computed once per graph."""
        return colouring(self)

    @property
    def components(self) -> int:
        return self.colouring[0]

    @property
    def parts(self) -> tuple[int, int] | None:
        """The sizes of the two colour classes, or None (`is_bipartite`)."""
        split = is_bipartite(self)
        return split and (len(split.part1), len(split.part2))

    @property
    def quadrangles(self) -> tuple[int, int | None]:
        """q, and the number q_x of quadrangles at each vertex when it is
        the same at every vertex, else None (`count_quadrangles`)."""
        q, per_vertex = count_quadrangles(self)
        return q, per_vertex[0] if all(c == per_vertex[0] for c in per_vertex) else None

    def walk_regular_to(self, r_max: int) -> bool:
        """Whether diag(A^r) is constant for all 2 <= r <= r_max, stopped at
        the first r where the counts of `closed_walks` differ."""
        return all((w == w[0]).all() for _, w in zip(range(2, r_max + 1), closed_walks(self)))

    @cached_property
    def charpoly_mod_2(self) -> int:
        """p_A mod 2 off the table, by Hessenberg reduction over F_2
        (`exact.charpoly_mod_2`), with no moment route."""
        return charpoly_mod_2(self.neighbour_table)

    @cached_property
    def _moments(self) -> Moments:
        """The moment route on the matrix (`exact.moment_route`)."""
        return moment_route(self.neighbour_table)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class PartiteSplit:
    part1: tuple[int, ...]
    part2: tuple[int, ...]


# ---------------------------------------------------------------------------
# constructors


# The argument checks of the leaf builders, which the constructors and
# `expressions.read_expr` share: each returns the vertex count (hamming's
# stopped once it reaches 10^100) for `_check_vertex_count` to refuse.


def _cycle_order(n: int) -> int:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return n


def _complete_order(n: int) -> int:
    if n < 1:
        raise GraphError("complete graph needs at least 1 vertex")
    return n


def _kbip_order(p: int, q: int) -> int:
    if p < 1 or q < 1:
        raise GraphError("both parts need at least one vertex")
    return p + q


def _hamming_order(d: int, q: int) -> int:
    if d < 1 or q < 2:
        raise GraphError("hamming needs d >= 1 and q >= 2")
    count = 1
    for _ in range(d):  # q ** d, stopped once it reaches 10^100
        count *= q
        if count >= _HUGE_COUNT:
            break
    return count


def cycle(n: int) -> Graph:
    """Cycle graph C_n (n >= 3)."""
    return Graph.from_edges(_cycle_order(n), ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    _check_vertex_count(_complete_order(n))
    others = np.arange(n - 1)  # row i skips i
    return Graph._of_table(others + (others >= np.arange(n)[:, None]))


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} with part1 = 0..p-1, part2 = p..p+q-1."""
    return Graph.from_edges(_kbip_order(p, q), ((i, p + j) for i in range(p) for j in range(q)))


def hamming(d: int, q: int) -> Graph:
    """Hamming graph H(d,q): words of length d over q symbols, adjacent
    iff they differ in exactly one coordinate.  Lexicographic word order."""
    count = _hamming_order(d, q)
    _check_vertex_count(count)
    # a word is its base-q index, first letter most significant: changing
    # the digit at place q^i from x to (x + s) mod q moves it by that
    # difference times q^i
    words, place, columns = np.arange(count), 1, []
    for _ in range(d):
        digit = words // place % q
        columns += [words + ((digit + shift) % q - digit) * place for shift in range(1, q)]
        place *= q
    return Graph._of_table(np.sort(np.stack(columns, axis=1), axis=1))


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
    adjacent iff the edges share an endpoint.  The edges at each vertex,
    ascending, stand where its neighbours stand in g's table (an edge's
    index is its rank among the edges' keys u n + v, u < v), and edge
    (u, v) lists those at u and at v but itself."""
    _check_vertex_count(g.edge_count)
    table, n = g.neighbour_table, g.n
    real, vertex = table < n, np.arange(n)[:, None]
    keys = np.minimum(table, vertex) * n + np.maximum(table, vertex)
    later = real & (table > vertex)
    m = int(np.count_nonzero(later))
    incidence = np.where(real, np.searchsorted(keys[later], keys), m)
    ends = np.stack([np.nonzero(later)[0], table[later]])
    rows = np.concatenate(incidence[ends], axis=1)
    rows[rows == np.arange(m)[:, None]] = m
    rows.sort(axis=1)
    width = np.count_nonzero(real, axis=1)[ends].sum(axis=0) - 2
    return Graph._of_table(rows[:, :int(width.max(initial=0))])


def _blowup_factor(m: int) -> int:
    if m < 1:
        raise GraphError("blow-up factor must be >= 1")
    return m


def tensor_allones(g: Graph, m: int) -> Graph:
    """Blow-up: adjacency A(g) tensor J_m, vertex order (g-vertex, copy).
    Every copy of v lists each copy of each neighbour of v, ascending;
    g's padding n becomes n m + i, clipped to n m."""
    if _blowup_factor(m) == 1:
        return g
    _check_vertex_count(g.n * m)
    rows = g.neighbour_table[:, :, None] * m + np.arange(m)
    return Graph._of_table(np.repeat(np.minimum(rows, g.n * m).reshape(g.n, -1), m, axis=0))


def _of_pairs(parts: np.ndarray, padding: np.ndarray) -> Graph:
    """The graph on the pairs (v, x) of the vertices of g and h, pair
    (v, x) numbered v |h| + x, whose row (v, x) lists the entries of
    parts[v, x] but those at padding (which pair an operand's padding)
    in ascending order, then the padding."""
    n = parts.shape[0] * parts.shape[1]
    table = parts.reshape(n, parts.size // n)
    table[padding.reshape(table.shape)] = n
    table.sort(axis=1)
    return Graph._of_table(table)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """A(g) tensor I + I tensor A(h), vertex order (g-vertex, h-vertex):
    (v, x) lists (w, x) for w ~ v and (v, y) for y ~ x."""
    _check_vertex_count(g.n * h.n)
    tg, th = g.neighbour_table, h.neighbour_table
    along_g = tg[:, None, :] * h.n + np.arange(h.n)[:, None]
    along_h = np.arange(g.n)[:, None, None] * h.n + th
    padding = [np.broadcast_to(tg[:, None, :] == g.n, along_g.shape),
               np.broadcast_to(th == h.n, along_h.shape)]
    return _of_pairs(np.concatenate([along_g, along_h], axis=2), np.concatenate(padding, axis=2))


def kronecker_product(g: Graph, h: Graph) -> Graph:
    """A(g) tensor A(h), vertex order (g-vertex, h-vertex): (v, x) lists
    (w, y) for w ~ v and y ~ x."""
    _check_vertex_count(g.n * h.n)
    tg, th = g.neighbour_table, h.neighbour_table
    return _of_pairs(tg[:, None, :, None] * h.n + th[:, None, :],
                     (tg == g.n)[:, None, :, None] | (th == h.n)[:, None, :])


def bipartite_double(g: Graph) -> Graph:
    """g tensor K_2; its spectrum is the original one united with its
    negation."""
    return kronecker_product(g, complete_graph(2))


# ---------------------------------------------------------------------------
# predicates


def colouring(g: Graph) -> tuple[int, np.ndarray]:
    """Breadth-first 2-colouring: the number of components, and the
    parity of each vertex's distance from the least vertex of its
    component.  A forward scan finds each component's least unreached
    vertex, and one queue over the table's rows, read as lists, reaches
    the rest; it stops once it holds all n vertices, so the search is
    O(n + m).  The table's padding n gets colour 2, which no vertex has."""
    n, table = g.n, g.neighbour_table.tolist()
    colour = [-1] * n + [2]  # -1: not reached yet
    queue: list[int] = []  # the vertices reached, in the order reached
    head = components = 0
    for start in range(n):
        if colour[start] >= 0:
            continue
        components += 1
        colour[start] = 0
        queue.append(start)
        while head < len(queue) < n:
            v = queue[head]
            head += 1
            side = 1 - colour[v]
            for w in table[v]:
                if colour[w] < 0:
                    colour[w] = side
                    queue.append(w)
    colours = np.array(colour, dtype=np.int8)
    colours.setflags(write=False)
    return components, colours


def is_connected(g: Graph) -> bool:
    """Whether g has one component: by the 2-colouring of a graph, or by
    the spectrum of an `expressions.Expression` (its `components`)."""
    return g.components == 1


def is_bipartite(g: Graph) -> PartiteSplit | None:
    """The two colour classes of the 2-colouring in ascending order, or
    None when an edge joins two vertices of one colour (an odd cycle)."""
    colour = g.colouring[1]
    if (colour[g.neighbour_table] == colour[:-1, None]).any():
        return None
    return PartiteSplit(tuple(np.flatnonzero(colour == 0).tolist()),
                        tuple(np.flatnonzero(colour == 1).tolist()))


def regularity(g: Graph) -> int | None:
    """Common degree, or None when degrees differ: the table is as wide
    as the largest degree, and a row of a smaller degree ends in the
    padding n, so the degrees are equal exactly when no row does."""
    table = g.neighbour_table
    width = table.shape[1]
    return None if width and table[:, -1].max() == g.n else width


# ---------------------------------------------------------------------------
# closed walks and quadrangles


def closed_walks(g: Graph) -> Iterator[np.ndarray]:
    """W_2, W_3, ...: the closed-walk counts W_r(x) = (A^r)_xx at every
    vertex x, one array per r, with no end.

    A is symmetric, so W_2i(x) is the squared norm of row x of A^i and
    W_2i+1(x) the product of the rows x of A^i and A^(i+1): each row
    gather gives two counts, and W_2i is yielded before the gather that
    forms A^(i+1), so reading W_2 .. W_r takes floor((r - 1)/2) gathers.
    W_2 is the degree, as A is 0/1, in int64.  For r >= 3 the entries
    of A^i, the partial sums that form them, W_r(x) and its sum over the
    vertices are all at most n delta^r, delta the largest degree: the
    arrays for W_r are int64 while that bound is below 2^62 and Python
    ints (object dtype) from there on.
    """
    table = g.neighbour_table
    n, delta = table.shape
    low, r = g.adjacency, 3  # low = A^((r - 1)/2)
    yield low.sum(axis=1)
    while True:
        low = low.astype(exact_dtype(n * delta ** r), copy=False)
        high = adjacency_times(table, low)
        yield (low * high).sum(axis=1)
        low = high.astype(exact_dtype(n * delta ** (r + 1)), copy=False)
        yield (low * low).sum(axis=1)
        r += 2


def count_quadrangles(g: Graph) -> tuple[int, list[int]]:
    """Exact number of quadrangles (4-cycle subgraphs) and the per-vertex
    counts, from closed-4-walk bookkeeping.

    Closed 4-walks at x split into: back-and-forth on one edge (deg x),
    two spokes (deg x * (deg x - 1)), a length-2 path walked out and back
    (sum over neighbours y of deg y - 1), and two traversals of each
    quadrangle through x.  Subtracting the degenerate cases from W_4(x)
    leaves 2 q_x; deg x is W_2(x).
    """
    degs, _, w4 = itertools.islice(closed_walks(g), 3)
    path2 = adjacency_times(g.neighbour_table, (degs - 1)[:, None])[:, 0]
    walks = w4 - degs * degs - path2
    if (walks < 0).any() or (walks % 2).any():
        raise AssertionError("closed-walk bookkeeping went negative or odd")
    per_vertex = (walks // 2).tolist()
    total4 = sum(per_vertex)
    if total4 % 4:
        raise AssertionError("per-vertex quadrangle counts do not sum to 4q")
    return total4 // 4, per_vertex
