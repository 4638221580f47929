"""Builder expressions: the grammar, and each expression read off its
structure, with no graph built.

`_BUILDERS` is the one table of the builders, each with its argument
kinds, its node and its constructor (`graphs`).  `_parse` reads the
grammar, and `read_expr` reads it into `Expression` nodes.  Each node
has its vertex count, its degree, whether it is walk-regular by
structure, and its traces t_r = tr A^r in closed form from its
operands'.  Its m_A, factors and spectrum come from those exact traces
(`exact.trace_route`), and the rest that `analyze` asks from its
structure where that decides it, by the same members as a graph's;
otherwise it asks its built graph (`Expression.graph`).  Only a line
over an operand of varying degree is built as it is read.
"""

from __future__ import annotations

import math
import re
import string
from functools import cached_property
from typing import Callable, TypeVar

from . import graphs
from .exact import Moments, Traces, trace_route
from .graphs import (
    _HUGE_COUNT,
    Graph,
    GraphError,
    _blowup_factor,
    _check_vertex_count,
    _complete_order,
    _cycle_order,
    _hamming_order,
    _kbip_order,
    _Spectral,
    closed_walks,
    line_graph,
    read_decimal,
)

_Node = TypeVar("_Node")

# Builder calls nest at most MAX_NESTING deep, so the recursive descent
# of `_parse` stays well inside Python's recursion limit (1000 frames).
MAX_NESTING = 200


class ExprError(ValueError):
    pass


class Expression(Traces, _Spectral):
    """A node of `read_expr`: the graph of a builder expression, known
    from its structure.  It has n, its largest degree delta, whether every
    vertex has that degree (`regular`), whether it is walk-regular by
    structure, a bound on the number of its distinct eigenvalues, and its
    traces t_r = tr A^r in closed form (`traces`), each from its own
    parameters and its operands' traces.  With these it is an
    `exact.Traces`, whose m_A, factors and spectrum `exact.trace_route`
    reads off; the constructors build it only when `graph` is read.

    Walk-regularity by structure: the leaves are vertex-transitive, apart
    from kbip(p, q) with p != q, and so is the line graph of a leaf, as
    every leaf is edge-transitive; cart, kron, tensorj and bdouble of
    walk-regular graphs are walk-regular, as diag(A^r) of each is built
    from its operands' diagonals (Godsil and McKay, "Feasibility
    conditions for the existence of walk-regular graphs", Linear Algebra
    Appl. 30, 1980)."""

    def __init__(self, name: str, args: tuple, n: int, delta: int, regular: bool,
                 walk_regular: bool, distinct: int, rule: Callable[[int], int]) -> None:
        super().__init__(n, delta, min(distinct, n), rule)  # deg m_A: distinct eigenvalues
        self.name, self.args, self.regular, self.walk_regular = name, args, regular, walk_regular

    @cached_property
    def _nodes(self) -> list[Expression]:
        """The nodes of the expression, each after its operands."""
        order, stack = [], [self]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(a for a in node.args if isinstance(a, Expression))
        return order[::-1]

    def _grow(self, count: int) -> list[int]:
        if len(self._t) < count:  # each node's terms, operands first
            for node in self._nodes:
                Traces._grow(node, count)
        return self._t

    @property
    def regularity(self) -> int | None:
        return self.delta if self.regular else None

    @property
    def edge_count(self) -> int:
        return self.traces(3)[2] // 2

    @cached_property
    def graph(self) -> Graph:
        """The graph, built by the constructors from its operands' graphs:
        an ordinary `Graph`, asked only what the structure leaves open."""
        return _BUILDERS[self.name][2](*(a.graph if isinstance(a, Expression) else a
                                         for a in self.args))

    @cached_property
    def _moments(self) -> Moments:
        return trace_route(self)

    def _multiplicity(self, r: int) -> int:
        """The multiplicity of the integer r in the spectrum (`factors`)."""
        return next((m for f, m in self.factors[0] if f.coeffs == (-r, 1)), 0)

    @property
    def _structural(self) -> bool:
        """Regular of degree k >= 1 and walk-regular by structure."""
        return bool(self.regularity) and self.walk_regular

    @cached_property
    def components(self) -> int:
        """The number of components: the multiplicity of k for a k-regular
        expression with k >= 1, n with no edges, else the built graph's."""
        k = self.regularity
        if k is None:
            return self.graph.components
        return self._multiplicity(k) if k else self.n

    @property
    def parts(self) -> tuple[int, int] | None:
        """The colour classes' sizes (`Graph.parts`); for a connected
        `_structural` expression n/2 each, or None when -k is no eigenvalue."""
        if not (self._structural and self.components == 1):
            return self.graph.parts
        return (self.n // 2,) * 2 if self._multiplicity(-self.regularity) else None

    @property
    def quadrangles(self) -> tuple[int, int | None]:
        """q and q_x (`Graph.quadrangles`); each vertex of a `_structural`
        expression starts t_4/n closed 4-walks, and
        2 q_x = t_4/n - k^2 - k(k - 1) (`count_quadrangles`)."""
        if not self._structural:
            return self.graph.quadrangles
        k, n = self.regularity, self.n
        q_x, odd = divmod(self.traces(5)[4] - n * (2 * k * k - k), 2 * n)
        q, part = divmod(n * q_x, 4)
        if odd or part or q_x < 0:
            raise AssertionError("closed-walk bookkeeping of a walk-regular expression "
                                 "went negative or odd")
        return q, q_x

    def walk_regular_to(self, r_max: int) -> bool:
        """`Graph.walk_regular_to`: true for a `_structural` expression,
        else the built graph's answer to the same depth."""
        return self._structural or self.graph.walk_regular_to(r_max)


# The nodes of `read_expr`: each checks its arguments as its constructor
# does and gives (n, delta, regular, walk-regular, a bound on the distinct
# eigenvalues, t_r from r), or a node itself.  The leaves' traces are their
# eigenvalues' power sums; the operations' follow from their operands':
#   tensorj(G, m)  t_0 = m t_0(G) and t_r = m^r t_r(G), as J^r = m^(r-1) J
#   kron(G, H)     t_r = t_r(G) t_r(H)
#   bdouble(G)     t_r = (1 + (-1)^r) t_r(G), as kron(G, K_2)
#   cart(G, H)     t_r = sum_j C(r, j) t_j(G) t_(r-j)(H), as A(G) x I and
#                  I x A(H) commute
#   line(G)        t_r = sum_j C(r, j) (k - 2)^(r-j) t_j(G) + (m - n)(-2)^r for
#                  k-regular G with m edges: A(L(G)) = B^T B - 2I, B the
#                  incidence matrix, and B B^T = A(G) + kI.


def _cycle_node(n: int) -> tuple:
    # closed r-walks at a vertex of C_n: r steps of +-1 whose sum d is a
    # multiple of n, (r + d)/2 of them +1
    return (_cycle_order(n), 2, True, True, n // 2 + 1, lambda r: n * sum(
        math.comb(r, (r - d) // 2) for d in range(-(r // n) * n, r + 1, n) if (r - d) % 2 == 0))


def _complete_node(n: int) -> tuple:
    return (_complete_order(n), n - 1, True, True, 2,
            lambda r: (n - 1) ** r + (n - 1) * (-1) ** r)


def _kbip_node(p: int, q: int) -> tuple:
    # eigenvalues +-sqrt(pq) once each, and 0
    return (_kbip_order(p, q), max(p, q), p == q, p == q, 3,
            lambda r: p + q if r == 0 else 0 if r % 2 else 2 * (p * q) ** (r // 2))


def _hamming_node(d: int, q: int) -> tuple:
    # eigenvalue (q - 1)d - qi with multiplicity C(d, i)(q - 1)^i
    return (_hamming_order(d, q), d * (q - 1), True, True, d + 1, lambda r: sum(
        math.comb(d, i) * (q - 1) ** i * ((q - 1) * d - q * i) ** r for i in range(d + 1)))


def _petersen_node() -> tuple:
    return 10, 3, True, True, 3, lambda r: 3 ** r + 5 + 4 * (-2) ** r


def _line_node(g: Expression) -> tuple | Expression:
    if not g.regular:  # an edge's degree varies: built, with no walk-regularity by structure
        built = line_graph(g.graph)
        walks = closed_walks(built)
        node = Expression("line", (g,), built.n, max(built.degrees()),
                          built.regularity is not None, False, built.n,
                          lambda r: 0 if r == 1 else int(next(walks).sum()) if r else built.n)
        node.__dict__["graph"] = built
        return node
    n, k, t = g.n, g.delta, g._t
    m = n * k // 2
    if m == 0:
        raise GraphError("graph has no vertices")
    leaf = not any(isinstance(a, Expression) for a in g.args)
    return (m, 2 * k - 2, True, leaf, g.degree_bound + 1, lambda r: sum(
        math.comb(r, j) * (k - 2) ** (r - j) * t[j] for j in range(r + 1)) + (m - n) * (-2) ** r)


def _tensorj_node(g: Expression, m: int) -> tuple | Expression:
    if _blowup_factor(m) == 1:
        return g
    t = g._t
    return (g.n * m, g.delta * m, g.regular, g.walk_regular, g.degree_bound + 1,
            lambda r: m ** max(r, 1) * t[r])


def _kron_node(g: Expression, h: Expression) -> tuple:
    # degrees d_G(x) d_H(y): equal when both are regular or one has no edges
    t, u = g._t, h._t
    return (g.n * h.n, g.delta * h.delta, g.regular and h.regular or not g.delta * h.delta,
            g.walk_regular and h.walk_regular, g.degree_bound * h.degree_bound,
            lambda r: t[r] * u[r])


def _bdouble_node(g: Expression) -> tuple:
    t = g._t
    return (2 * g.n, g.delta, g.regular, g.walk_regular, 2 * g.degree_bound,
            lambda r: 0 if r % 2 else 2 * t[r])


def _cart_node(g: Expression, h: Expression) -> tuple:
    t, u = g._t, h._t
    return (g.n * h.n, g.delta + h.delta, g.regular and h.regular,
            g.walk_regular and h.walk_regular, g.degree_bound * h.degree_bound,
            lambda r: sum(math.comb(r, j) * t[j] * u[r - j] for j in range(r + 1)))


# name: (its arguments, i an int and e an expression; its node of
# `read_expr`; its constructor)
_BUILDERS = {
    "cycle": ("i", _cycle_node, graphs.cycle),
    "kbip": ("ii", _kbip_node, graphs.complete_bipartite),
    "hamming": ("ii", _hamming_node, graphs.hamming),
    "hypercube": ("i", lambda d: _hamming_node(d, 2), graphs.hypercube),
    "petersen": ("", _petersen_node, graphs.petersen),
    "complete": ("i", _complete_node, graphs.complete_graph),
    "line": ("e", _line_node, graphs.line_graph),
    "tensorj": ("ei", _tensorj_node, graphs.tensor_allones),
    "cart": ("ee", _cart_node, graphs.cartesian_product),
    "kron": ("ee", _kron_node, graphs.kronecker_product),
    "bdouble": ("e", _bdouble_node, graphs.bipartite_double),
}


# A token is a name, a number or one of "(),"; any other character that
# is not whitespace is a token of its own, refused.  ASCII only: the
# classes name their ranges, as str.isalnum and str.isdigit also accept
# digits of other scripts, fullwidth forms and superscripts.
_TOKENS = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[0-9]+|[(),]|\S")
_TOKEN_STARTS = frozenset(string.ascii_letters + string.digits + "(),")


def _tokenize(text: str) -> list[str]:
    tokens = _TOKENS.findall(text)
    for token in tokens:
        if token[0] not in _TOKEN_STARTS:
            raise ExprError(f"unexpected character {token[0]!r} in expression")
    return tokens


def _parse(text: str, make: Callable[[str, list], _Node]) -> _Node:
    """The one recursive-descent reading of the grammar: each node
    `name(arg, ...)` becomes `make(name, args)`, called as soon as its
    closing parenthesis is read, with its integer arguments as ints and
    its expression arguments as what `make` returned for them.  A node
    deeper than MAX_NESTING is refused before it is read."""
    tokens = _tokenize(text)
    pos = 0

    def expect(tok: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            got = tokens[pos] if pos < len(tokens) else "end of input"
            raise ExprError(f"expected {tok!r}, got {got!r}")
        pos += 1

    def parse_node(depth: int) -> _Node:
        nonlocal pos
        if depth > MAX_NESTING:
            raise ExprError(f"expression nests builders more than {MAX_NESTING} deep")
        if pos >= len(tokens):
            raise ExprError("unexpected end of expression")
        name = tokens[pos]
        if name not in _BUILDERS:
            raise ExprError(f"unknown builder {name!r}")
        pos += 1
        expect("(")
        args: list = []
        for idx, kind in enumerate(_BUILDERS[name][0]):
            if idx:
                expect(",")
            if kind == "i":
                if pos >= len(tokens) or not tokens[pos].isdigit():
                    raise ExprError(f"builder {name!r} expects an integer argument")
                args.append(read_decimal(tokens[pos]))
                pos += 1
            elif pos < len(tokens) and not tokens[pos][0].isalpha():
                raise ExprError(f"builder {name!r} expects an expression argument")
            else:
                args.append(parse_node(depth + 1))
        expect(")")
        return make(name, args)

    node = parse_node(1)
    if pos != len(tokens):
        raise ExprError(f"trailing input after expression: {tokens[pos]!r}")
    return node


def _read(name: str, args: list, capped: bool) -> Expression:
    shape = _BUILDERS[name][1](*args)
    node = shape if isinstance(shape, Expression) else Expression(name, tuple(args), *shape)
    if capped or node.n >= _HUGE_COUNT:
        _check_vertex_count(node.n)
    return node


def read_expr(text: str, capped: bool = True) -> Expression:
    """The expression read off its structure (`Expression`), each node as
    soon as it is read: its arguments are checked as its constructor
    checks them, then its vertex count against the cap, so every refusal
    is the one its constructor makes, at the same node.  Uncapped, only
    counts of 10^100 or more are refused, and only a line over an
    operand of varying degree, which is built, meets the cap."""
    return _parse(text, lambda name, args: _read(name, args, capped))


def parse_expr(text: str) -> Graph:
    """The graph an expression names, built once `read_expr` has read it,
    so every refusal is its constructor's, at the same node."""
    return read_expr(text).graph
