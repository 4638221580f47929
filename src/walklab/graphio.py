"""Reading and writing graphs: graph6 (bit-exact per the standard ASCII
encoding) and a plain edge-list text format ("n m" header line, then one
"u v" pair per line, 0-based)."""

from __future__ import annotations

import re

import numpy as np

from .graphs import Graph, GraphError, _check_vertex_count, read_decimal

GRAPH6_HEADER = ">>graph6<<"
_DECIMAL = re.compile(r"[0-9]+")


def _g6_encode_size(n: int) -> str:
    if n < 0:
        raise GraphError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise GraphError("graph too large for graph6")


def _g6_decode_size(s: str) -> tuple[int, int]:
    """The vertex count of a graph6 line and the offset of its body."""
    if not s:
        raise GraphError("empty graph6 string")
    if s[0] != chr(126):
        return ord(s[0]) - 63, 1
    first, body = (2, 8) if s[1:2] == chr(126) else (1, 4)
    if len(s) < body:
        raise GraphError("truncated graph6 size")
    n = 0
    for ch in s[first:body]:
        n = (n << 6) | (ord(ch) - 63)
    return n, body


def to_graph6(g: Graph) -> str:
    """Canonical graph6 line (no header, no trailing newline)."""
    # bit j(j - 1)/2 + i stands for the edge (i, j), i < j: the entries
    # above the diagonal column by column
    n, pairs = g.n, g.n * (g.n - 1) // 2
    bits = np.zeros(pairs + -pairs % 6, dtype=np.uint8)
    i, j = g.edge_ends()
    bits[j * (j - 1) // 2 + i] = 1
    # each six bits packed into the top of a byte, shifted down, plus 63
    values = (np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2) + 63
    return _g6_encode_size(n) + values.tobytes().decode("ascii")


# the offsets from the most significant of the six bits that a graph6
# character's value sets, for each of the 64 values
_SET_BITS = tuple(tuple(b for b in range(6) if value >> (5 - b) & 1) for value in range(64))
_NOT_G6 = re.compile(r"[^?-~]")
_NOT_EMPTY = re.compile(r"[^?]")


def from_graph6(line: str) -> Graph:
    """The inverse of to_graph6: every character must lie in '?'..'~', and
    the body's six bits a character fill the lower triangle, and its mirror.
    The characters other than '?' are read in order, so each row of the
    table comes out ascending."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    invalid = _NOT_G6.search(s)
    if invalid:
        raise GraphError(f"invalid graph6 character {invalid.group()!r}")
    n, body = _g6_decode_size(s)
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(s) - body != need:
        raise GraphError(f"graph6 body has {len(s) - body} characters, expected {need}")
    if need and (ord(s[-1]) - 63) & ((1 << (6 * need - pairs)) - 1):
        raise GraphError("nonzero padding bits in graph6 body")
    _check_vertex_count(n)
    rows: list[list[int]] = [[] for _ in range(n)]
    # bit start + i stands for the edge (i, j), i < j, start = j(j - 1)/2
    j = start = 0
    row: list[int] = []  # rows[j]
    for match in _NOT_EMPTY.finditer(s, body):
        base = 6 * (match.start() - body)
        for b in _SET_BITS[ord(match.group()) - 63]:
            i = base + b - start
            while i >= j:  # the bit lies in a later column
                i -= j
                start += j
                j += 1
                row = rows[j]
            row.append(i)
            rows[i].append(j)
    return Graph._of_rows(rows)


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _plain_decimals(tokens: list[str]) -> list[int] | None:
    """The tokens as ints when every one is plain ASCII decimal digits
    (no sign, underscore or other script), else None; a number past
    MAX_DIGITS digits is an error."""
    if all(_DECIMAL.fullmatch(tok) for tok in tokens):
        return [read_decimal(tok) for tok in tokens]
    return None


def from_edge_list(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise GraphError("empty edge list")
    header = _plain_decimals(rows[0])
    if header is None:
        raise GraphError(f"bad edge-list header: {rows[0]}")
    if len(header) != 2:
        raise GraphError("edge-list header must be 'n m'")
    n, m = header
    if len(rows) - 1 != m:
        raise GraphError(f"edge list declares {m} edges but has {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        pair = _plain_decimals(row)
        if pair is None or len(pair) != 2:
            raise GraphError(f"bad edge line: {' '.join(row)}")
        edges.append((pair[0], pair[1]))
    return Graph.from_edges(n, edges)


def _looks_like_graph6(text: str) -> bool:
    first = next((line for line in text.splitlines() if line.strip()), "")
    first = first.strip()
    if first.startswith(GRAPH6_HEADER):
        return True
    return bool(first) and not _NOT_G6.search(first)


def load(text: str) -> Graph:
    """Auto-detecting reader: graph6 when the first line carries the
    optional header or stays inside the graph6 charset, edge list
    otherwise (digits fall below chr(63), so "n m" headers never collide).
    A graph6 text must hold exactly one graph."""
    if _looks_like_graph6(text):
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) > 1:
            raise GraphError(f"graph6 text holds {len(lines)} graphs; expected one")
        return from_graph6(lines[0])
    return from_edge_list(text)


def load_path(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return load(fh.read())


def save_path(g: Graph, path: str) -> None:
    """graph6 for .g6 paths, edge list otherwise."""
    if path.endswith(".g6"):
        payload = to_graph6(g) + "\n"
    else:
        payload = to_edge_list(g)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(payload)
