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


def _g6_decode_size(s: str) -> tuple[int, str]:
    if not s:
        raise GraphError("empty graph6 string")
    if s[0] != chr(126):
        return ord(s[0]) - 63, s[1:]
    if len(s) >= 2 and s[1] == chr(126):
        chunk, rest = s[2:8], s[8:]
        if len(chunk) != 6:
            raise GraphError("truncated graph6 size")
    else:
        chunk, rest = s[1:4], s[4:]
        if len(chunk) != 3:
            raise GraphError("truncated graph6 size")
    n = 0
    for ch in chunk:
        n = (n << 6) | (ord(ch) - 63)
    return n, rest


def to_graph6(g: Graph) -> str:
    """Canonical graph6 line (no header, no trailing newline)."""
    # the entries (i, j) with i < j, column by column: as A is symmetric,
    # the strict lower triangle row by row
    bits = g.adjacency[np.tri(g.n, k=-1, dtype=bool)]
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=np.int64)])
    values = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1)) + 63
    return _g6_encode_size(g.n) + values.astype(np.uint8).tobytes().decode("ascii")


def from_graph6(line: str) -> Graph:
    """The inverse of to_graph6: every character must lie in '?'..'~', and
    the body's six bits a character fill the lower triangle, and its mirror."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    values = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.int64) - 63
    invalid = np.flatnonzero((values < 0) | (values > 63))
    if invalid.size:
        raise GraphError(f"invalid graph6 character {s[invalid[0]]!r}")
    n, rest = _g6_decode_size(s)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(rest) != need:
        raise GraphError(f"graph6 body has {len(rest)} characters, expected {need}")
    body = values[len(s) - len(rest):].astype(np.uint8)
    bits = np.unpackbits(body[:, None], axis=1)[:, 2:].ravel()
    pairs = n * (n - 1) // 2
    if bits[pairs:].any():
        raise GraphError("nonzero padding bits in graph6 body")
    _check_vertex_count(n)
    adj, lower = np.zeros((n, n), dtype=np.uint8), np.tri(n, k=-1, dtype=bool)
    adj[lower] = adj.T[lower] = bits[:pairs]
    return Graph(adj)


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
    return bool(first) and all(63 <= ord(ch) <= 126 for ch in first)


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
