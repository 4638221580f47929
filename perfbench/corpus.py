"""Workloads of the benchmark: the commands each one sends to
``walklab.cli.main`` and the checks its outputs must pass.

Nothing here imports walklab.  The random graphs are built and encoded
by the bench itself, and every expected value comes from the hand-written
``expected.json`` or from closed-form formulas of the paper, so a change
to walklab can neither alter the inputs nor the yardstick.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import re
from collections import deque
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("analyze-families", "period-random", "tables")

# period-random: (degree, vertex count) of each graph, every one with k not
# dividing 2n.  One graph's cost swings by about 22% with its structure, so
# most of the pass is one cluster of same-shape graphs: 24 cubic graphs on
# 20 vertices hold the per-command median, and their count keeps it and
# the pass total steady from seed to seed.  The (5, 42) graph has 210 arcs
# and skips the 200-arc cross-check that the others take.
RANDOM_SHAPES = ((3, 16),) * 4 + ((3, 20),) * 24 + ((5, 42),)

# K4,4□K4,4 alone takes a fifth of an analyze-families pass; without it a
# pass fits three to four times into a run, enough for each command's
# median over the passes to stay steady (see README.md).
ANALYZE_SKIP = {"K4,4□K4,4"}

TABLE_KMAX = 40
TABLE_FORMATS = ("text", "csv", "json")
THETA_SQ = {"half": Fraction(1, 4), "sqrt2": Fraction(1, 2), "sqrt3": Fraction(3, 4)}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# seeded random regular graphs


class CertificateError(ValueError):
    """A generated graph lacks a property the workload relies on."""


def random_regular_edges(n: int, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected simple k-regular graph on n vertices: configuration model,
    rejecting any pairing with a loop, a repeated edge or two components."""
    if (n * k) % 2:
        raise ValueError("n*k must be even")
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * k // 2 and all(u != v for u, v in edges):
            edges = sorted(edges)
            if is_connected(n, edges):
                return edges


def is_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in nbrs[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def certify_not_periodic(n: int, k: int, edges: list[tuple[int, int]]) -> None:
    """Check the facts that make the walk provably not periodic.

    For a k-regular graph on n vertices, the x^(n-2) coefficient of the
    charpoly of 2T = 2A/k is -(4/k^2) * E = -2n/k.  A periodic walk needs
    that charpoly in Z[x], so k not dividing 2n refutes periodicity."""
    if (2 * n) % k == 0:
        raise CertificateError(f"k={k} divides 2n={2 * n}: no certificate")
    if any(u == v for u, v in edges) or len(set(edges)) != len(edges):
        raise CertificateError("graph is not simple")
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if any(d != k for d in degree):
        raise CertificateError(f"graph is not {k}-regular")
    if not is_connected(n, edges):
        raise CertificateError("graph is not connected")


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 line for n <= 62: upper triangle column by column, six bits
    a character, offset by 63."""
    if not 0 < n <= 62:
        raise ValueError("this encoder covers 1 <= n <= 62")
    present = set(edges)
    bits = [int((i, j) in present) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[p:p + 6])), 2))
                   for p in range(0, len(bits), 6))
    return chr(63 + n) + body


def random_corpus(seed: int) -> list[tuple[str, str]]:
    """(file name, graph6 line) for every period-random graph."""
    rng = random.Random(seed)
    out = []
    for i, (k, n) in enumerate(RANDOM_SHAPES):
        edges = random_regular_edges(n, k, rng)
        certify_not_periodic(n, k, edges)
        out.append((f"g{i:02d}_k{k}_n{n}.g6", graph6(n, edges)))
    return out


# ---------------------------------------------------------------------------
# commands


def commands(workload: str, seed: int, corpus_dir: Path) -> list[dict]:
    """The commands of one pass.  Each is a dict with the argv for
    ``walklab.cli.main`` and what its output must show.  Only the
    period-random graphs depend on the seed."""
    expected = load_expected()
    if workload == "analyze-families":
        cmds = [{"argv": ["analyze", "--expr", g["expr"]], "expect": g}
                for g in expected["realizations"] + expected["witness_graphs"]
                if g["name"] not in ANALYZE_SKIP]
    elif workload == "period-random":
        corpus_dir.mkdir(parents=True, exist_ok=True)
        cmds = []
        for name, line in random_corpus(seed):
            path = corpus_dir / name
            path.write_text(line + "\n", encoding="ascii")
            cmds.append({"argv": ["period", "--file", os.path.relpath(path, HERE.parent)],
                         "expect": {"name": name}})
    elif workload == "tables":
        cmds = [{"argv": ["tables", "--kmax", str(TABLE_KMAX), "--format", fmt],
                 "expect": {"format": fmt}} for fmt in TABLE_FORMATS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else the reason


_PERIODIC = re.compile(r"PERIODIC period=(\d+) orders=\{[\d,]+\}")
_WITNESS = re.compile(r"NOT PERIODIC witness=(\S+)")


def check_analyze(rc: int, out: str, expect: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    lines = out.splitlines()
    if not lines or not lines[0].startswith(f"graph: n={expect['n']} "):
        return f"expected n={expect['n']}"
    if f"regular: k={expect['k']}" not in lines:
        return f"expected regular: k={expect['k']}"
    verdict = lines[-1].removeprefix("periodicity: ")
    if "period" in expect:
        m = _PERIODIC.fullmatch(verdict)
        if m is None or int(m.group(1)) != expect["period"]:
            return f"verdict {verdict!r}, expected period {expect['period']}"
        return None
    m = _WITNESS.fullmatch(verdict)
    if m is None or Fraction(m.group(1)) not in {Fraction(w) for w in expect["witnesses"]}:
        return f"verdict {verdict!r}, expected a witness in {expect['witnesses']}"
    return None


def check_period_random(rc: int, out: str, expect: dict) -> str | None:
    if rc != 2:
        return f"exit code {rc}, expected 2 (not periodic)"
    if not out.startswith("NOT PERIODIC "):
        return f"verdict {out.strip()!r}, expected NOT PERIODIC"
    return None


def _check_table_record(rec: dict) -> str | None:
    """Recompute a row's multiplicities and quadrangle counts from the
    power sums of {[±k]^1, [±θ]^a, [0]^b} and compare."""
    k, n, a, b = (int(rec[f]) for f in ("k", "n", "a", "b"))
    tsq = THETA_SQ[rec["class"]] * k * k
    if k % 2 or n % 2:
        return "odd k or n"
    if not 2 * (k * k + tsq) / k <= n <= 2 * k * (k * k - tsq):
        return "n outside the window"
    if Fraction(n * k - 2 * k * k) / (2 * tsq) != a or b != n - 2 - 2 * a or a < 1 or b < 1:
        return "multiplicities do not match the power sums"
    if (2 * k ** 4 + (n * k - 2 * k * k) * tsq) % n:
        return "closed 4-walk count is not integral"
    q = (2 * k ** 4 + 2 * a * tsq * tsq - n * (2 * k * k - k)) / 8
    qx = 4 * q / n
    if Fraction(rec["q"]) != q or Fraction(rec["q_x"]) != qx:
        return "quadrangle counts do not match the power sums"
    feasible = q.denominator == 1 and qx.denominator == 1 and q >= 0 and qx >= 0
    if rec["status"] != ("feasible" if feasible else "eliminated"):
        return f"status {rec['status']!r} contradicts q={q}, q_x={qx}"
    return None


def _table_key(rec: dict) -> tuple:
    return (rec["class"], int(rec["k"]), int(rec["n"]), rec["status"], rec["realization"])


def _text_table_keys(out: str) -> list[tuple]:
    keys, cls = [], None
    for line in out.splitlines():
        if line.startswith("theta-class "):
            cls = line.removeprefix("theta-class ")
        elif line and not line.startswith("k | "):
            k, n, _, status, realization = line.split(" | ")[:5]
            keys.append((cls, int(k), int(n), status, realization))
    return keys


def check_tables(rc: int, out: str, expect: dict, csv_out: str | None) -> str | None:
    """csv and json rows must satisfy the power-sum identities and list
    every known realization as feasible; the text table must hold the same
    rows as the csv table of the same pass."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    fmt = expect["format"]
    if fmt == "text":
        if csv_out is None:
            return "no csv table in the pass to compare the text table with"
        want = [_table_key(r) for r in csv.DictReader(io.StringIO(csv_out))]
        return None if _text_table_keys(out) == want else "text rows differ from csv rows"
    records = (list(csv.DictReader(io.StringIO(out))) if fmt == "csv"
               else json.loads(out))
    order = {"half": 0, "sqrt2": 1, "sqrt3": 2}
    keys = [(order[r["class"]], int(r["k"]), int(r["n"])) for r in records]
    if keys != sorted(keys):
        return "rows are not sorted by (class, k, n)"
    for rec in records:
        reason = _check_table_record(rec)
        if reason is not None:
            return f"row {rec['class']} k={rec['k']} n={rec['n']}: {reason}"
    found = {(r["class"], int(r["k"]), int(r["n"])): r for r in records}
    for real in load_expected()["realizations"]:
        rec = found.get((real["class"], real["k"], real["n"]))
        if rec is None or rec["status"] != "feasible" or rec["realization"] != real["name"]:
            return f"realization {real['name']} missing or not feasible"
    return None


def check_pass(workload: str, cmds: list[dict], results: list[dict]) -> list[str | None]:
    """One failure reason (or None) per command of a pass."""
    csv_out = next((r["stdout"] for c, r in zip(cmds, results)
                    if c["expect"].get("format") == "csv" and r["error"] is None), None)
    reasons = []
    for cmd, res in zip(cmds, results):
        if res["error"] is not None:
            reasons.append(f"raised {res['error']}")
        elif workload == "analyze-families":
            reasons.append(check_analyze(res["rc"], res["stdout"], cmd["expect"]))
        elif workload == "period-random":
            reasons.append(check_period_random(res["rc"], res["stdout"], cmd["expect"]))
        else:
            reasons.append(check_tables(res["rc"], res["stdout"], cmd["expect"], csv_out))
    return reasons
