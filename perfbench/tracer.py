"""Outside-in tracer: times calls into walklab's public functions without
touching a file of walklab.

``Tracer.install`` walks every loaded ``walklab.*`` module and replaces
each module-level binding that *is* a target function with one timing
wrapper per target.  Module globals are the namespace a function looks
names up in, so this catches every call path: the defining module, the
``from .exact import charpoly`` copies in other modules, the package
re-exports, and modules added later.  ``uninstall`` puts every original
back.  Spans stay in memory; ``layer_metrics`` turns one pass's spans
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from typing import Any, Callable

Hook = Callable[[tuple, dict, Any], dict]


def _charpoly_dim(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"dim": len(args[0])}


def _sieve_degree(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"degree": args[0].degree()}


def _spectrum_unresolved(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"unresolved": int(type(result).__name__ == "Unresolved")}


def _rows(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": len(result)}


def _window(args: tuple, kwargs: dict, result: Any) -> dict:
    lo, hi = result
    return {"window": hi - math.ceil(lo) + 1}


# "module.function" -> hook that reads counters off the call, or None
TARGETS: dict[str, Hook | None] = {
    "cli.main": None,
    "cli.parse_expr": None,
    "graphio.load_path": None,
    "graphs.regularity": None,
    "graphs.is_connected": None,
    "graphs.is_bipartite": None,
    "graphs.count_quadrangles": None,
    "exact.charpoly": _charpoly_dim,
    "exact.extract_spectrum": _spectrum_unresolved,
    "exact.cyclotomic_sieve": _sieve_degree,
    "exact.kernel_dim": None,
    "exact.int_matmul": None,
    "walk.u_spectrum_model": None,
    "walk.u_charpoly_via_mapping": None,
    "walk.build_walk_matrices": None,
    "walk.decide_periodic": None,
    "walk.walk_regularity_check": None,
    "walk.hoffman_check": None,
    "feasibility.render_tables": None,
    "feasibility.enumerate_rows": _rows,
    "feasibility.n_bounds": _window,
    "feasibility.verify_realization": None,
}


class Tracer:
    """Collects spans ``[name, start_ns, end_ns, parent, cmd, counters]``;
    ``parent`` is the index of the enclosing traced span or -1, ``cmd``
    the id of the command being run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cmd = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.cmd, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for target, hook in TARGETS.items():
            mod_name, fn_name = target.split(".")
            fn = getattr(importlib.import_module("walklab." + mod_name), fn_name, None)
            if fn is None:
                self.missing.append(target)
                continue
            wrappers[id(fn)] = self._wrap(target, fn, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "walklab" or mod_name.startswith("walklab.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans

LAYER_METRICS: dict[str, str] = {
    "exact.cyclotomic_sieve.s": "s",
    "exact.cyclotomic_sieve.degree_sum": "count",
    "exact.charpoly.s": "s",
    "exact.charpoly.calls": "count",
    "exact.charpoly.dim_sum": "count",
    "exact.extract_spectrum.s": "s",
    "exact.extract_spectrum.calls": "count",
    "exact.extract_spectrum.unresolved": "count",
    "exact.kernel_dim.s": "s",
    "exact.int_matmul.s": "s",
    "exact.int_matmul.calls": "count",
    "walk.u_charpoly_via_mapping.s": "s",
    "walk.cross_check.s": "s",
    "walk.cross_check.calls": "count",
    "walk.walk_regularity_check.s": "s",
    "walk.walk_regularity_check.matmuls": "count",
    "walk.hoffman_check.s": "s",
    "walk.decide_periodic.s": "s",
    "walk.spans": "count",
    "graphs.count_quadrangles.s": "s",
    "graphs.predicates.s": "s",
    "feasibility.enumerate_rows.s": "s",
    "feasibility.enumerate_rows.candidates": "count",
    "feasibility.enumerate_rows.rows": "count",
    "feasibility.verify_realization.s": "s",
    "feasibility.render_tables.self_s": "s",
    "graphio.load_path.s": "s",
    "cli.parse_expr.s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans: list[list], scales: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics of one pass.  A function's ``.s`` is its inclusive
    time, counting only the outermost span where it recurses; ``self_s``
    subtracts the time of the traced spans directly beneath it.  ``scales``
    multiplies the times of each command's spans (default 1)."""
    secs = [(end - start) / 1e9 * (scales[cmd] if scales else 1.0)
            for _, start, end, _, cmd, _ in spans]
    child_s = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_s[span[3]] += secs[i]

    def nested_in_same(i: int) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[tuple[str, str], int] = {}
    under: dict[tuple[str, str], list[int]] = {}
    for i, (name, _, _, parent, _, ctr) in enumerate(spans):
        dur = secs[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
        if not nested_in_same(i):
            incl[name] = incl.get(name, 0.0) + dur
        for key, value in (ctr or {}).items():
            counters[name, key] = counters.get((name, key), 0) + value
        if parent >= 0:
            under.setdefault((spans[parent][0], name), []).append(i)

    def s(name: str) -> float:
        return incl.get(name, 0.0)

    def spans_under(parent: str, child: str) -> list[int]:
        return under.get((parent, child), [])

    cross = spans_under("walk.decide_periodic", "exact.charpoly")
    cross_build = spans_under("walk.decide_periodic", "walk.build_walk_matrices")
    window = sum(spans[i][5]["window"]
                 for i in spans_under("feasibility.enumerate_rows", "feasibility.n_bounds"))
    return {
        "exact.cyclotomic_sieve.s": s("exact.cyclotomic_sieve"),
        "exact.cyclotomic_sieve.degree_sum": counters.get(("exact.cyclotomic_sieve", "degree"), 0),
        "exact.charpoly.s": s("exact.charpoly"),
        "exact.charpoly.calls": calls.get("exact.charpoly", 0),
        "exact.charpoly.dim_sum": counters.get(("exact.charpoly", "dim"), 0),
        "exact.extract_spectrum.s": s("exact.extract_spectrum"),
        "exact.extract_spectrum.calls": calls.get("exact.extract_spectrum", 0),
        "exact.extract_spectrum.unresolved":
            counters.get(("exact.extract_spectrum", "unresolved"), 0),
        "exact.kernel_dim.s": s("exact.kernel_dim"),
        "exact.int_matmul.s": s("exact.int_matmul"),
        "exact.int_matmul.calls": calls.get("exact.int_matmul", 0),
        "walk.u_charpoly_via_mapping.s": s("walk.u_charpoly_via_mapping"),
        "walk.cross_check.s": sum(secs[i] for i in cross + cross_build),
        "walk.cross_check.calls": len(cross),
        "walk.walk_regularity_check.s": s("walk.walk_regularity_check"),
        "walk.walk_regularity_check.matmuls":
            len(spans_under("walk.walk_regularity_check", "exact.int_matmul")),
        "walk.hoffman_check.s": s("walk.hoffman_check"),
        "walk.decide_periodic.s": s("walk.decide_periodic"),
        "walk.spans": sum(n for name, n in calls.items() if name.startswith("walk.")),
        "graphs.count_quadrangles.s": s("graphs.count_quadrangles"),
        "graphs.predicates.s": sum(s("graphs." + p)
                                   for p in ("regularity", "is_connected", "is_bipartite")),
        "feasibility.enumerate_rows.s": s("feasibility.enumerate_rows"),
        "feasibility.enumerate_rows.candidates": window,
        "feasibility.enumerate_rows.rows": counters.get(("feasibility.enumerate_rows", "rows"), 0),
        "feasibility.verify_realization.s": s("feasibility.verify_realization"),
        "feasibility.render_tables.self_s": self_s.get("feasibility.render_tables", 0.0),
        "graphio.load_path.s": s("graphio.load_path"),
        "cli.parse_expr.s": s("cli.parse_expr"),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
