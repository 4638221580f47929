"""walklab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload analyze-families --seed 1 --seconds 40 --trace 0

Closed loop with one client: every command starts when the previous one
returns.  Each pass runs every command of the workload once, in a fresh
interpreter that empties walklab's caches before each command, so nothing
memoised for one command helps another.  A run makes at least two passes
and ends near ``--seconds``.  Times are scaled to a reference speed (see
README.md).  Every output is checked; any failed command makes the run
unusable for speed claims and the exit code non-zero.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run that
alternates untraced and traced passes.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
from tracer import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

MIN_PASSES = 2
RUN_LIMIT_S = 150  # a run stops starting passes past this, to end within 180 s
# worker.reference() on an idle core of a 2-vCPU x86-64 VM under CPython 3.11:
# the speed to which every time is scaled (see README.md)
REF_NOMINAL_S = 0.0034
END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def spawn_pass(argvs: list[list[str]], trace: bool, timeout: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER)], env=_env(), cwd=ROOT,
                          input=json.dumps({"commands": argvs, "trace": trace}),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["setup_s"] = result["ready"] - t0
    return result


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int, int]:
    """Returns (metrics, attempted, failed)."""
    started = time.monotonic()
    cmds = corpus.commands(workload, seed, OUT / f"corpus-{workload}-{seed}")
    argvs = [c["argv"] for c in cmds]
    spawn_pass([], False, timeout=60)  # unmeasured: the first start compiles bytecode

    first_stdout: list[str] | None = None
    attempted = failed = 0
    untraced: list[dict] = []
    traced: list[dict] = []
    pass_seconds: list[float] = []
    measure_start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        use_trace = trace and len(untraced) > len(traced)
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        try:
            res = spawn_pass(argvs, use_trace, timeout=max(remaining + 25, 1))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            attempted += len(cmds)
            failed += len(cmds)
            break
        (traced if use_trace else untraced).append(res)
        digests = [hashlib.sha256(r["stdout"].encode()).hexdigest() for r in res["results"]]
        if first_stdout is None:
            first_stdout = digests
        reasons = corpus.check_pass(workload, cmds, res["results"])
        for cmd, reason, digest, first in zip(cmds, reasons, digests, first_stdout):
            if reason is None and digest != first:
                reason = "stdout differs from the first pass"
            if reason is not None:
                failed += 1
                print(f"FAIL {' '.join(cmd['argv'])}: {reason}", file=sys.stderr)
        attempted += len(cmds)
        for target in res["missing_targets"]:
            print(f"note: trace target {target} not found in walklab", file=sys.stderr)

        now = time.monotonic()
        pass_seconds.append(now - pass_start)
        half_pass = statistics.median(pass_seconds) / 2  # runs end near --seconds on average
        enough = len(pass_seconds) >= MIN_PASSES and (not trace or traced)
        if enough and (now - measure_start + half_pass > seconds
                       or now - started + 2 * half_pass > RUN_LIMIT_S):
            break

    if not untraced or (trace and not traced):  # a pass failed before any measurement
        return {}, attempted, failed
    if trace:
        per_pass = [layer_metrics(p["spans"], command_scales(p)) for p in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
        metrics["trace.traced_wall_s"] = {"value": median_wall(traced), "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": median_wall(untraced), "unit": "s"}
        write_spans(workload, seed, traced, argvs)
    else:
        per_command = [statistics.median(times) for times in zip(*map(latencies, untraced))]
        values = {
            "setup_s": statistics.median(
                p["setup_s"] * REF_NOMINAL_S / statistics.median(p["ref_s"]) for p in untraced),
            "wall_s": median_wall(untraced),
            "cmd_p50_s": statistics.median(per_command),
            "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        raw_wall = statistics.median(sum(r["seconds"] for r in p["results"]) for p in untraced)
        print(f"{'wall_s, unscaled':32} {raw_wall:.6f} s ({len(untraced)} passes)")
        report_tail(per_command)
    return metrics, attempted, failed


def command_scales(p: dict) -> list[float]:
    """Per command, the factor that turns its seconds into seconds at the
    reference speed: the reference's nominal time over its measured time,
    averaged from just before and just after the command."""
    refs = p["ref_s"]
    return [2 * REF_NOMINAL_S / (before + after) for before, after in zip(refs, refs[1:])]


def latencies(p: dict) -> list[float]:
    return [r["seconds"] * f for r, f in zip(p["results"], command_scales(p))]


def median_wall(passes: list[dict]) -> float:
    return statistics.median(sum(latencies(p)) for p in passes)


def report_tail(per_command: list[float]) -> None:
    """cmd_p90_s only when at least ten commands lie beyond it."""
    n = len(per_command)
    if n >= 100:
        print(f"{'cmd_p90_s':32} {statistics.quantiles(per_command, n=10)[-1]:.6f} s (n={n})")
    else:
        print(f"{'cmd_p90_s':32} not reported: {n} commands, fewer than 10 beyond p90")


def write_spans(workload: str, seed: int, traced: list[dict], argvs: list[list[str]]) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for pass_no, p in enumerate(traced):
            for name, start, end, parent, cmd, counters in p["spans"]:
                fh.write(json.dumps({"pass": pass_no, "cmd": cmd, "argv": argvs[cmd],
                                     "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "counters": counters}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "walklab" / "cli.py").is_file():
        print(f"error: no walklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics, attempted, failed = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:.6f} {m['unit']}")
    print(f"{'fail_ratio':32} {failed / attempted:.6f} ({failed}/{attempted} commands)")
    if failed:
        print("VERDICT GATE: outputs failed their checks; this run is unusable for speed claims",
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
