"""One timed pass in a fresh interpreter.

    python3 perfbench/worker.py < pass.json

Imports walklab from the checkout's ``src``, builds the CLI parser and
notes the monotonic clock (the parent subtracts its spawn time to get
``setup_s``).  It then reads ``{"commands": [argv, ...], "trace": bool}``
on stdin, runs each argv through ``walklab.cli.main`` with stdout and
stderr captured, and writes one JSON result to stdout.  Before each
command it empties walklab's function caches, as a new process per CLI
call would, so a command's time does not depend on the ones before it.
Before each command and after the last it also times ``reference()``,
which tells the parent how fast the machine is running at that moment.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import walklab.cli

    if not Path(walklab.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"walklab was imported from {walklab.cli.__file__}, not {SRC}")
    walklab.cli.build_parser()
    return walklab.cli


def reference() -> None:
    """Fixed exact-arithmetic work owned by the bench: rationals and big
    integers, like walklab's own inner loops."""
    acc, x = Fraction(0), 1
    for i in range(1, 1200):
        acc += Fraction(i, i + 7)
        x = (x * 1103515245 + i) % (1 << 200)


def reference_seconds() -> float:
    """Time of one ``reference()``, fastest of two."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


def _function_caches() -> list:
    return [value for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "walklab"
            for value in vars(mod).values() if callable(getattr(value, "cache_clear", None))]


def run_pass(cli, commands: list[list[str]], trace: bool) -> dict:
    caches = _function_caches()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results, refs = [], []
    try:
        for i, argv in enumerate(commands):
            for cache in caches:
                cache.cache_clear()
            refs.append(reference_seconds())
            if tracer is not None:
                tracer.cmd = i
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code
            except Exception as exc:  # a raising command is a failed command
                error = f"{type(exc).__name__}: {exc}"
            results.append({"rc": rc, "error": error, "stdout": out.getvalue(),
                            "seconds": time.perf_counter() - t0})
        refs.append(reference_seconds())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "results": results,
        "ref_s": refs,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer is not None else None,
        "missing_targets": tracer.missing if tracer is not None else [],
    }


def main() -> None:
    cli = _import_cli()
    ready = time.monotonic()
    job = json.load(sys.stdin)
    result = run_pass(cli, job["commands"], job["trace"])
    result["ready"] = ready
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
