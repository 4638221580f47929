"""Golden CLI transcript: stdout, stderr and the exit code of a fixed set
of commands, run through `walklab.cli.main` and compared line by line
with tests/golden/cli.txt.

The transcript holds one block per command: `$ ` and the shell-quoted
argv, then `o|` before each stdout line and `e|` before each stderr line
(text split at every newline, so output that ends with one ends with an
empty `o|` or `e|` line), then `exit ` and the code.  `{tmp}` in an argv
stands for a directory that holds the random graphs' graph6 files.

An intended output change rewrites the file, from the repository root:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden/cli.txt
"""

from __future__ import annotations

import contextlib
import io
import random
import shlex
import sys
from pathlib import Path

from walklab.cli import main
from walklab.graphio import to_graph6

from oracles import random_regular

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"

# the paper's 15 periodic realizations and 3 witness graphs
FAMILIES = (
    "cycle(8)", "tensorj(cycle(6),2)", "tensorj(cycle(6),3)", "tensorj(cycle(6),4)",
    "tensorj(cycle(6),5)", "tensorj(cycle(8),2)", "tensorj(cycle(8),3)",
    "tensorj(cycle(8),4)", "tensorj(cycle(8),5)", "hamming(4,2)",
    "tensorj(hamming(4,2),2)", "bdouble(line(hypercube(3)))",
    "tensorj(bdouble(line(hypercube(3))),2)", "bdouble(hamming(3,3))",
    "cart(kbip(4,4),kbip(4,4))", "petersen()", "hypercube(6)", "line(hypercube(4))",
)

# (vertices, degree) of the random regular graphs, drawn in this order
# from one random.Random(1)
RANDOM_SHAPES = ((10, 3), (12, 3), (16, 3), (20, 3), (20, 3),
                 (12, 4), (14, 4), (16, 4), (12, 5), (16, 5))

INPUT_ERRORS = (
    ["period", "--expr", "cycle(2)"],
    ["analyze", "--expr", "cycle(6"],
    ["period", "--expr", "kbip(1,2)"],
    ["enumerate", "--class", "half", "--k", "x-4"],
    ["tables", "--kmax", "1", "--format", "csv"],
)


def write_random_graphs(directory: Path) -> list[str]:
    """Write the random graphs as graph6 files; their argv paths."""
    rng = random.Random(1)
    names = []
    for i, (n, k) in enumerate(RANDOM_SHAPES):
        name = f"r{i:02d}_n{n}_k{k}.g6"
        (directory / name).write_text(to_graph6(random_regular(n, k, rng)) + "\n",
                                      encoding="ascii")
        names.append("{tmp}/" + name)
    return names


def command_set(random_paths: list[str]) -> list[list[str]]:
    cmds = [["analyze", "--expr", expr] for expr in FAMILIES]
    cmds += [["period", "--expr", f"cycle({n})", "--format", "json"] for n in range(3, 13)]
    cmds += [["period", "--file", path, "--format", "json"] for path in random_paths]
    cmds.append(["tables", "--kmax", "12", "--format", "csv"])
    cmds.append(["enumerate", "--class", "sqrt3", "--k", "2-12", "--format", "json"])
    cmds += [list(argv) for argv in INPUT_ERRORS]
    return cmds


def transcript(directory: Path) -> list[str]:
    """The transcript lines of the command set, with the random graphs
    written to `directory`."""
    lines = []
    for argv in command_set(write_random_graphs(directory)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{tmp}", str(directory)) for a in argv])
        lines.append("$ " + shlex.join(argv))
        lines += ["o|" + line for line in out.getvalue().split("\n")]
        lines += ["e|" + line for line in err.getvalue().split("\n")]
        lines.append(f"exit {code}")
    return lines


def test_cli_output_matches_the_golden_transcript(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").split("\n")[:-1]
    got = transcript(tmp_path)
    for i, (want, line) in enumerate(zip(expected, got), start=1):
        assert line == want, f"{GOLDEN.name} line {i}"
    assert len(got) == len(expected)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("\n".join(transcript(Path(tmp))) + "\n")
