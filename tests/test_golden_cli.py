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
import json
import random
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from walklab.cli import main
from walklab.exact import Spectrum
from walklab.feasibility import REALIZATIONS
from walklab.graphio import load_path, to_graph6
from walklab.expressions import parse_expr
from walklab.graphs import is_connected, regularity
from walklab.oracles import charpoly, extract_spectrum, hoffman_check, power_sum

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


def _analyze_sources(directory: Path) -> list[tuple[str, str]]:
    """The graph sources (--expr or --file and its value) of the analyze
    and period commands of the transcript, sorted."""
    sources = set()
    for argv in command_set(write_random_graphs(directory)):
        if argv[0] in ("analyze", "period") and argv not in INPUT_ERRORS:
            sources.add(tuple(a.replace("{tmp}", str(directory)) for a in argv[1:3]))
    return sorted(sources)


def _graph(source: tuple[str, str]):
    """The built graph of an --expr or --file source."""
    option, value = source
    return parse_expr(value) if option == "--expr" else load_path(value)


def _analyze_json(source: tuple[str, str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", *source, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def test_analyze_reports_hoffman_as_the_oracle_finds_on_the_golden_graphs(tmp_path):
    # analyze reports the identity by Hoffman's theorem; the oracle
    # evaluates n q(A) = q(k) J on every connected regular graph of the
    # transcript
    sources = _analyze_sources(tmp_path)
    checked = 0
    for source in sources:
        g = _graph(source)
        if not regularity(g) or not is_connected(g):
            continue
        assert _analyze_json(source)["hoffman"] is hoffman_check(g) is True, source
        checked += 1
    # 18 families, C3 .. C12 less C8 (a family) and the 10 random graphs
    assert checked == len(sources) == 37


def test_analyze_reports_the_spectral_quadrangles_of_the_oracle_spectrum(tmp_path):
    # analyze prints the quadrangle count as the spectral one by the
    # identity tr A^4 = 8q + n(2k^2 - k); the CRT charpoly's spectrum
    # gives the fourth power sum on its own
    resolved = 0
    for source in _analyze_sources(tmp_path):
        g = _graph(source)
        k = regularity(g)
        report = _analyze_json(source)
        spec = extract_spectrum(charpoly(g.adjacency.tolist()))
        if not isinstance(spec, Spectrum):
            assert "q_spectral" not in report and "q_x_spectral" not in report, source
            continue
        q = Fraction(power_sum(spec, 4) - g.n * (2 * k * k - k), 8)
        assert report["q_spectral"] == str(q), source
        assert report["q_x_spectral"] == str(4 * q / g.n), source
        resolved += 1
    # of the 37 connected regular graphs, C7, C9, C11 and 9 random ones
    # do not resolve
    assert resolved == 25


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# every --expr of the transcript, the registry and the bench's
# analyze-families graphs (FAMILIES, K4,4□K4,4 included), and C8 x C8,
# which is regular and walk-regular by structure but disconnected, so
# analyze builds it for its colour classes
EXPRESSIONS = sorted({argv[argv.index("--expr") + 1] for argv in command_set([])
                      if "--expr" in argv}
                     | {expr for _, expr in REALIZATIONS.values()} | set(FAMILIES)
                     | {"kron(cycle(8),cycle(8))"})


@pytest.mark.parametrize("expr", EXPRESSIONS)
def test_an_expression_reports_as_the_graph_it_builds(tmp_path, expr):
    # --expr reads the expression off its structure, --file reads the
    # graph6 file that construct writes for it and builds the graph: each
    # command prints the same, in both formats, or refuses alike
    path = str(tmp_path / "g.g6")
    code, _, refusal = _cli(["construct", "--expr", expr, "--out", path])
    for command in ("analyze", "period", "quadrangles"):
        for fmt in ("text", "json"):
            got = _cli([command, "--expr", expr, "--format", fmt])
            if code:
                assert got == (1, "", refusal), (command, fmt)
            else:
                assert got == _cli([command, "--file", path, "--format", fmt]), (command, fmt)


def test_the_expressions_cover_the_transcript_registry_and_bench():
    # 18 families, C3 .. C12 less C8, the three refused or irregular ones
    # and C8 x C8
    assert len(EXPRESSIONS) == 18 + 9 + 3 + 1


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("\n".join(transcript(Path(tmp))) + "\n")
