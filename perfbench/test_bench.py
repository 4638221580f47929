"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

import walklab  # noqa: E402
import walklab.cli  # noqa: E402
import walklab.exact  # noqa: E402
import walklab.graphio  # noqa: E402


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    for sub in ("a", "b"):
        corpus.commands("period-random", 11, tmp_path / sub)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(names) == len(corpus.RANDOM_SHAPES)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert corpus.random_corpus(11) != corpus.random_corpus(12)


def test_graph6_encoder_agrees_with_walklab_reader():
    rng = random.Random(3)
    for k, n in corpus.RANDOM_SHAPES:
        edges = corpus.random_regular_edges(n, k, rng)
        g = walklab.graphio.from_graph6(corpus.graph6(n, edges))
        assert g.edges() == edges


def test_certificate_rejects_k_dividing_2n():
    edges = corpus.random_regular_edges(8, 4, random.Random(0))
    with pytest.raises(corpus.CertificateError, match="divides"):
        corpus.certify_not_periodic(8, 4, edges)
    edges = corpus.random_regular_edges(18, 3, random.Random(0))
    with pytest.raises(corpus.CertificateError, match="divides"):
        corpus.certify_not_periodic(18, 3, edges)


def test_certificate_rejects_disconnected_and_non_simple():
    two_k4 = [(u + s, v + s) for s in (0, 4) for u in range(4) for v in range(u + 1, 4)]
    with pytest.raises(corpus.CertificateError, match="connected"):
        corpus.certify_not_periodic(8, 3, two_k4)
    with pytest.raises(corpus.CertificateError, match="simple"):
        corpus.certify_not_periodic(4, 3, [(0, 1), (0, 1), (2, 2)])


def _bound_modules(fn) -> list:
    return [m for name, m in sys.modules.items()
            if name.split(".")[0] == "walklab" and any(v is fn for v in vars(m).values())]


def test_tracer_catches_each_binding_and_restores_all():
    originals = {"exact.charpoly": walklab.exact.charpoly,
                 "exact.int_matmul": walklab.exact.int_matmul}
    sample_args = {"exact.charpoly": ([[0, 1], [1, 0]],),
                   "exact.int_matmul": ([[1, 2]], [[3], [4]])}
    bound = {t: _bound_modules(fn) for t, fn in originals.items()}
    assert len(bound["exact.charpoly"]) >= 4  # exact, walk, cli, feasibility, package
    tracer = Tracer()
    tracer.install()
    try:
        for target, modules in bound.items():
            attr = target.split(".")[1]
            for mod in modules:
                before = len(tracer.spans)
                getattr(mod, attr)(*sample_args[target])
                assert [s[0] for s in tracer.spans[before:]] == [target], mod.__name__
    finally:
        tracer.uninstall()
    for target, modules in bound.items():
        for mod in modules:
            assert getattr(mod, target.split(".")[1]) is originals[target]
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "walklab":
            assert not any(getattr(v, "__wrapped_by_bench__", False) for v in vars(mod).values())


def _traced(argv: list[str]) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert walklab.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return layer_metrics(tracer.spans)


def test_trace_counts_on_analyze_and_tables():
    m = _traced(["analyze", "--expr", "cycle(8)"])
    assert m["exact.charpoly.calls"] == 3 + 1  # 16 arcs: one direct cross-check
    assert m["walk.cross_check.calls"] == 1
    assert m["walk.walk_regularity_check.matmuls"] == 2 * 8 - 1
    m = _traced(["tables", "--kmax", "6", "--format", "csv"])
    assert m["walk.spans"] == 0
    assert m["feasibility.enumerate_rows.rows"] > 0
    assert m["feasibility.enumerate_rows.candidates"] >= m["feasibility.enumerate_rows.rows"]


def test_gate_fails_on_a_wrong_expected_period(monkeypatch, capsys):
    c8 = next(g for g in corpus.load_expected()["realizations"] if g["name"] == "C8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        walklab.cli.main(["analyze", "--expr", c8["expr"]])
    assert corpus.check_analyze(0, out.getvalue(), c8) is None
    wrong = dict(c8, period=6)
    assert "expected period 6" in corpus.check_analyze(0, out.getvalue(), wrong)

    monkeypatch.setattr(corpus, "commands", lambda *a: [
        {"argv": ["analyze", "--expr", c8["expr"]], "expect": wrong}])
    code = run.main(["--workload", "analyze-families", "--seed", "1", "--seconds", "1"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code != 0
    assert '"correct": false' in last
