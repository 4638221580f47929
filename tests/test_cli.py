"""Command-line interface: exit-code contract, builder grammar, output
determinism, file auto-detection, and the selfcheck fault injection."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import walklab
from walklab import exact, feasibility, graphs, walk
from walklab.cli import ExprError, _parse_k_range, main, parse_expr
from walklab.exact import Poly
from walklab.graphio import to_graph6
from walklab.graphs import cycle, petersen, tensor_allones

from oracles import random_regular


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# builder grammar


def test_parse_expr_compositional():
    g = parse_expr("tensorj(cycle(6),2)")
    assert g.adjacency.tolist() == tensor_allones(cycle(6), 2).adjacency.tolist()
    g = parse_expr(" bdouble( line( hypercube(3) ) ) ")
    assert g.n == 24
    assert parse_expr("kbip(3,3)").edge_count == 9
    assert parse_expr("cart(kbip(4,4),kbip(4,4))").n == 64
    assert parse_expr("petersen()").n == 10


def test_parse_expr_whitespace_insensitive():
    a = parse_expr("kron(cycle(5),complete(2))")
    b = parse_expr("  kron ( cycle( 5 ) , complete(2) )  ")
    assert a.adjacency.tolist() == b.adjacency.tolist()


def test_parse_expr_errors():
    for bad in ("cycle(6", "cycle(6))", "cycle()", "unknown(2)", "cycle(x)",
                "cycle(6)extra", "tensorj(cycle(6))", ""):
        with pytest.raises(ExprError):
            parse_expr(bad)


@pytest.mark.parametrize("expr, ch", [("cycle(\u0666)", "\u0666"),       # Arabic-Indic six
                                      ("hypercube(\uff13)", "\uff13"),  # fullwidth three
                                      ("cycle(\u00b2)", "\u00b2"),       # superscript two
                                      ("cycl\u00e9(3)", "\u00e9")])
def test_expr_accepts_only_ascii_letters_and_digits(capsys, expr, ch):
    with pytest.raises(ExprError, match=f"unexpected character {ch!r}"):
        parse_expr(expr)
    code, out, err = _run(capsys, "period", "--expr", expr)
    assert code == 1 and out == ""
    assert err == f"error: unexpected character {ch!r} in expression\n"


# ---------------------------------------------------------------------------
# period command


def test_period_blowup(capsys):
    code, out, _ = _run(capsys, "period", "--expr", "tensorj(cycle(6),2)")
    assert code == 0
    assert out.startswith("PERIODIC period=12")


def test_period_c8(capsys):
    code, out, _ = _run(capsys, "period", "--expr", "cycle(8)")
    assert code == 0 and "period=8" in out


def test_period_not_periodic_exit_code(capsys):
    code, out, _ = _run(capsys, "period", "--expr", "petersen()")
    assert code == 2
    assert out.strip() == "NOT PERIODIC witness=1/3"


def test_period_json(capsys):
    code, out, _ = _run(capsys, "period", "--expr", "cycle(6)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["periodic"] is True and payload["period"] == 6
    assert payload["orders"] == {"1": 2, "2": 2, "3": 2, "6": 2}


def test_period_from_graph6_file(tmp_path, capsys):
    code, out, _ = _run(capsys, "construct", "--expr", "petersen()",
                        "--out", str(tmp_path / "petersen.g6"))
    assert code == 0
    code, out, _ = _run(capsys, "period", "--file", str(tmp_path / "petersen.g6"))
    assert code == 2 and "witness=1/3" in out


def test_period_rejects_a_multi_graph_graph6_file(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_text(to_graph6(cycle(6)) + "\n" + to_graph6(petersen()) + "\n")
    code, out, err = _run(capsys, "period", "--file", str(path))
    assert code == 1 and out == ""
    assert "2 graphs" in err


def test_period_input_errors(capsys):
    code, _, err = _run(capsys, "period", "--expr", "kbip(1,3)")
    assert code == 1 and "NotRegular" in err
    code, _, err = _run(capsys, "period", "--expr", "nope(1)")
    assert code == 1 and "unknown builder" in err
    code, _, err = _run(capsys, "period", "--file", "/nonexistent/file")
    assert code == 1


@pytest.mark.parametrize("command", ["analyze", "period", "quadrangles"])
@pytest.mark.parametrize("name, text", [("empty.g6", "?\n"), ("empty.txt", "0 0\n")],
                         ids=["graph6", "edge_list"])
def test_empty_graph_is_an_input_error(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    code, out, err = _run(capsys, command, "--file", str(path))
    assert code == 1 and out == ""
    assert err == "error: graph has no vertices\n"


@pytest.mark.parametrize("text, err", [
    ("3 1\n1_0 2\n", "error: bad edge line: 1_0 2\n"),
    ("3 +2\n0 1\n1 2\n", "error: bad edge-list header: ['3', '+2']\n"),
])
def test_loose_number_spellings_in_an_edge_list_file(tmp_path, capsys, text, err):
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="ascii")
    code, out, got = _run(capsys, "period", "--file", str(path))
    assert code == 1 and out == "" and got == err


# Python refuses to convert an int of more than 4300 digits to or from
# text; walklab reads numbers up to 100 digits and names vertex counts
# from 10^100 up by that bound


def test_a_huge_hamming_vertex_count_names_the_cap(capsys, monkeypatch):
    monkeypatch.delenv("WALKLAB_MAX_VERTICES", raising=False)
    huge = "error: graph has at least 10^100 vertices; cap is 4096\n"
    assert _run(capsys, "period", "--expr", "hamming(20000,2)") == (1, "", huge)
    # refused without forming 3^(10^9)
    assert _run(capsys, "period", "--expr", "hamming(1000000000,3)") == (1, "", huge)
    # an ordinary count keeps its message
    assert _run(capsys, "period", "--expr", "hamming(13,2)") == \
        (1, "", "error: graph has 8192 vertices; cap is 4096\n")


def test_a_5000_digit_builder_argument_is_an_input_error(capsys):
    assert _run(capsys, "period", "--expr", f"cycle({'9' * 5000})") == \
        (1, "", "error: number has 5000 digits; at most 100 are read\n")
    # leading zeros are not significant digits
    assert parse_expr(f"cycle({'0' * 5000}6)").n == 6


def test_a_5000_digit_edge_list_header_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("9" * 5000 + " 0\n", encoding="ascii")
    assert _run(capsys, "analyze", "--file", str(path)) == \
        (1, "", "error: number has 5000 digits; at most 100 are read\n")


# ---------------------------------------------------------------------------
# analyze command


def test_analyze_cycle6(capsys):
    code, out, _ = _run(capsys, "analyze", "--expr", "cycle(6)")
    assert code == 0
    assert "spectrum: {[±2]^1, [±1]^2}" in out
    assert "bipartite: yes (parts 3/3)" in out
    assert "walk-regular: yes" in out
    assert "hoffman identity: ok" in out
    assert "quadrangles: q=0" in out
    assert "PERIODIC period=6" in out


def test_analyze_json(capsys):
    code, out, _ = _run(capsys, "analyze", "--expr", "cycle(8)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"] == "{[±2]^1, [±√2]^2, [0]^2}"
    assert payload["regular"] == 2 and payload["periodicity"].startswith("PERIODIC")


def test_analyze_unresolved_spectrum_gets_hoffman_and_min_poly_depth(capsys):
    code, out, _ = _run(capsys, "analyze", "--expr", "cycle(7)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"] is None
    assert payload["hoffman"] is True
    # m_A = (x - 2)(x^3 + x^2 - 2x - 1), so r <= 3 decides walk-regularity
    assert payload["walk_regular"] is True and payload["walk_regular_depth"] == 3
    code, out, _ = _run(capsys, "analyze", "--expr", "cycle(7)")
    assert "walk-regular: yes (checked r <= 3)" in out
    assert "hoffman identity: ok" in out
    with pytest.raises(SystemExit):
        main(["analyze", "--expr", "cycle(7)", "--rmax", "4"])


def test_analyze_computes_the_adjacency_charpoly_once(capsys, monkeypatch):
    # either route may compute it: the moment route, or the CRT charpoly
    # when the moment route returns no result
    sizes = []

    def counting(real):
        def wrapper(mat):
            result = real(mat)
            if result is not None:
                sizes.append(len(mat))
            return result
        return wrapper

    for fn_name in ("charpoly", "moment_route"):
        real = getattr(exact, fn_name)
        for name, mod in list(sys.modules.items()):
            if name.startswith("walklab") and getattr(mod, fn_name, None) is real:
                monkeypatch.setattr(mod, fn_name, counting(real))
    code, _, _ = _run(capsys, "analyze", "--expr", "cycle(8)")
    assert code == 0
    assert sizes == [8]  # no charpoly of the 16x16 time evolution


def test_period_and_analyze_run_neither_the_crt_charpoly_nor_euclid(capsys, monkeypatch, tmp_path):
    # Q8 and the (5, 42) bench shape pass the int64 line, and the (5, 42)
    # graph reaches t_n with no recurrence certified: both stay on the
    # moment route, with the CRT charpoly and Poly.gcd refusing to run
    for mod in (graphs, walk, feasibility):
        assert not hasattr(mod, "charpoly")

    def refuse(*args):
        raise AssertionError("an oracle ran on the hot path")

    for name, mod in list(sys.modules.items()):
        if name.startswith("walklab") and getattr(mod, "charpoly", None) is exact.charpoly:
            monkeypatch.setattr(mod, "charpoly", refuse)
    monkeypatch.setattr(Poly, "gcd", refuse)
    path = tmp_path / "k5n42.g6"
    path.write_text(to_graph6(random_regular(42, 5, random.Random(7))) + "\n", encoding="ascii")
    for source in (["--expr", "hypercube(8)"], ["--file", str(path)]):
        code, out, err = _run(capsys, "period", *source)
        assert code == 2 and out.startswith("NOT PERIODIC") and err == ""
        code, out, err = _run(capsys, "analyze", *source)
        assert code == 0 and "periodicity: NOT PERIODIC" in out and err == ""
    code, out, _ = _run(capsys, "period", "--expr", "hypercube(8)")
    assert out == "NOT PERIODIC witness=3/4\n"


def test_analyze_counts_quadrangles_once(capsys, monkeypatch):
    real = graphs.count_quadrangles
    calls = []

    def counting(g):
        calls.append(g.n)
        return real(g)

    for name, mod in list(sys.modules.items()):
        if name.startswith("walklab") and getattr(mod, "count_quadrangles", None) is real:
            monkeypatch.setattr(mod, "count_quadrangles", counting)
    code, out, _ = _run(capsys, "analyze", "--expr", "cycle(8)")
    assert code == 0
    assert "spectral quadrangles: q=0 q_x=0" in out
    assert calls == [8]


def test_analyze_irregular_graph(capsys):
    code, out, _ = _run(capsys, "analyze", "--expr", "kbip(1,3)")
    assert code == 0
    assert "regular: no" in out and "periodicity: n/a" in out


# ---------------------------------------------------------------------------
# construct and quadrangles


def test_construct_edge_list_roundtrip(tmp_path, capsys):
    path = tmp_path / "c6.txt"
    code, out, _ = _run(capsys, "construct", "--expr", "cycle(6)", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.splitlines()[0] == "6 6"
    code, out, _ = _run(capsys, "period", "--file", str(path))
    assert code == 0 and "period=6" in out


def test_quadrangles_command(capsys):
    code, out, _ = _run(capsys, "quadrangles", "--expr", "kbip(3,3)")
    assert code == 0
    assert out.strip() == "q=9 per-vertex constant: yes q_x=6"


# ---------------------------------------------------------------------------
# enumerate and tables


def test_enumerate_text(capsys):
    code, out, _ = _run(capsys, "enumerate", "--class", "sqrt2", "--k", "2")
    assert code == 0
    assert out.splitlines()[0].startswith("2 | 8 | {[±2]^1, [±√2]^2, [0]^2}")
    assert "C8" in out


def test_enumerate_range(capsys):
    code, out, _ = _run(capsys, "enumerate", "--class", "sqrt3", "--k", "4-10",
                        "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["k"], r["n"]) for r in rows] == [
        ("4", "32"), ("8", "64"), ("8", "256"),
        ("10", "50"), ("10", "200"), ("10", "500")]


def test_enumerate_past_the_window_scan_reach(capsys):
    code, out, _ = _run(capsys, "enumerate", "--class", "half", "--k", "100-110",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class,k,n,a,b,q,q_x,status,comment,realization"
    assert {l.split(",")[1] for l in lines[1:]} == {"100", "102", "104", "106", "108", "110"}


@pytest.mark.parametrize("bad", ["-4", "4-", "abc", "4-x"])
def test_enumerate_names_a_bad_k_value(capsys, bad):
    code, out, err = _run(capsys, "enumerate", "--class", "half", "--k", bad)
    assert code == 1 and out == ""
    assert err.strip() == f"error: invalid --k value {bad!r}: expected K or KMIN-KMAX"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--class", "half", "--k", "1_0"],
    ["enumerate", "--class", "half", "--k", "\u0664"],      # Arabic-Indic four
    ["enumerate", "--class", "half", "--k", "+4-+4"],
    ["tables", "--kmax", "1_0"],
    ["tables", "--kmax", "\u0664"],
], ids=["k-underscore", "k-arabic", "k-signs", "kmax-underscore", "kmax-arabic"])
def test_degree_arguments_accept_only_ascii_digits(capsys, argv):
    if argv[0] == "enumerate":
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: invalid --k value {argv[-1]!r}: expected K or KMIN-KMAX\n"
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument --kmax: invalid int value: {argv[-1]!r}" in capsys.readouterr().err


def test_a_degree_range_is_a_range_not_a_list():
    # a list would hold every degree of --k 2-10000000000 up front
    assert _parse_k_range("2-10") == range(2, 11, 2)
    assert _parse_k_range("3-9") == range(4, 10, 2)


def test_tables_csv(capsys):
    code, out, _ = _run(capsys, "tables", "--kmax", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class,k,n,a,b,q,q_x,status,comment,realization"
    half_rows = [l for l in lines if l.startswith("half,4,")]
    assert len(half_rows) == 7
    assert half_rows[0].startswith("half,4,12,2,6,30,10,feasible,")
    assert "C6⊗J2" in half_rows[0]


def test_tables_rejects_a_degree_bound_below_two(capsys):
    code, out, err = _run(capsys, "tables", "--kmax", "1")
    assert code == 1 and out == ""
    assert err == "error: k_max must be at least 2\n"


def test_tables_runtime_and_determinism(capsys):
    first = _run(capsys, "tables", "--kmax", "10", "--format", "csv")
    second = _run(capsys, "tables", "--kmax", "10", "--format", "csv")
    assert first == second and first[0] == 0


# ---------------------------------------------------------------------------
# selfcheck


def test_selfcheck_passes(capsys):
    code, out, _ = _run(capsys, "selfcheck")
    assert code == 0
    assert "selfcheck: all ok" in out
    assert "FAIL" not in out


def test_selfcheck_rejects_the_removed_seed_flag(capsys):
    with pytest.raises(SystemExit):
        main(["selfcheck", "--seed", "1"])


def test_selfcheck_is_byte_identical_across_runs(capsys):
    assert _run(capsys, "selfcheck") == _run(capsys, "selfcheck")


def test_import_walklab_leaves_the_oracles_out():
    # the package and the hot-path modules never import walklab.oracles;
    # only the CLI does, for selfcheck
    src = str(Path(walklab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys, walklab; "
              "assert 'walklab.oracles' not in sys.modules; "
              "import walklab.oracles")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_selfcheck_detects_corrupted_cyclotomic(capsys, monkeypatch):
    real = exact.cyclotomic.__wrapped__

    def corrupted(d):
        if d == 6:
            return Poly([1, 1, 1])  # wrong polynomial for d = 6
        return real(d)

    monkeypatch.setattr(exact, "cyclotomic", corrupted)
    try:
        code, out, _ = _run(capsys, "selfcheck")
    finally:  # min_poly_2cos may have cached a value built from the wrong Phi_6
        exact.min_poly_2cos.cache_clear()
    assert code == 1
    assert "FAIL" in out


def test_selfcheck_detects_a_wrong_minimal_polynomial(capsys, monkeypatch):
    # the moment route reports m_A = 1, which cannot annihilate A
    real = exact.moment_route

    def wrong(a):
        moments = real(a)
        return dataclasses.replace(moments, min_poly=Poly.one())

    monkeypatch.setattr(graphs, "moment_route", wrong)
    code, out, _ = _run(capsys, "selfcheck")
    assert code == 1
    assert "FAIL minimal polynomial annihilates A and divides the charpoly" in out


def test_period_rejects_the_removed_no_oracle_flag(capsys):
    for command in ("period", "analyze"):
        with pytest.raises(SystemExit):
            main([command, "--expr", "tensorj(cycle(8),3)", "--no-oracle"])


def test_broken_invariant_exits_internal(capsys, monkeypatch):
    # a wrong psi_d never divides p_2T, so the 2cos sieve runs past its
    # Kronecker bound and reports a broken invariant
    monkeypatch.setattr(walk, "min_poly_2cos", lambda d: Poly([1, 0, 1]))
    code, out, err = _run(capsys, "period", "--expr", "cycle(6)")
    assert code == 3 and out == ""
    assert err.startswith("error: internal: ")
