"""Command-line interface: exit-code contract, builder grammar, output
determinism, file auto-detection, the selfcheck fault injection, and the
option-table parse against the full parser."""

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import walklab
from walklab import cli, exact, expressions, feasibility, graphs, oracles, walk
from walklab.cli import ExprError, _parse_k_range, build_parser, main, parse_args, parse_expr
from walklab.exact import Poly
from walklab.graphio import to_graph6
from walklab.expressions import read_expr
from walklab.graphs import Graph, GraphError, cycle, petersen, tensor_allones

from oracles import build_as_read, decide_periodic_by_fractions, parse_tree, random_regular


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


# malformed expressions and the error each one gives: a constructor's
# refusal comes before a later syntax error, in the closed-form reading
# (`read_expr`) as well
PARSE_ERRORS = [
    ("tensorj(cycle(2),x)", GraphError, "a cycle needs at least 3 vertices"),
    ("kron(cycle(2),cycle(", GraphError, "a cycle needs at least 3 vertices"),
    ("cart(kbip(0,1),)", GraphError, "both parts need at least one vertex"),
    ("tensorj(cycle(6),0)", GraphError, "blow-up factor must be >= 1"),
    ("cart(cycle(60),cycle(70))", GraphError, "graph has 4200 vertices; cap is 4096"),
    ("cycle(6", ExprError, "expected ')', got 'end of input'"),
    ("cart(cycle(6))", ExprError, "expected ',', got ')'"),
    ("line(petersen(),)", ExprError, "expected ')', got ','"),
    ("cycle(6))", ExprError, "trailing input after expression: ')'"),
    ("cycle(3) (", ExprError, "trailing input after expression: '('"),
    ("cycle()", ExprError, "builder 'cycle' expects an integer argument"),
    ("line(6)", ExprError, "builder 'line' expects an expression argument"),
    ("tensorj(6,cycle(6))", ExprError, "builder 'tensorj' expects an expression argument"),
    ("line()", ExprError, "builder 'line' expects an expression argument"),
    ("tensorj(,2)", ExprError, "builder 'tensorj' expects an expression argument"),
    ("line(", ExprError, "unexpected end of expression"),
    ("line(foo(2))", ExprError, "unknown builder 'foo'"),
    ("unknown(2)", ExprError, "unknown builder 'unknown'"),
    ("", ExprError, "unexpected end of expression"),
    ("cycle(6)$", ExprError, "unexpected character '$' in expression"),
]


@pytest.mark.parametrize("expr, error, text", PARSE_ERRORS)
def test_parse_expr_error_texts(expr, error, text):
    with pytest.raises(error) as info:
        parse_expr(expr)
    assert type(info.value) is error and str(info.value) == text
    with pytest.raises(error) as info:
        read_expr(expr)
    assert type(info.value) is error and str(info.value) == text
    if error is ExprError:  # syntax: the tree reading refuses it alike
        with pytest.raises(ExprError) as info:
            parse_tree(expr)
        assert str(info.value) == text


def test_trace_rules_refuse_what_their_constructors_refuse(monkeypatch):
    for expr in ("tensorj(cycle(6),0)", "tensorj(cycle(2),0)", "kron(cycle(6),kbip(0,1))",
                 "cart(line(complete(1)),cycle(6))", "bdouble(hamming(1,1))",
                 "line(tensorj(complete(1),3))", "hamming(400,2)", "tensorj(cycle(3),10000)",
                 "line(kbip(1,5000))", "bdouble(cycle(2)"):
        with pytest.raises(GraphError) as built:
            build_as_read(expr)
        with pytest.raises(GraphError) as traced:
            read_expr(expr)
        assert str(traced.value) == str(built.value), expr
        assert _refusal(parse_expr, expr) == str(built.value), expr
    with pytest.raises(GraphError, match="^blow-up factor must be >= 1$"):
        read_expr("tensorj(cycle(6),0)")
    # the cap is met at the node whose constructor meets it, with its text
    for cap in ("1", "2", "9", "x"):
        monkeypatch.setenv("WALKLAB_MAX_VERTICES", cap)
        for expr in ("bdouble(complete(1))", "petersen()", "cart(cycle(3),cycle(3))",
                     "line(kbip(1,3))"):
            assert _refusal(read_expr, expr) == _refusal(build_as_read, expr), (cap, expr)
            assert _refusal(parse_expr, expr) == _refusal(build_as_read, expr), (cap, expr)


def _refusal(read, expr):
    """The text of the GraphError that reading expr raises, or None."""
    try:
        read(expr)
    except GraphError as exc:
        return str(exc)
    return None


def test_parse_tree_is_one_key_however_spaced():
    tree = parse_tree("tensorj(cycle(6),2)")
    assert tree == ("tensorj", (("cycle", (6,)), 2))
    assert parse_tree(" tensorj ( cycle( 6 ) , 2 ) ") == tree
    assert hash(parse_tree("tensorj(cycle(006),2)")) == hash(tree)


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


def test_the_documented_builders_are_the_builder_table():
    # every `name(` of the grammar in the help text and in the README
    help_grammar = cli._HELP.split("builder grammar:\n\n")[1].split("\n\n")[0]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Builder expressions compose and ignore whitespace")[1].split("\n\n")[0]
    for text in (help_grammar, paragraph):
        assert set(re.findall(r"([A-Za-z]\w*)\(", text)) == expressions._BUILDERS.keys()


def _nested(builder, inner, depth):
    """`inner` wrapped in `depth` calls of a one-argument builder."""
    return f"{builder}(" * depth + inner + ")" * depth


def test_an_expression_nested_past_the_limit_is_an_input_error(capsys):
    # 1200 frames of the recursive descent would pass Python's recursion
    # limit; the bound refuses the expression before it is read that deep
    for expr in (_nested("bdouble", "cycle(4)", 1200), _nested("line", "cycle(3)", 1200),
                 _nested("line", "cycle(3)", expressions.MAX_NESTING)):
        code, out, err = _run(capsys, "period", "--expr", expr)
        assert (code, out) == (1, "")
        assert err == "error: expression nests builders more than 200 deep\n"
        with pytest.raises(ExprError):
            parse_tree(expr)


def test_an_expression_nested_to_the_limit_parses(capsys):
    # line(C3) is C3 again, so MAX_NESTING builders deep is still a triangle
    expr = _nested("line", "cycle(3)", expressions.MAX_NESTING - 1)
    assert parse_expr(expr).n == 3
    tree = parse_tree(expr)
    for _ in range(expressions.MAX_NESTING - 1):
        name, (tree,) = tree
        assert name == "line"
    assert tree == ("cycle", (3,))
    assert _run(capsys, "period", "--expr", expr) == (0, "PERIODIC period=3 orders={1,3}\n", "")


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


@pytest.mark.parametrize("argv, text, code, lines", [
    (["period"], None, 1, ["error: one of --expr or --file is required"]),
    # neither option is dropped: both together are refused, and an empty
    # expression is read as one
    (["period", "--expr", "cycle(6)", "--file", "/nonexistent"], None, 1,
     ["error: --expr and --file exclude each other; give one of them"]),
    (["analyze", "--file", "{path}", "--expr", "cycle(6)"], "1 0\n", 1,
     ["error: --expr and --file exclude each other; give one of them"]),
    (["period", "--expr", ""], None, 1, ["error: unexpected end of expression"]),
    (["period", "--file", "{path}"], "", 1, ["error: empty edge list"]),
    (["period", "--file", "{path}"], "~~??\n", 1, ["error: truncated graph6 size"]),
    (["period", "--file", "{path}"], "~?\n", 1, ["error: truncated graph6 size"]),
    (["period", "--expr", "complete(0)"], None, 1,
     ["error: complete graph needs at least 1 vertex"]),
    (["tables", "--kmax", "1" * 101], None, 2,
     ["usage: walklab tables [-h] --kmax KMAX [--format {text,csv,json}]",
      "walklab tables: error: argument --kmax: number has 101 digits; at most 100 are read"]),
], ids=["no-graph", "expr-and-file", "file-and-expr", "empty-expr", "empty-file", "graph6-size-long", "graph6-size-short", "complete-0",
        "kmax-101-digits"])
def test_input_errors_exit_with_one_message(tmp_path, capsys, argv, text, code, lines):
    path = tmp_path / "g"
    if text is not None:
        path.write_text(text, encoding="ascii")
    argv = [str(path) if arg == "{path}" else arg for arg in argv]
    if code == 2:  # a usage error: argparse exits
        with pytest.raises(SystemExit) as exc:
            main(argv)
        got, captured = exc.value.code, capsys.readouterr()
        out, err = captured.out, captured.err
    else:
        got, out, err = _run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.splitlines() == lines


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


def _graph6_file(tmp_path, expr):
    """The path of a graph6 file holding the built graph of expr."""
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(parse_expr(expr)) + "\n", encoding="ascii")
    return str(path)


def test_analyze_computes_the_adjacency_charpoly_once(capsys, monkeypatch, tmp_path):
    # counted on the moment route and on the CRT charpoly of walklab.oracles,
    # for a graph read from a file; an expression runs neither
    sizes = []

    def counting(real):
        def wrapper(mat):
            result = real(mat)
            if result is not None:
                sizes.append(len(mat))
            return result
        return wrapper

    for real in (oracles.charpoly, exact.moment_route):
        fn_name = real.__name__
        for name, mod in list(sys.modules.items()):
            if name.startswith("walklab") and getattr(mod, fn_name, None) is real:
                monkeypatch.setattr(mod, fn_name, counting(real))
    code, _, _ = _run(capsys, "analyze", "--file", _graph6_file(tmp_path, "cycle(8)"))
    assert code == 0
    assert sizes == [8]  # no charpoly of the 16x16 time evolution
    assert _run(capsys, "analyze", "--expr", "cycle(8)")[0] == 0
    assert sizes == [8]


def test_analyze_builds_p_a_only_where_the_route_certified_no_m_a(capsys, monkeypatch, tmp_path):
    # C6xJ2 (s = 5): the route certifies m_A, so the spectrum and the
    # verdict come from m_A and its traces, no p_A is built, and nothing of
    # degree above s is deflated.  C8 read from a file (2s >= n) certifies
    # no m_A by t_8 and builds p_A once; its expression has traces past t_8
    # and builds none
    newton, deflated = [], []
    real_newton, real_deflate = exact._newton, Poly.deflate

    def counting_newton(traces, c=None):
        newton.append(traces[0])
        return real_newton(traces, c)

    def recording_deflate(self, f):
        deflated.append(self.degree())
        return real_deflate(self, f)

    monkeypatch.setattr(exact, "_newton", counting_newton)
    monkeypatch.setattr(Poly, "deflate", recording_deflate)
    code, out, _ = _run(capsys, "analyze", "--expr", "tensorj(cycle(6),2)")
    assert code == 0 and "periodicity: PERIODIC period=12" in out
    assert newton == []
    assert deflated and max(deflated) <= 5
    code, out, _ = _run(capsys, "analyze", "--file", _graph6_file(tmp_path, "cycle(8)"))
    assert code == 0 and "periodicity: PERIODIC period=8" in out
    assert newton == [8]
    assert _run(capsys, "analyze", "--expr", "cycle(8)")[1] == out
    assert newton == [8]


def test_period_and_analyze_run_neither_the_crt_charpoly_nor_euclid(capsys, monkeypatch, tmp_path):
    # Q8 and the (5, 42) bench shape pass the int64 line, and the (5, 42)
    # graph reaches t_n with no recurrence certified: both stay on the
    # moment route, with the CRT charpoly, int_matmul, Euclid's gcd and the
    # Hoffman identity check refusing to run
    for mod in (graphs, walk, feasibility, exact, cli):
        assert not hasattr(mod, "charpoly") and not hasattr(mod, "int_matmul")
    assert not hasattr(Poly, "gcd")

    def refuse(*args):
        raise AssertionError("an oracle ran on the hot path")

    for fn_name in ("charpoly", "int_matmul", "gcd", "hoffman_check"):
        real = getattr(oracles, fn_name)
        for name, mod in list(sys.modules.items()):
            if name.startswith("walklab") and getattr(mod, fn_name, None) is real:
                monkeypatch.setattr(mod, fn_name, refuse)
    path = tmp_path / "k5n42.g6"
    path.write_text(to_graph6(random_regular(42, 5, random.Random(7))) + "\n", encoding="ascii")
    for source in (["--expr", "hypercube(8)"], ["--file", str(path)]):
        code, out, err = _run(capsys, "period", *source)
        assert code == 2 and out.startswith("NOT PERIODIC") and err == ""
        code, out, err = _run(capsys, "analyze", *source)
        assert code == 0 and "periodicity: NOT PERIODIC" in out and err == ""
    code, out, _ = _run(capsys, "period", "--expr", "hypercube(8)")
    assert out == "NOT PERIODIC witness=3/4\n"


def test_analyze_counts_quadrangles_once(capsys, monkeypatch, tmp_path):
    # on a graph read from a file; an expression's come from its t_4
    real = graphs.count_quadrangles
    calls = []

    def counting(g):
        calls.append(g.n)
        return real(g)

    for name, mod in list(sys.modules.items()):
        if name.startswith("walklab") and getattr(mod, "count_quadrangles", None) is real:
            monkeypatch.setattr(mod, "count_quadrangles", counting)
    code, out, _ = _run(capsys, "analyze", "--file", _graph6_file(tmp_path, "cycle(8)"))
    assert code == 0
    assert "spectral quadrangles: q=0 q_x=0" in out
    assert calls == [8]
    assert _run(capsys, "analyze", "--expr", "cycle(8)")[1] == out
    assert calls == [8]


def test_analyze_renders_the_spectrum_once(capsys, monkeypatch):
    real = exact.Spectrum.render
    calls = []

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(exact.Spectrum, "render", counting)
    for fmt in ("json", "text"):
        calls.clear()
        code, out, _ = _run(capsys, "analyze", "--expr", "cycle(8)", "--format", fmt)
        assert code == 0 and len(calls) == 1, fmt
    assert "spectrum: {[±2]^1, [±√2]^2, [0]^2}\n" in out


def test_analyze_irregular_graph(capsys):
    code, out, _ = _run(capsys, "analyze", "--expr", "kbip(1,3)")
    assert code == 0
    assert "regular: no" in out and "periodicity: n/a" in out


def test_analyze_reports_no_hoffman_line_where_the_identity_fails(capsys, tmp_path):
    # two triangles: regular but disconnected, so Hoffman's theorem does
    # not apply and the oracle finds n q(A) != q(k) J
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not oracles.hoffman_check(two_triangles)
    path = tmp_path / "two_triangles.txt"
    path.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n", encoding="ascii")
    code, out, _ = _run(capsys, "analyze", "--file", str(path))
    assert code == 0 and "hoffman" not in out
    assert "regular: k=2" in out and "periodicity: n/a" in out
    code, out, _ = _run(capsys, "analyze", "--file", str(path), "--format", "json")
    assert code == 0 and "hoffman" not in json.loads(out)


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
    assert _run(capsys, "quadrangles", "--expr", "kbip(3,3)", "--format", "json") == \
        (0, '{"per_vertex_constant": true, "q": 9, "q_x": 6}\n', "")
    # K_{2,3}: the two-vertex side lies on 3 quadrangles, the other on 2
    assert _run(capsys, "quadrangles", "--expr", "kbip(2,3)", "--format", "json") == \
        (0, '{"per_vertex_constant": false, "q": 3, "q_x": null}\n', "")


def test_a_disconnected_graph_has_no_period_but_an_analysis(capsys):
    assert _run(capsys, "period", "--expr", "bdouble(cycle(4))") == \
        (1, "", "error: NotConnected: graph is not connected\n")
    code, out, err = _run(capsys, "analyze", "--expr", "bdouble(cycle(4))")
    assert code == 0 and err == ""
    assert "connected: no\nbipartite: yes (parts 4/4)\n" in out


def test_a_built_expression_reads_the_expressions_moments(capsys, monkeypatch, tmp_path):
    # C8 x C8 is disconnected, so analyze builds it for its colour
    # classes; the command asks the expression for its spectrum and m_A,
    # which come from the closed-form traces, and the built graph, an
    # ordinary Graph with no link back to the expression, is asked nothing
    # spectral: the moment route, which the same graph read from a file
    # runs, never runs on the built matrix
    expr = "kron(cycle(8),cycle(8))"
    code, expected, _ = _run(capsys, "analyze", "--file", _graph6_file(tmp_path, expr))
    assert code == 0 and "connected: no\n" in expected

    def refuse(table):
        raise AssertionError("the moment route ran on a built expression")

    real = exact.moment_route
    for name, mod in list(sys.modules.items()):
        if name.startswith("walklab") and getattr(mod, "moment_route", None) is real:
            monkeypatch.setattr(mod, "moment_route", refuse)
    assert _run(capsys, "analyze", "--expr", expr) == (0, expected, "")


def test_analyze_reads_a_walk_regular_expression_and_builds_it_only_for_its_parts(
        capsys, monkeypatch, tmp_path):
    # C8 x C8 and Q6 x Q6 are regular, walk-regular by structure and have
    # two components each: analyze reads q and q_x off t_4 and asks the
    # built graph only for its colour classes, so neither the quadrangle
    # count nor the closed-walk loop runs
    expr = "kron(cycle(8),cycle(8))"
    path = _graph6_file(tmp_path, expr)
    formats = ((), ("--format", "json"))
    expected = [_run(capsys, "analyze", "--file", path, *fmt) for fmt in formats]
    assert expected[0][0] == 0 and "connected: no\nbipartite: yes (parts 32/32)\n" in expected[0][1]

    def refuse(g):
        raise AssertionError("a built expression was walked")

    for real in (graphs.count_quadrangles, graphs.closed_walks):
        for name, mod in list(sys.modules.items()):
            if name.startswith("walklab") and getattr(mod, real.__name__, None) is real:
                monkeypatch.setattr(mod, real.__name__, refuse)
    assert [_run(capsys, "analyze", "--expr", expr, *fmt) for fmt in formats] == expected
    expr = "kron(hypercube(6),hypercube(6))"
    code, out, err = _run(capsys, "analyze", "--expr", expr)
    assert (code, err) == (0, "")
    assert "\nspectrum: {[±36]^2, [±24]^24, [±16]^72, [±12]^60, [±8]^360, [±4]^450, " \
        "[0]^2160}\nquadrangles: q=3409920 per-vertex constant: yes\n" in out
    code, out, err = _run(capsys, "analyze", "--expr", expr, "--format", "json")
    report = json.loads(out)
    assert (code, err, report["connected"], report["bipartite"]) == (0, "", False, [2048, 2048])
    assert report["spectrum"] == \
        "{[±36]^2, [±24]^24, [±16]^72, [±12]^60, [±8]^360, [±4]^450, [0]^2160}"
    assert (report["quadrangles"], report["quadrangles_per_vertex_constant"]) == (3409920, True)


def test_quadrangles_read_a_disconnected_walk_regular_expression_off_its_traces(
        capsys, monkeypatch, tmp_path):
    # C8 x C8 and Q6 x Q6 have two components each and are walk-regular by
    # structure, so q_x comes from t_4 with nothing built; analyze still
    # builds them for the colour classes' sizes
    expr = "kron(cycle(8),cycle(8))"
    expected = [_run(capsys, "quadrangles", "--file", _graph6_file(tmp_path, expr), *fmt)
                for fmt in ((), ("--format", "json"))]
    assert expected[0] == (0, "q=64 per-vertex constant: yes q_x=4\n", "")

    def refuse(self, table):
        raise AssertionError("an expression was built")

    monkeypatch.setattr(Graph, "_set_table", refuse)  # every Graph is made here
    assert [_run(capsys, "quadrangles", "--expr", expr, *fmt)
            for fmt in ((), ("--format", "json"))] == expected
    assert _run(capsys, "quadrangles", "--expr", "kron(hypercube(6),hypercube(6))") == \
        (0, "q=3409920 per-vertex constant: yes q_x=3330\n", "")
    assert _run(capsys, "analyze", "--expr", expr) == \
        (3, "", "error: internal: an expression was built\n")


def test_period_proves_a_residual_mod_2_without_the_factor_search(capsys, monkeypatch, tmp_path):
    # the bench's period-random shapes: k does not divide 2n, and p_A mod 2
    # keeps a factor of degree >= 3, so period prints the coefficient of
    # x^(n-2) in p_2T, -2n/k, with the factor search and the moment route
    # refusing to run
    rng = random.Random(20261103)
    cases = []
    for k, n in ((3, 16), (3, 20), (5, 42)):
        for i in range(3):
            g = random_regular(n, k, rng)
            path = tmp_path / f"k{k}n{n}-{i}.g6"
            path.write_text(to_graph6(g) + "\n", encoding="ascii")
            verdict = decide_periodic_by_fractions(g)
            if not walk._splits_mod_2(g.charpoly_mod_2):
                cases.append((str(path), verdict.render() + "\n"))
                assert verdict.coefficient == (n - 2, Fraction(-2 * n, k))
    assert len(cases) >= 7

    def refuse(*args):
        raise AssertionError("the factor search or the moment route ran")

    for module in (exact, graphs):
        monkeypatch.setattr(module, "_factors", refuse)
        monkeypatch.setattr(module, "moment_route", refuse)
    for path, expected in cases:
        assert expected.startswith("NOT PERIODIC coefficient=x^")
        assert _run(capsys, "period", "--file", path) == (2, expected, "")


def test_period_refutes_a_cubic_graph_of_512_vertices_with_no_moment_route(
        capsys, monkeypatch, tmp_path):
    # 3 does not divide 2n = 1024 and p_A mod 2, read off the table, keeps
    # a factor of degree >= 3: the verdict needs no trace, in either format
    path = tmp_path / "r512.g6"
    path.write_text(to_graph6(random_regular(512, 3, random.Random(1))) + "\n",
                    encoding="ascii")

    def refuse(*args):
        raise AssertionError("the moment route ran")

    monkeypatch.setattr(exact, "moment_route", refuse)
    monkeypatch.setattr(graphs, "moment_route", refuse)
    assert _run(capsys, "period", "--file", str(path)) == \
        (2, "NOT PERIODIC coefficient=x^510:-1024/3\n", "")
    assert _run(capsys, "period", "--file", str(path), "--format", "json") == \
        (2, '{"coefficient": "x^510:-1024/3", "periodic": false}\n', "")


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


def test_a_degree_range_from_zero_starts_at_two(capsys):
    assert _parse_k_range("0-4") == range(2, 5, 2)
    code, out, _ = _run(capsys, "enumerate", "--class", "half", "--k", "0-4")
    assert code == 0
    assert out == _run(capsys, "enumerate", "--class", "half", "--k", "2-4")[1]
    for text in ("0-1", "0"):
        code, out, err = _run(capsys, "enumerate", "--class", "half", "--k", text)
        assert (code, out) == (1, "")
        assert err == f"error: no even degrees in range {text!r}\n"


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


def test_tables_and_enumerate_run_to_the_degree_cap(capsys):
    cap = feasibility.MAX_DEGREE
    code, out, err = _run(capsys, "enumerate", "--class", "sqrt2", "--k", str(cap),
                          "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith(f"sqrt2,{cap},")
    code, out, err = _run(capsys, "tables", "--kmax", str(cap), "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith(f"sqrt3,{cap},")


@pytest.mark.parametrize("argv, message", [
    (["tables", "--kmax", "1001"], "k_max is 1001; degrees are capped at 1000"),
    (["tables", "--kmax", "99999999999999999999"],
     "k_max is 99999999999999999999; degrees are capped at 1000"),
    (["enumerate", "--class", "half", "--k", "1001"], "--k reaches 1001; degrees are capped at 1000"),
    (["enumerate", "--class", "sqrt3", "--k", "2-99999999999999999999"],
     "--k reaches 99999999999999999999; degrees are capped at 1000"),
], ids=["tables-past-cap", "tables-huge", "enumerate-past-cap", "enumerate-huge"])
def test_a_degree_past_the_cap_is_refused_before_any_row(monkeypatch, capsys, argv, message):
    # before, both ran until killed: range(2, 10^20) degree by degree
    assert feasibility.MAX_DEGREE == 1000

    def refuse(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(feasibility, "enumerate_rows", refuse)
    monkeypatch.setattr(cli, "enumerate_rows", refuse)
    assert _run(capsys, *argv) == (1, "", f"error: {message}\n")


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


def test_python_m_walklab_runs_the_command_line():
    src = str(Path(walklab.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "walklab", "period", "--expr", "cycle(6)"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "PERIODIC period=6 orders={1,2,3,6}\n", "")


def test_import_walklab_leaves_the_oracles_out():
    # the package, the hot-path modules and the CLI never import
    # walklab.oracles; only the selfcheck command does
    src = str(Path(walklab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys, walklab, walklab.cli; "
              "assert 'walklab.oracles' not in sys.modules; "
              "import walklab.oracles")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    script = ("import sys; from walklab.cli import main; "
              "code = main(['period', '--expr', 'cycle(6)']); "
              "assert code == 0 and 'walklab.oracles' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the reference routes are defined in walklab.oracles and bound by no
    # other module of the package
    moved = {"charpoly", "_charpoly_mod", "_charpoly_coeff_bound", "_clear_denominators",
             "int_matmul", "_abs_max", "gcd", "_primitive", "derivative", "scale_arg",
             "hoffman_check", "eigenvalue_gate", "run_selfcheck", "_selfcheck_catalog",
             "_SELFCHECKS", "extract_spectrum", "exact_div", "as_fraction", "min_poly_route",
             "is_quadratic_algebraic_integer", "power_sum", "closed_walk_traces",
             "classify_four_eigenvalue"} | {fn.__name__ for _, fn in oracles._SELFCHECKS}
    assert all(hasattr(oracles, name) for name in moved)
    # the window-scan formulas and the CSV reader serve only the tests
    test_only = {"multiplicities", "n_bounds", "read_tables_csv"}
    for info in pkgutil.iter_modules(walklab.__path__, "walklab."):
        names = set(vars(importlib.import_module(info.name)))
        assert not test_only & names, (info.name, test_only & names)
        if info.name != "walklab.oracles":
            assert not moved & names, (info.name, moved & names)
    assert not (moved | test_only) & set(vars(walklab))
    assert not {"gcd", "derivative", "scale_arg", "exact_div"} & set(dir(Poly))
    assert not {"union", "negated", "power_sum"} & set(dir(exact.Spectrum))
    assert "as_fraction" not in dir(exact.QuadraticNumber)


def test_selfcheck_detects_corrupted_cyclotomic(capsys, monkeypatch):
    # walklab.oracles binds exact.cyclotomic by name when it is imported:
    # import it before the corruption, so that it keeps the real Phi_d
    importlib.import_module("walklab.oracles")
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


ROUTE_SPECTRUM_LINE = "FAIL spectrum from a certified m_A equals that from p_A"


def test_selfcheck_detects_a_wrong_multiplicity_from_m_a(capsys, monkeypatch):
    # every multiplicity read off m_A gains one
    real = graphs.min_poly_factors

    def wrong(m, traces):
        factors = real(m, traces)
        return None if factors is None else [(f, mult + 1) for f, mult in factors]

    monkeypatch.setattr(graphs, "min_poly_factors", wrong)
    code, out, _ = _run(capsys, "selfcheck")
    assert code == 1
    assert ROUTE_SPECTRUM_LINE in out


def test_selfcheck_detects_a_wrong_order_of_a_2cos_value(capsys, monkeypatch):
    # psi_6 = x - 1, the minimal polynomial of 2cos(2pi/6), is given the order 3
    monkeypatch.setitem(walk._ORDER_OF_PSI, (-1, 1), 3)
    code, out, _ = _run(capsys, "selfcheck")
    assert code == 1
    assert "FAIL cyclotomic sieve reconstruction" in out


def test_period_rejects_the_removed_no_oracle_flag(capsys):
    for command in ("period", "analyze"):
        with pytest.raises(SystemExit):
            main([command, "--expr", "tensorj(cycle(8),3)", "--no-oracle"])


def test_broken_invariant_exits_internal(capsys, monkeypatch):
    # the residual psi_7^2 of p_2T for C7 is never divided by a wrong
    # psi_d, so the 2cos sieve runs past its Kronecker bound and reports a
    # broken invariant
    monkeypatch.setattr(walk, "min_poly_2cos", lambda d: Poly([1, 0, 1]))
    code, out, err = _run(capsys, "period", "--expr", "cycle(7)")
    assert code == 3 and out == ""
    assert err.startswith("error: internal: ")


def test_period_on_c8_builds_no_psi_d(capsys, monkeypatch):
    # every root of p_A for C8 resolves into factors of the nine table
    # orders, so no psi_d is built
    def refuse(d):
        raise AssertionError(f"psi_{d} built")

    monkeypatch.setattr(walk, "min_poly_2cos", refuse)
    code, out, _ = _run(capsys, "period", "--expr", "cycle(8)")
    assert code == 0 and out == "PERIODIC period=8 orders={1,2,4,8}\n"


def test_period_builds_psi_d_only_for_orders_outside_the_table(capsys, monkeypatch):
    # C7xJ3 leaves the residual (psi_7 scaled by 3)^2 of p_A: only psi_7 is
    # tried on it
    built = []
    real = walk.min_poly_2cos

    def record(d):
        built.append(d)
        return real(d)

    monkeypatch.setattr(walk, "min_poly_2cos", record)
    code, out, _ = _run(capsys, "period", "--expr", "tensorj(cycle(7),3)")
    assert code == 0 and out == "PERIODIC period=28 orders={1,2,4,7}\n"
    assert built == [7]


# ---------------------------------------------------------------------------
# parsing: the option table against the full parser

# help, usage errors and the forms that only the full parser reports
PARSE_FORMS = (
    [], ["-h"], ["--help"], ["nope"], ["analyze", "-h"], ["tables", "--help"],
    ["period", "--expr", "cycle(6)", "extra"],
    ["tables", "--kmax", "40", "--rmax", "4"],
    ["period", "--expr", "cycle(6)", "--format", "csv"],
    ["tables", "--kmax", "1_0"], ["tables"], ["construct", "--expr", "cycle(6)"],
    ["enumerate", "--class", "cube", "--k", "4"],
    ["selfcheck", "--seed", "1"], ["period", "--ex", "cycle(6)"],
    ["--", "period", "--expr", "cycle(6)"], ["period", "--", "--expr", "cycle(6)"],
    ["period", "--expr", "cycle(6)", "--"],
)


def _parse_outcome(parse, argv):
    """vars() of the Namespace, or the SystemExit code, with what the parse
    wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _full_parse(argv):
    return build_parser().parse_args(argv)


def _golden_argvs():
    golden = Path(__file__).resolve().parent / "golden" / "cli.txt"
    return [shlex.split(line[2:]) for line in golden.read_text(encoding="utf-8").splitlines()
            if line.startswith("$ ")]


@pytest.mark.parametrize("argv", _golden_argvs() + list(PARSE_FORMS), ids=shlex.join)
def test_parse_args_equals_the_full_parser(argv):
    assert _parse_outcome(parse_args, argv) == _parse_outcome(_full_parse, argv)


# the argv shapes of the bench's three workloads
BENCH_SHAPES = (
    ["analyze", "--expr", "tensorj(cycle(6),2)"],
    ["period", "--file", "corpus/g00_k3_n16.g6"],
    ["tables", "--kmax", "40", "--format", "csv"],
)


def test_parse_args_builds_no_parser_on_a_plain_form(monkeypatch):
    # every golden argv that parses and the bench's shapes are plain forms,
    # read off the option table: the Namespace is the full parser's, and
    # no argparse parser is built for it
    argvs = _golden_argvs() + list(BENCH_SHAPES)
    expected = [vars(_full_parse(argv)) for argv in argvs]  # each one parses

    def refuse(self, *args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert [vars(parse_args(argv)) for argv in argvs] == expected
    with pytest.raises(AssertionError, match="parser was built"):
        parse_args(["period", "--ex", "cycle(6)"])


def test_parse_args_reads_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["walklab", "tables", "--kmax", "12"])
    assert vars(parse_args()) == vars(_full_parse(["tables", "--kmax", "12"]))


def test_parse_args_equals_the_full_parser_on_random_argvs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    words = ("analyze", "period", "construct", "enumerate", "tables", "quadrangles",
             "selfcheck", "--expr", "--file", "--format", "--out", "--class", "--k",
             "--kmax", "--verbose", "--ex", "--kma", "--form", "cycle(6)", "g.g6",
             "text", "json", "csv", "half", "sqrt2", "4", "4-10", "1_0", "-h",
             "--help", "--", "-", "nope", "-x", "--zzz", "--format=json", "",
             "--expr=cycle(6)", "--kmax=4", "--format=", "--verbose=1", "--file=-", "-1")

    @hypothesis.seed(20261018)
    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(st.sampled_from(words), max_size=6))
    def check(argv):
        assert _parse_outcome(parse_args, argv) == _parse_outcome(_full_parse, argv)

    check()
