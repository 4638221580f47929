"""Command-line front end.

Commands
    analyze      full exact report on one graph
    period       periodicity verdict (exit 0 periodic, 2 not periodic)
    construct    build a graph from an expression and write it to a file
    enumerate    candidate spectra for one theta-class and degree(s)
    tables       regenerate the full feasibility tables
    quadrangles  exact quadrangle counts
    selfcheck    run the built-in invariant suite

Graphs come either from --file (graph6 or edge-list, auto-detected) or
from --expr using a small builder grammar:

    cycle(6), kbip(3,3), hamming(4,2), hypercube(3), petersen(),
    complete(4), line(E), tensorj(E,m), cart(E,E), kron(E,E), bdouble(E)

Expressions compose and ignore whitespace, e.g. "tensorj(cycle(6),2)".
All output is produced by exact arithmetic and is byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import json
import string
import sys
import time

from . import exact
from .exact import Poly, Spectrum, charpoly, min_poly_route, moment_route, power_sum_of_roots
from .feasibility import (
    REFERENCE_TABLE,
    ThetaClass,
    classify_four_eigenvalue,
    enumerate_rows,
    render_rows,
    render_tables,
)
from .graphs import (
    Graph,
    bipartite_double,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    count_quadrangles,
    cycle,
    hamming,
    hypercube,
    is_bipartite,
    is_connected,
    kronecker_product,
    line_graph,
    petersen,
    read_decimal,
    regularity,
    tensor_allones,
)
from .graphio import load_path, save_path
from .oracles import (
    build_walk_matrices,
    count_quadrangles_brute,
    cyclotomic_sieve,
    eval_poly_at_matrix,
    period_oracle,
    u_charpoly_direct,
    u_spectrum_model,
    verify_biadjacency_identities,
)
from .walk import (
    NotConnectedError,
    NotPeriodic,
    NotRegularError,
    Periodic,
    decide_periodic,
    hoffman_check,
    quadrangle_report,
    walk_regularity_check,
    walk_regularity_depth,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_PERIODIC = 2
EXIT_INTERNAL = 3


class ExprError(ValueError):
    pass


# ---------------------------------------------------------------------------
# builder expressions

_BUILDERS = {
    "cycle": ("i", cycle),
    "kbip": ("ii", complete_bipartite),
    "hamming": ("ii", hamming),
    "hypercube": ("i", hypercube),
    "petersen": ("", petersen),
    "complete": ("i", complete_graph),
    "line": ("e", line_graph),
    "tensorj": ("ei", tensor_allones),
    "cart": ("ee", cartesian_product),
    "kron": ("ee", kronecker_product),
    "bdouble": ("e", bipartite_double),
}


# ASCII only: str.isalnum and str.isdigit also accept digits of other
# scripts, fullwidth forms and superscripts
_NAME_CHARS = string.ascii_letters + string.digits + "_"


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append(ch)
            i += 1
        elif ch in string.ascii_letters:
            j = i
            while j < len(text) and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch in string.digits:
            j = i
            while j < len(text) and text[j] in string.digits:
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ExprError(f"unexpected character {ch!r} in expression")
    return tokens


def parse_expr(text: str) -> Graph:
    tokens = _tokenize(text)
    pos = 0

    def expect(tok: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            got = tokens[pos] if pos < len(tokens) else "end of input"
            raise ExprError(f"expected {tok!r}, got {got!r}")
        pos += 1

    def parse_node() -> Graph:
        nonlocal pos
        if pos >= len(tokens):
            raise ExprError("unexpected end of expression")
        name = tokens[pos]
        if name not in _BUILDERS:
            raise ExprError(f"unknown builder {name!r}")
        pos += 1
        sig, fn = _BUILDERS[name]
        expect("(")
        args = []
        for idx, kind in enumerate(sig):
            if idx:
                expect(",")
            if kind == "i":
                if pos >= len(tokens) or not tokens[pos].isdigit():
                    raise ExprError(f"builder {name!r} expects an integer argument")
                args.append(read_decimal(tokens[pos]))
                pos += 1
            else:
                args.append(parse_node())
        expect(")")
        return fn(*args)

    g = parse_node()
    if pos != len(tokens):
        raise ExprError(f"trailing input after expression: {tokens[pos]!r}")
    return g


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "expr", None):
        return parse_expr(args.expr)
    if getattr(args, "file", None):
        return load_path(args.file)
    raise ExprError("one of --expr or --file is required")


# ---------------------------------------------------------------------------
# reports


def _verdict_json(verdict: Periodic | NotPeriodic) -> dict:
    if isinstance(verdict, Periodic):
        return {
            "periodic": True,
            "period": verdict.period,
            "orders": {str(d): m for d, m in verdict.cyclotomic_orders},
        }
    out: dict = {"periodic": False}
    if verdict.witness is not None:
        out["witness"] = str(verdict.witness)
    if verdict.residual is not None:
        out["residual"] = str(verdict.residual)
    return out


def cmd_period(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    verdict = decide_periodic(g)
    if args.format == "json":
        print(json.dumps(_verdict_json(verdict), sort_keys=True))
    else:
        print(verdict.render())
    return EXIT_OK if isinstance(verdict, Periodic) else EXIT_NOT_PERIODIC


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    k = regularity(g)
    split = is_bipartite(g)
    connected = is_connected(g)
    spec = g.spectrum
    resolved = isinstance(spec, Spectrum)
    q, per_vertex = count_quadrangles(g)
    qx_constant = all(c == per_vertex[0] for c in per_vertex)
    report: dict = {
        "n": g.n,
        "edges": g.edge_count,
        "regular": k,
        "connected": connected,
        "bipartite": [len(split.part1), len(split.part2)] if split else None,
        "spectrum": spec.render() if resolved else None,
        "spectrum_residual": None if resolved else str(spec.residual),
        "quadrangles": q,
        "quadrangles_per_vertex_constant": qx_constant,
    }
    if k and connected:
        depth = walk_regularity_depth(g)
        report["walk_regular"] = walk_regularity_check(g, depth)
        report["walk_regular_depth"] = depth
        report["hoffman"] = hoffman_check(g)
        report["periodicity"] = decide_periodic(g).render()
        if resolved:
            rep = quadrangle_report(power_sum_of_roots(g.charpoly, 4), g.n, k)
            report["q_spectral"] = str(rep.q_spectral)
            report["q_x_spectral"] = str(rep.qx_spectral)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
        return EXIT_OK
    print(f"graph: n={g.n} edges={g.edge_count}")
    print(f"regular: {'k=' + str(k) if k is not None else 'no'}")
    print(f"connected: {'yes' if connected else 'no'}")
    if split:
        print(f"bipartite: yes (parts {len(split.part1)}/{len(split.part2)})")
    else:
        print("bipartite: no")
    if resolved:
        print(f"spectrum: {spec.render()}")
    else:
        print(f"spectrum: unresolved (residual {spec.residual})")
    print(f"quadrangles: q={q} per-vertex constant: {'yes' if qx_constant else 'no'}")
    if k and connected:
        print(f"walk-regular: {'yes' if report['walk_regular'] else 'no'}"
              f" (checked r <= {report['walk_regular_depth']})")
        print(f"hoffman identity: {'ok' if report['hoffman'] else 'FAILED'}")
        if "q_spectral" in report:
            print(f"spectral quadrangles: q={report['q_spectral']}"
                  f" q_x={report['q_x_spectral']}")
        print(f"periodicity: {report['periodicity']}")
    else:
        print("periodicity: n/a (needs a connected regular graph)")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    g = parse_expr(args.expr)
    save_path(g, args.out)
    print(f"wrote n={g.n} m={g.edge_count} to {args.out}")
    return EXIT_OK


def cmd_quadrangles(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    q, per_vertex = count_quadrangles(g)
    constant = all(c == per_vertex[0] for c in per_vertex)
    payload = {
        "q": q,
        "per_vertex_constant": constant,
        "q_x": per_vertex[0] if constant else None,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        qx = payload["q_x"]
        print(f"q={q} per-vertex constant: {'yes' if constant else 'no'}"
              + (f" q_x={qx}" if qx is not None else ""))
    return EXIT_OK


def _parse_k_range(text: str) -> range:
    bounds = text.split("-", 1)
    if not all(b.isascii() and b.isdigit() for b in bounds):
        raise ExprError(f"invalid --k value {text!r}: expected K or KMIN-KMAX")
    lo, hi = read_decimal(bounds[0]), read_decimal(bounds[-1])
    ks = range(lo + lo % 2, hi + 1, 2)
    if not ks:
        raise ExprError(f"no even degrees in range {text!r}")
    return ks


def cmd_enumerate(args: argparse.Namespace) -> int:
    cls = ThetaClass(args.theta_class)
    rows = []
    for k in _parse_k_range(args.k):
        rows.extend(enumerate_rows(cls, k))
    sys.stdout.write(render_rows(rows, args.format))
    return EXIT_OK


def _degree_bound(text: str) -> int:
    """The --kmax argument: ASCII decimal digits (str.isdigit alone also
    takes other scripts' digits), read by read_decimal."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return read_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_tables(args: argparse.Namespace) -> int:
    sys.stdout.write(render_tables(args.kmax, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck


def _selfcheck_catalog() -> list[tuple[str, Graph]]:
    c6 = cycle(6)
    return [
        ("K2", complete_graph(2)),
        ("K2,2", complete_bipartite(2, 2)),
        ("C6", c6),
        ("C8", cycle(8)),
        ("K3,3", complete_bipartite(3, 3)),
        ("Q3", hypercube(3)),
        ("petersen", petersen()),
        ("L(Q3)", line_graph(hypercube(3))),
        ("C6⊗J2", tensor_allones(c6, 2)),
        ("C8⊗J2", tensor_allones(cycle(8), 2)),
        ("H(4,2)", hamming(4, 2)),
        ("L(Q3)⊗K2", bipartite_double(line_graph(hypercube(3)))),
    ]


def _check_cyclotomic_products() -> bool:
    for n in (1, 2, 6, 12, 30, 60, 100):
        prod = Poly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * exact.cyclotomic(d)
        if prod != Poly([-1] + [0] * (n - 1) + [1]):
            return False
    return True


def _check_sieve_reconstruction() -> bool:
    for name, g in _selfcheck_catalog():
        if not regularity(g) or not is_connected(g):
            continue
        model = u_spectrum_model(g)
        res = cyclotomic_sieve(model.u_charpoly)
        rebuilt = Poly.one()
        for d, mult in res.orders:
            rebuilt = rebuilt * exact.cyclotomic(d) ** mult
        if rebuilt * res.residual != model.u_charpoly:
            return False
        # the vertex-side decision must find the same cyclotomic orders
        verdict = decide_periodic(g)
        if isinstance(verdict, Periodic) != res.full:
            return False
        if res.full and verdict.cyclotomic_orders != res.orders:
            return False
    return True


def _check_walk_matrices() -> bool:
    for name, g in _selfcheck_catalog():
        if not regularity(g) or not is_connected(g):
            continue
        wm = build_walk_matrices(g)
        m = len(wm.shift)
        s = [list(r) for r in wm.shift]
        s2 = exact.int_matmul(s, s)
        if any(s2[i][j] != (1 if i == j else 0) for i in range(m) for j in range(m)):
            return False
    return True


def _check_mapping_vs_direct() -> bool:
    return all(u_charpoly_direct(g) == u_spectrum_model(g).u_charpoly
               for name, g in _selfcheck_catalog()
               if regularity(g) and is_connected(g) and 2 * g.edge_count <= 200)


def _check_power_sums() -> bool:
    for name, g in _selfcheck_catalog():
        kk = regularity(g)
        spec = g.spectrum
        if not isinstance(spec, Spectrum):
            return False
        if kk is not None and spec.power_sum(2) != g.n * kk:
            return False
        if is_bipartite(g) and not spec.is_symmetric():
            return False
    return True


def _check_min_poly() -> bool:
    for name, g in _selfcheck_catalog():
        if not g.min_poly.divides(g.charpoly):
            return False
        if any(any(row) for row in eval_poly_at_matrix(g.min_poly, g.adjacency)):
            return False
    return True


def _check_moment_route() -> bool:
    for name, g in _selfcheck_catalog():
        moments, p = moment_route(g.neighbour_table), charpoly(g.adjacency)
        m = p.exact_div(p.gcd(p.derivative()))
        if (moments.charpoly != p or moments.min_poly not in (None, m)
                or min_poly_route(g.neighbour_table) != m):
            return False
    return True


def _check_quadrangles() -> bool:
    for name, g in _selfcheck_catalog():
        if g.n > 64:
            continue
        q1, pv1 = count_quadrangles(g)
        q2, pv2 = count_quadrangles_brute(g)
        if q1 != q2 or pv1 != pv2 or sum(pv1) != 4 * q1:
            return False
    return True


def _check_hoffman() -> bool:
    return all(hoffman_check(g) for name, g in _selfcheck_catalog()
               if regularity(g) and is_connected(g))


def _check_biadjacency() -> bool:
    return all(verify_biadjacency_identities(g) for g in (
        cycle(6), tensor_allones(cycle(6), 2), hamming(4, 2),
        bipartite_double(line_graph(hypercube(3)))))


def _check_known_periods() -> bool:
    for g, expected in ((cycle(6), 6), (tensor_allones(cycle(6), 2), 12),
                        (cycle(8), 8), (tensor_allones(cycle(8), 2), 8)):
        verdict = decide_periodic(g)
        if not isinstance(verdict, Periodic) or verdict.period != expected:
            return False
        if period_oracle(g, 2 * expected) != expected:
            return False
    return True


def _check_tables() -> bool:
    render_tables(10, "csv")
    expected_cols: dict = {}
    for (cls, k, n) in REFERENCE_TABLE:
        expected_cols.setdefault((cls, k), set()).add(n)
    return all({r.n for r in enumerate_rows(cls, k)} == ns
               for (cls, k), ns in expected_cols.items())


def _check_four_eigenvalue() -> bool:
    four = classify_four_eigenvalue(100)
    return len(four) == 1 and four[0][0] == 2 and four[0][1] == 6


_SELFCHECKS = (
    ("cyclotomic product identity (x^n - 1)", _check_cyclotomic_products),
    ("cyclotomic sieve reconstruction", _check_sieve_reconstruction),
    ("shift involution and orthogonal evolution", _check_walk_matrices),
    ("spectral mapping equals direct charpoly", _check_mapping_vs_direct),
    ("power sums and bipartite symmetry", _check_power_sums),
    ("minimal polynomial annihilates A and divides the charpoly", _check_min_poly),
    ("moment route equals the CRT charpoly and p / gcd(p, p')", _check_moment_route),
    ("quadrangle counts (walk bookkeeping = enumeration)", _check_quadrangles),
    ("hoffman identity on connected regular graphs", _check_hoffman),
    ("biadjacency block identities", _check_biadjacency),
    ("known periods (decision = matrix-power oracle)", _check_known_periods),
    ("feasibility tables match the reference rows", _check_tables),
    ("four-eigenvalue classification is C6 only", _check_four_eigenvalue),
)


def run_selfcheck(verbose: bool = False) -> tuple[bool, str]:
    lines: list[str] = []
    all_ok = True
    for name, fn in _SELFCHECKS:
        note = ""
        start = time.monotonic()
        try:
            ok = fn()
        except Exception as exc:  # an invariant blowing up is a failure
            ok = False
            note = f" ({type(exc).__name__}: {exc})"
        if verbose:  # timing stays behind the flag: default output is stable
            note += f" [{time.monotonic() - start:.2f}s]"
        all_ok &= ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}{note}")
    return all_ok, "\n".join(lines) + "\n"


def cmd_selfcheck(args: argparse.Namespace) -> int:
    ok, report = run_selfcheck(verbose=args.verbose)
    sys.stdout.write(report)
    print("selfcheck: " + ("all ok" if ok else "FAILURES"))
    return EXIT_OK if ok else EXIT_INPUT


# ---------------------------------------------------------------------------
# entry point


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", help="builder expression, e.g. 'tensorj(cycle(6),2)'")
    p.add_argument("--file", help="graph file (graph6 or edge list, auto-detected)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="walklab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full exact report on one graph")
    _add_graph_source(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("period", help="periodicity verdict (exit 2 when not periodic)")
    _add_graph_source(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("construct", help="build a graph and write it to a file")
    p.add_argument("--expr", required=True)
    p.add_argument("--out", required=True, help=".g6 for graph6, else edge list")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("enumerate", help="candidate spectra for one theta-class")
    p.add_argument("--class", dest="theta_class", required=True,
                   choices=("half", "sqrt2", "sqrt3"))
    p.add_argument("--k", required=True, help="even degree or range, e.g. 6 or 4-10")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("tables", help="regenerate the feasibility tables")
    p.add_argument("--kmax", type=_degree_bound, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("quadrangles", help="exact quadrangle counts")
    _add_graph_source(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_quadrangles)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NotRegularError as exc:
        print(f"error: NotRegular: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotConnectedError as exc:
        print(f"error: NotConnected: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError) as exc:  # bad input: files, expressions, graphs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:  # a broken invariant of the engine
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
