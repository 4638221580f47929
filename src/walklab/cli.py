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
period, analyze and quadrangles read an expression off its structure
and its closed-form traces, with no graph built; analyze and quadrangles
build it when it is irregular, edgeless, disconnected or not walk-regular
by structure.  All output is produced by exact arithmetic and is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exact import Spectrum
from .feasibility import (
    ThetaClass,
    enumerate_rows,
    render_rows,
    render_tables,
)
from .expressions import Expression, read_expr
from .graphs import (
    ExprError,
    Graph,
    count_quadrangles,
    is_bipartite,
    is_connected,
    parse_expr,
    read_decimal,
)
from .graphio import load_path, save_path
from .walk import (
    NotConnectedError,
    NotPeriodic,
    NotRegularError,
    Periodic,
    decide_periodic,
    walk_regularity_check,
    walk_regularity_depth,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_PERIODIC = 2
EXIT_INTERNAL = 3


def _load_graph(args: argparse.Namespace) -> Graph | Expression:
    """The graph of --file, or the expression of --expr read off its
    structure (`read_expr`); exactly one of them must be given."""
    if args.expr is not None and args.file is not None:
        raise ExprError("--expr and --file exclude each other; give one of them")
    if args.expr is not None:
        return read_expr(args.expr)
    if args.file is not None:
        return load_path(args.file)
    raise ExprError("one of --expr or --file is required")


def _load_counted(args: argparse.Namespace) -> Graph | Expression:
    """`_load_graph`, with an expression built unless its quadrangles and
    walk-regularity follow from its structure (`walk_regular_connected`)."""
    g = _load_graph(args)
    return g.graph if isinstance(g, Expression) and not g.walk_regular_connected else g


def _quadrangles(g: Graph | Expression) -> tuple[int, int | None]:
    """q, and the number q_x of quadrangles at each vertex when it is the
    same at every vertex (else None)."""
    if isinstance(g, Expression):
        return g.quadrangles
    q, per_vertex = count_quadrangles(g)
    return q, per_vertex[0] if all(c == per_vertex[0] for c in per_vertex) else None


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
    g = _load_counted(args)
    k = g.regularity
    if isinstance(g, Expression):  # connected and walk-regular
        connected, parts = True, g.parts
    else:
        split = is_bipartite(g)
        connected, parts = is_connected(g), split and (len(split.part1), len(split.part2))
    spec = g.spectrum
    resolved = isinstance(spec, Spectrum)
    q, q_x = _quadrangles(g)
    report: dict = {
        "n": g.n,
        "edges": g.edge_count,
        "regular": k,
        "connected": connected,
        "bipartite": list(parts) if parts else None,
        "spectrum": spec.render() if resolved else None,
        "spectrum_residual": None if resolved else str(spec.residual),
        "quadrangles": q,
        "quadrangles_per_vertex_constant": q_x is not None,
    }
    if k and connected:
        depth = walk_regularity_depth(g)
        report["walk_regular"] = isinstance(g, Expression) or walk_regularity_check(g, depth)
        report["walk_regular_depth"] = depth
        report["hoffman"] = True  # Hoffman's theorem: connected, regular, m_A certified
        report["periodicity"] = decide_periodic(g).render()
        if resolved:
            # tr A^4 = 8q + n(2k^2 - k) for k-regular g, and the charpoly came from tr A^r
            report["q_spectral"] = str(q)
            report["q_x_spectral"] = str(Fraction(4 * q, g.n))
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
        return EXIT_OK
    print(f"graph: n={g.n} edges={g.edge_count}")
    print(f"regular: {'k=' + str(k) if k is not None else 'no'}")
    print(f"connected: {'yes' if connected else 'no'}")
    if parts:
        print(f"bipartite: yes (parts {parts[0]}/{parts[1]})")
    else:
        print("bipartite: no")
    if resolved:
        print(f"spectrum: {report['spectrum']}")
    else:
        print(f"spectrum: unresolved (residual {spec.residual})")
    print(f"quadrangles: q={q} per-vertex constant: {'yes' if q_x is not None else 'no'}")
    if k and connected:
        print(f"walk-regular: {'yes' if report['walk_regular'] else 'no'}"
              f" (checked r <= {report['walk_regular_depth']})")
        print("hoffman identity: ok")
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
    q, q_x = _quadrangles(_load_counted(args))
    if args.format == "json":
        print(json.dumps({"q": q, "per_vertex_constant": q_x is not None, "q_x": q_x},
                         sort_keys=True))
    else:
        print(f"q={q} per-vertex constant: {'yes' if q_x is not None else 'no'}"
              + (f" q_x={q_x}" if q_x is not None else ""))
    return EXIT_OK


def _parse_k_range(text: str) -> range:
    bounds = text.split("-", 1)
    if not all(b.isascii() and b.isdigit() for b in bounds):
        raise ExprError(f"invalid --k value {text!r}: expected K or KMIN-KMAX")
    lo, hi = read_decimal(bounds[0]), read_decimal(bounds[-1])
    # enumerate_rows takes the even degrees from 2 on
    ks = range(max(2, lo + lo % 2), hi + 1, 2)
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
# selfcheck: the checks live in walklab.oracles, which no other command loads


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from .oracles import run_selfcheck

    ok, report = run_selfcheck(verbose=args.verbose)
    sys.stdout.write(report)
    print("selfcheck: " + ("all ok" if ok else "FAILURES"))
    return EXIT_OK if ok else EXIT_INPUT


# ---------------------------------------------------------------------------
# entry point


def _graph_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", help="builder expression, e.g. 'tensorj(cycle(6),2)'")
    p.add_argument("--file", help="graph file (graph6 or edge list, auto-detected)")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _construct_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", required=True)
    p.add_argument("--out", required=True, help=".g6 for graph6, else edge list")


def _enumerate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="theta_class", required=True,
                   choices=("half", "sqrt2", "sqrt3"))
    p.add_argument("--k", required=True, help="even degree or range, e.g. 6 or 4-10")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")


def _tables_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kmax", type=_degree_bound, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")


def _selfcheck_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--verbose", action="store_true")


# name: (help line, handler, options), in the order of the help listing
_COMMANDS = {
    "analyze": ("full exact report on one graph", cmd_analyze, _graph_options),
    "period": ("periodicity verdict (exit 2 when not periodic)", cmd_period, _graph_options),
    "construct": ("build a graph and write it to a file", cmd_construct, _construct_options),
    "enumerate": ("candidate spectra for one theta-class", cmd_enumerate, _enumerate_options),
    "tables": ("regenerate the feasibility tables", cmd_tables, _tables_options),
    "quadrangles": ("exact quadrangle counts", cmd_quadrangles, _graph_options),
    "selfcheck": ("run the built-in invariant suite", cmd_selfcheck, _selfcheck_options),
}


def _command_parser(name: str, parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """`parser` with the options and the handler of command `name`."""
    _, fn, add_options = _COMMANDS[name]
    add_options(parser)
    parser.set_defaults(fn=fn)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="walklab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=help_line))
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """build_parser().parse_args(argv) (argv defaults to sys.argv[1:]),
    building only one command's parser when argv[0] names a command.

    The full parser hands every word after a command name to that
    command's subparser (prog "walklab NAME"), whose parse_known_args sets
    the options and raises every error about them, and it rejects the
    words left over.  The same parser built alone does the same, so the
    full parser is built only for what it alone reports: no command, an
    unknown one, the top-level help and leftover words.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        parser = _command_parser(argv[0], argparse.ArgumentParser(prog=f"walklab {argv[0]}"))
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
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
