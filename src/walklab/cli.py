"""Command-line front end: `main` runs one command on argv.

Each command's options are declared once, as data, in `_COMMANDS`: flag,
dest, default, choices, converter, required and help.  `build_parser`
adds them to argparse, which prints every help text and usage error;
the top-level help starts with `_HELP`.  `parse_args` reads the plain
forms, a command and only its own flags, each once and with a valid
value, straight off the same table, with no argparse parser built, and
hands every other argv to the full parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .exact import Spectrum
from .feasibility import (
    MAX_DEGREE,
    ThetaClass,
    enumerate_rows,
    render_rows,
    render_tables,
)
from .expressions import Expression, ExprError, parse_expr, read_expr
from .graphs import Graph, is_connected, read_decimal
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

# the description that `walklab --help` prints
_HELP = """Command-line front end.

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
and its closed-form traces, with no graph built; analyze builds it when
it is irregular, edgeless, disconnected or not walk-regular by structure,
and quadrangles when it is irregular, edgeless or not walk-regular by
structure.  All output is produced by exact arithmetic and is
byte-identical across runs.
"""

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_PERIODIC = 2
EXIT_INTERNAL = 3


def _load_graph(args: argparse.Namespace) -> Graph | Expression:
    """The graph of --file, or the expression of --expr read off its
    structure (`read_expr`); exactly one of them must be given.  Both
    answer `parts`, `quadrangles` and `walk_regular_to` alike."""
    if args.expr is not None and args.file is not None:
        raise ExprError("--expr and --file exclude each other; give one of them")
    if args.expr is not None:
        return read_expr(args.expr)
    if args.file is not None:
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
    key, text = verdict.certificate()
    return {"periodic": False, key: text}


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
    k = g.regularity
    connected, parts = is_connected(g), g.parts
    spec = g.spectrum
    resolved = isinstance(spec, Spectrum)
    q, q_x = g.quadrangles
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
        report["walk_regular"] = walk_regularity_check(g, depth)
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
    q, q_x = _load_graph(args).quadrangles
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
    if hi > MAX_DEGREE:
        raise ExprError(f"--k reaches {hi}; degrees are capped at {MAX_DEGREE}")
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


class _Option(NamedTuple):
    """One option of a command: `flag` sets `dest` (else `default`) to the
    word after it or after its "=", converted by `convert` and one of
    `choices`, or to True for a `switch`, which takes no word."""

    flag: str
    dest: str
    default: object = None
    choices: tuple[str, ...] | None = None
    convert: Callable[[str], object] | None = None
    required: bool = False
    help: str | None = None
    switch: bool = False


class _Command(NamedTuple):
    help: str
    fn: Callable[[argparse.Namespace], int]
    options: tuple[_Option, ...]


_GRAPH_OPTIONS = (
    _Option("--expr", "expr", help="builder expression, e.g. 'tensorj(cycle(6),2)'"),
    _Option("--file", "file", help="graph file (graph6 or edge list, auto-detected)"),
    _Option("--format", "format", "text", ("text", "json")),
)
_TABLE_FORMAT = _Option("--format", "format", "text", ("text", "csv", "json"))

# name: command, in the order of the help listing
_COMMANDS = {
    "analyze": _Command("full exact report on one graph", cmd_analyze, _GRAPH_OPTIONS),
    "period": _Command("periodicity verdict (exit 2 when not periodic)", cmd_period,
                       _GRAPH_OPTIONS),
    "construct": _Command("build a graph and write it to a file", cmd_construct, (
        _Option("--expr", "expr", required=True),
        _Option("--out", "out", required=True, help=".g6 for graph6, else edge list"),
    )),
    "enumerate": _Command("candidate spectra for one theta-class", cmd_enumerate, (
        _Option("--class", "theta_class", choices=("half", "sqrt2", "sqrt3"), required=True),
        _Option("--k", "k", required=True, help="even degree or range, e.g. 6 or 4-10"),
        _TABLE_FORMAT,
    )),
    "tables": _Command("regenerate the feasibility tables", cmd_tables, (
        _Option("--kmax", "kmax", convert=_degree_bound, required=True),
        _TABLE_FORMAT,
    )),
    "quadrangles": _Command("exact quadrangle counts", cmd_quadrangles, _GRAPH_OPTIONS),
    "selfcheck": _Command("run the built-in invariant suite", cmd_selfcheck, (
        _Option("--verbose", "verbose", False, switch=True),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="walklab", description=_HELP,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for o in command.options:
            if o.switch:
                p.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
            else:
                p.add_argument(o.flag, dest=o.dest, default=o.default, choices=o.choices,
                               type=o.convert, required=o.required, help=o.help)
        p.set_defaults(fn=command.fn)
    return parser


def _plain(command: _Command, words: list[str]) -> dict | None:
    """Every option's value when `words` are a plain form of the command,
    else None.  In a plain form each word is one of the command's own
    flags, given at most once, and a flag that takes a value has it after
    "=" or as the next word, which does not start with "-", converts and
    is one of the choices; every required flag is given.  argparse reads
    a plain form alike, whatever abbreviation, "--" or negative-number
    rules it applies to other words."""
    options = {o.flag: o for o in command.options}
    values: dict = {}
    words = iter(words)
    for word in words:
        flag, eq, value = word.partition("=")
        option = options.get(flag)
        if option is None or option.dest in values or (option.switch and eq):
            return None
        if option.switch:
            values[option.dest] = True
            continue
        if not eq:
            value = next(words, "-")  # no word left: not a plain form
        if value.startswith("-"):
            return None
        if option.convert is not None:
            try:
                value = option.convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
    if any(o.required and o.dest not in values for o in command.options):
        return None
    return {o.dest: values.get(o.dest, o.default) for o in command.options}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """build_parser().parse_args(argv) (argv defaults to sys.argv[1:]).

    A command name followed by a plain form of its options (`_plain`) is
    read straight off `_COMMANDS`, into the Namespace the full parser
    gives: the command, its handler and every option.  Everything else,
    help, abbreviations, repeats, values that start with "-", "--",
    leftover words and every usage error, goes to the full parser, so
    each help text and error is argparse's own.
    """
    argv = sys.argv[1:] if argv is None else argv
    command = _COMMANDS.get(argv[0]) if argv else None
    values = None if command is None else _plain(command, argv[1:])
    if values is None:
        return build_parser().parse_args(argv)
    return argparse.Namespace(command=argv[0], fn=command.fn, **values)


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
