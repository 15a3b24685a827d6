"""Command-line entry point.

    monograph laplacian  [--input FILE] [--json | --pretty]
    monograph cohomology [--input FILE] [--json | --pretty]
    monograph defect     [--input FILE] [--json | --pretty]
    monograph tate       --ord M --g v1,...,vM [--json | --pretty]
    monograph check      [--seed N] [--json]

Machine output (the default) is a single JSON document on stdout with a
one-line summary on stderr; --pretty replaces it with a human-readable
report.  Exit status: 0 on success, 2 on a parse or validation error
(including a system chain longer than the layer limit), 3 on an internal
invariant violation or shape mismatch (which indicates a bug) or a failed
check.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .checks import run_all_checks
from .graph import GraphError
from .linalg import DimensionMismatch, parse_rational
from .problem import ParseError, load_problem
from .report import (GRAPH_COMMANDS, InternalCheckError, render_pretty, run,
                     tate_document, to_json)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="monograph",
        description="Exact graph cohomology with local coefficients: "
                    "laplacians, obstruction spaces, and cycle examples.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (
            ("laplacian", "incidence and laplacian matrices of the graph"),
            ("cohomology", "h0/h1 of the coefficient system on the graph"),
            ("defect", "obstruction space and exactness verdict")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", metavar="FILE",
                       help="problem file (text or JSON); default: stdin")
        _output_flags(p)

    p = sub.add_parser("tate", help="cycle-graph rank-2 workbench")
    p.add_argument("--ord", type=int, required=True, metavar="M",
                   help="cycle length (>= 2)")
    p.add_argument("--g", required=True, metavar="v1,...,vM",
                   help="comma-separated cocycle values, integers or p/q")
    _output_flags(p)

    p = sub.add_parser("check", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="machine-readable results")
    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    style = p.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true",
                       help="machine output on stdout (default)")
    style.add_argument("--pretty", action="store_true",
                       help="human-readable output on stdout")


def _read_input(path: str | None) -> str:
    if path is None:
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(doc: dict, pretty: bool) -> None:
    if pretty:
        sys.stdout.write(render_pretty(doc))
    else:
        sys.stdout.write(to_json(doc))
        print("verdict: %s" % doc.get("verdict", "n/a"), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in GRAPH_COMMANDS:
            problem = load_problem(_read_input(args.input))
            _emit(run(problem, args.command), args.pretty)
        elif args.command == "tate":
            gvals = tuple(parse_rational(t) for t in args.g.split(","))
            _emit(tate_document(args.ord, gvals), args.pretty)
        else:
            return _run_check(args.seed, args.json)
    except (ParseError, GraphError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (InternalCheckError, DimensionMismatch) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _run_check(seed: int, as_json: bool) -> int:
    results = run_all_checks(seed)
    ok = all(r.passed for r in results)
    if as_json:
        doc = {
            "command": "check",
            "seed": seed,
            "passed": ok,
            "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                        for r in results],
        }
        sys.stdout.write(to_json(doc))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print("%s  %s  %s" % (r.name.ljust(width), status, r.detail))
        print("check: %s" % ("all passed" if ok else "FAILURES"))
    return EXIT_OK if ok else EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
