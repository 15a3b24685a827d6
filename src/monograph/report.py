"""Report documents: one deterministic, JSON-serializable dict per run.

Identical inputs produce byte-identical machine output: every rational is
rendered in lowest terms, all content is a pure function of the problem, and
`to_json` writes exactly the bytes of ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a newline, emitted with an explicit stack and no recursion,
so no document needs more free stack the deeper it nests.

This module only assembles and formats documents.  The identities behind
each document, the factorization R.delta = A and A K^T = 0 for the kernel
basis K, are checked in ``cohomology``, where the report they guard is
computed.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as encode
from math import gcd
from operator import itemgetter

from . import cohomology, tate
from .graph import incidence_matrix, laplacian
from .linalg import DIGIT_BOUND, NEG_DIGIT_BOUND, Mat, render_ratio, render_rational
from .problem import ProblemSpec

GRAPH_COMMANDS = ("laplacian", "cohomology", "defect")


class Grid(list):
    """The rows ``matrix_grid`` builds, every cell str of an int or 'p/q':
    ``to_json`` writes them with no scan for escapes."""


def matrix_grid(m: Mat) -> list[list[str]]:
    """The rows of m as strings, rendered from its stored integer rows.  In
    a row over 1 each entry is str of its numerator; any other entry n / d
    is reduced by one gcd, as ``render_ratio`` does, so every cell reads as
    str of its Fraction.  Only a cell whose n reaches the digit bound, or
    every cell of a row whose d does, goes through ``render_ratio`` itself,
    which refuses the document when the reduced number is over the digit
    limit.  Both bounds are the ints ``linalg`` made at import, so no cell
    test builds one."""
    grid, low, bound = Grid(), NEG_DIGIT_BOUND, DIGIT_BOUND
    for pairs, d in zip(m.nums, m.dens):
        row = ["0"] * m.cols
        if d == 1:
            for j, n in pairs:
                row[j] = str(n) if low < n < bound else render_ratio(n, 1)
        else:
            for j, n in pairs:
                if low < n < bound and d < bound:
                    g = gcd(n, d)
                    row[j] = str(n // d) if g == d else "%d/%d" % (n // g, d // g)
                else:
                    row[j] = render_ratio(n, d)
        grid.append(row)
    return grid


def verdict_of(defect: int) -> str:
    return "exact" if defect == 0 else "defect %d" % defect


def run(problem: ProblemSpec, command: str) -> dict:
    """Evaluate a graph command; every command emits the full document."""
    if command not in GRAPH_COMMANDS:
        raise ValueError("unknown command %r" % (command,))
    sys = problem.local_system()  # building the graph validates it
    g = sys.graph

    incidence = incidence_matrix(g)
    lap = laplacian(g)
    report = cohomology.invariant_cycles_report(sys)

    return {
        "command": command,
        "problem": problem.to_json_dict(),
        "matrices": {
            "incidence": matrix_grid(incidence),
            "laplacian": matrix_grid(lap),
            "coboundary": matrix_grid(report.coboundary),
            "residue": matrix_grid(report.residue),
            "system": matrix_grid(report.system),
        },
        "dims": {
            "vertices": g.n,
            "edges": g.m,
            "rank": sys.rank,
            "h0": report.h0_dim,
            "h1": report.h1_dim,
            "laplacian_rank": g.n - 1,  # the graph is connected
            "system_rank": report.system_rank,
            "coboundary_image": report.coboundary_image_dim,
            "residue_kernel": report.residue_kernel_dim,
            "defect": report.defect,
        },
        "bases": {
            "h0": matrix_grid(report.h0_basis.basis),
            "obstruction": matrix_grid(report.obstruction.basis),
        },
        "verdict": verdict_of(report.defect),
    }


def tate_document(m: int, gvals: Sequence[Fraction]) -> dict:
    r = tate.tate_report(m, gvals)
    return {
        "command": "tate",
        "tate": {
            "m": r.m,
            "g": list(map(render_rational, r.gvals)),
            "system": matrix_grid(r.system),
            "det": render_rational(r.det),
            "rank": r.rank,
            "kernel": matrix_grid(r.kernel.basis),
            "edge_images": matrix_grid(r.edge_images),
            "holonomy": render_rational(r.holonomy),
            "defect": r.defect,
            "quotient_dim": r.quotient_dim,
        },
        "verdict": verdict_of(r.defect),
    }


def to_json(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\n", byte for byte.

    Values are dicts with str keys, lists, str, int, bool and None; any
    other type (float and tuple included) raises TypeError.  Each open
    container is one stack frame: an iterator of (prefix, value) pairs and
    the text that closes it.  Two list shapes are written in one join: a
    ``Grid`` with no empty row, unscanned, as every matrix of a document
    is; and a list of non-empty dicts of str that all have the first one's
    keys, as the echo's edges do: the keys are sorted once, each key's
    column is encoded in one pass, and each item is written through one
    '{...}' template of the encoded keys, '%' escaped.  Every other list,
    one of strings included, takes the generic path, item by item.
    """
    out: list[str] = []
    stack = [(iter((("", doc),)), "")]
    while stack:
        for prefix, value in stack[-1][0]:
            out.append(prefix)
            if isinstance(value, str):
                out.append(encode(value))
            elif value is None or value is True or value is False:
                out.append("null" if value is None else "true" if value else "false")
            elif isinstance(value, int):
                out.append(int.__repr__(value))
            elif not isinstance(value, (dict, list)):
                raise TypeError("Object of type %s is not JSON serializable"
                                % type(value).__name__)
            elif not value:
                out.append("{}" if isinstance(value, dict) else "[]")
            else:
                nl = "\n" + "  " * len(stack)
                close = nl[:-2] + ("}" if isinstance(value, dict) else "]")
                if isinstance(value, dict):
                    seps = chain((nl,), repeat("," + nl))
                    keys = sorted(value)
                    heads = [sep + encode(k) + ": " for sep, k in zip(seps, keys)]
                    stack.append((zip(heads, map(value.__getitem__, keys)), close))
                    out.append("{")
                    break
                sep = "," + nl
                if type(value) is Grid and all(value):  # its cells are plain
                    # each row is '[', its quoted cells one level deeper, ']'
                    cell, start = '",' + nl + '  "', "[" + nl + '  "'
                    end = '"' + nl + "]"
                    out.append("[" + nl + start + (end + sep + start).join(
                        [cell.join(row) for row in value]) + end + close)
                    continue
                first = value[0].keys() if type(value[0]) is dict else None
                if first and all([type(item) is dict and item.keys() == first
                                  for item in value]):
                    try:  # each item is '{', its sorted "key": "value" lines, '}'
                        keys = sorted(first)
                        template = "{" + nl + "  " + ("," + nl + "  ").join(
                            [encode(k).replace("%", "%%") + ": %s" for k in keys]) + nl + "}"
                        columns = [map(encode, map(itemgetter(k), value)) for k in keys]
                        out.append("[" + nl + sep.join([template % cells for cells in zip(*columns)])
                                   + close)
                        continue
                    except TypeError:  # a key or value that is not a str
                        pass
                stack.append((zip(chain((nl,), repeat(sep)), value), close))
                out.append("[")
                break
        else:
            out.append(stack.pop()[1])
    out.append("\n")
    return "".join(out)


def _pretty_grid(title: str, grid: list[list[str]]) -> list[str]:
    lines = [title + ":"]
    if not grid:
        lines.append("  (empty)")
        return lines
    width = max((len(s) for row in grid for s in row), default=1)
    for row in grid:
        lines.append("  [ " + "  ".join(s.rjust(width) for s in row) + " ]")
    return lines


def _pretty_vectors(title: str, rows: list[list[str]]) -> list[str]:
    if not rows:
        return ["%s: (none)" % title]
    return ["%s:" % title] + ["  (%s)" % ", ".join(r) for r in rows]


def render_pretty(doc: dict) -> str:
    """Human-readable rendering, focused on the command that was run."""
    command = doc.get("command", "")
    lines: list[str] = []
    if command == "tate":
        t = doc["tate"]
        lines.append("cycle length: %d   cocycle g = (%s)"
                     % (t["m"], ", ".join(t["g"])))
        lines.extend(_pretty_grid("system matrix", t["system"]))
        lines.append("det = %s   rank = %d   holonomy = %s"
                     % (t["det"], t["rank"], t["holonomy"]))
        lines.extend(_pretty_vectors("kernel basis", t["kernel"]))
        lines.extend(_pretty_vectors("kernel edge images", t["edge_images"]))
        lines.append("defect = %d   quotient dimension = %d"
                     % (t["defect"], t["quotient_dim"]))
        lines.append("verdict: %s" % doc["verdict"])
        return "\n".join(lines) + "\n"

    dims = doc["dims"]
    lines.append("graph: %d vertices, %d edges; coefficient rank %d"
                 % (dims["vertices"], dims["edges"], dims["rank"]))
    if command == "laplacian":
        lines.extend(_pretty_grid("incidence matrix", doc["matrices"]["incidence"]))
        lines.extend(_pretty_grid("laplacian", doc["matrices"]["laplacian"]))
        lines.append("laplacian rank = %d" % dims["laplacian_rank"])
    elif command == "cohomology":
        lines.extend(_pretty_grid("coboundary matrix", doc["matrices"]["coboundary"]))
        lines.append("h0 = %d   h1 = %d" % (dims["h0"], dims["h1"]))
        lines.extend(_pretty_vectors("h0 basis", doc["bases"]["h0"]))
    else:
        lines.extend(_pretty_grid("system matrix", doc["matrices"]["system"]))
        lines.append("h0 = %d   h1 = %d   system rank = %d   defect = %d"
                     % (dims["h0"], dims["h1"], dims["system_rank"], dims["defect"]))
        lines.extend(_pretty_vectors("obstruction basis", doc["bases"]["obstruction"]))
        lines.append("verdict: %s" % doc["verdict"])
    return "\n".join(lines) + "\n"
