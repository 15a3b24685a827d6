"""Report documents: one deterministic, JSON-serializable dict per run.

Identical inputs produce byte-identical machine output: serialization sorts
keys, every rational is rendered in lowest terms, and all content is a pure
function of the problem.  Every run re-verifies that the system matrix
factors through the residue-constraint and coboundary matrices; a failure
raises InternalCheckError, which the command line maps to its own exit
status because it can only mean a bug, never bad input.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from . import cohomology, tate
from .graph import incidence_matrix, laplacian
from .linalg import Mat
from .problem import ProblemSpec

GRAPH_COMMANDS = ("laplacian", "cohomology", "defect")


class InternalCheckError(RuntimeError):
    """An internal consistency identity failed; this is a bug, not bad input."""


def matrix_grid(m: Mat) -> list[list[str]]:
    """The rows of m as strings, rendered from its stored nonzeros."""
    grid = []
    for pairs in m.nonzero:
        row = ["0"] * m.cols
        for j, x in pairs:
            row[j] = str(x)
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

    if report.residue @ report.coboundary != report.system:
        raise InternalCheckError(
            "system matrix does not factor through the residue and coboundary "
            "matrices")

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
            "g": list(map(str, r.gvals)),
            "system": matrix_grid(r.system),
            "det": str(r.det),
            "rank": r.rank,
            "kernel": matrix_grid(r.kernel.basis),
            "edge_images": matrix_grid(r.edge_images.transpose()),
            "holonomy": str(r.holonomy),
            "defect": r.defect,
            "quotient_dim": r.quotient_dim,
        },
        "verdict": verdict_of(r.defect),
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
