"""Exact graph cohomology with local coefficients.

Builds the combinatorial pieces attached to a configuration of curves
meeting transversally: the dual multigraph, invertible transition systems on
its edges, the coboundary map with its h0/h1, the residue-balance
constraints, and the obstruction space whose dimension measures the failure
of the exactness verdict.  The cycle-graph workbench and the `monograph`
command line sit on top.  All arithmetic is exact over the rationals.
"""

from .cohomology import (CohomologyReport, coboundary_image,
                         coboundary_matrix, h0, h1_dim, invariant_cycles_report,
                         obstruction, residue_constraint_matrix, residue_kernel,
                         system_matrix)
from .graph import (DisconnectedError, DualGraph, GraphError, LoopEdgeError,
                    cycle_graph, incidence_matrix, laplacian)
from .linalg import (Mat, Subspace, colspace, det, nullspace, parse_rational,
                     rank, rowspace, rref, vec)
from .localsystem import LocalSystem
from .problem import ParseError, ProblemSpec, SystemSpec, load_problem, parse_spec, render
from .tate import TateReport, build_tate, holonomy, tate_report

__version__ = "0.1.0"

__all__ = [
    "CohomologyReport", "DisconnectedError", "DualGraph", "GraphError",
    "LocalSystem", "LoopEdgeError", "Mat", "ParseError",
    "ProblemSpec", "Subspace", "SystemSpec", "TateReport",
    "build_tate", "coboundary_image", "coboundary_matrix",
    "colspace", "cycle_graph", "det", "h0", "h1_dim",
    "holonomy", "incidence_matrix", "invariant_cycles_report", "laplacian",
    "load_problem", "nullspace", "obstruction", "parse_rational", "parse_spec",
    "rank", "render", "residue_constraint_matrix", "residue_kernel", "rowspace", "rref",
    "system_matrix", "tate_report", "vec",
]
