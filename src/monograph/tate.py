"""End-to-end workbench for the degenerate elliptic curve whose dual graph
is an m-cycle.

The coefficient system is the rank-2 unipotent one determined by one cocycle
value per edge.  The report collects the system matrix with its determinant,
rank and kernel, the edge-space images of the kernel generators, the signed
holonomy of the cocycle around the cycle, and the exactness defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .cohomology import _kernel_route
from .graph import DualGraph, cycle_graph
from .linalg import Mat, Subspace, vec
from .localsystem import LocalSystem
from .problem import check_cells


def build_tate(m: int, gvals: Sequence[int | str | Fraction]) -> tuple[DualGraph, LocalSystem]:
    """Cycle graph on m >= 2 vertices with the rank-2 unipotent system."""
    values = vec(gvals)
    if len(values) != m:
        raise ValueError("%d cocycle values for a %d-cycle" % (len(values), m))
    check_cells(m, m, 2)  # the cap of the defect document on the same cycle
    g = cycle_graph(m)
    return g, LocalSystem.unipotent_rank2(g, values)


def holonomy(gvals: Sequence[Fraction]) -> Fraction:
    """Signed sum of the cocycle around the cycle.

    The closing edge is oriented 0 -> m-1, against the direction of travel,
    so it enters with a minus sign: g_0 + ... + g_{m-2} - g_{m-1}.  The
    numerators are summed over the lcm of the denominators, in ints.  An
    empty cocycle is refused with ValueError.
    """
    if not gvals:
        raise ValueError("a cocycle of length 0 has no holonomy: a cycle has at least 2 edges")
    d = lcm(*[x.denominator for x in gvals])
    n = [x.numerator * (d // x.denominator) for x in gvals]
    return Fraction(sum(n[:-1]) - n[-1], d)


@dataclass(frozen=True)
class TateReport:
    """Everything the m-cycle example produces, exactly.

    ``edge_images`` has one row per kernel generator: row j is the
    edge-space image of kernel generator j, as the document prints it.
    """

    m: int
    gvals: tuple[Fraction, ...]
    system: Mat
    det: Fraction
    rank: int
    kernel: Subspace
    edge_images: Mat
    holonomy: Fraction
    defect: int
    quotient_dim: int


def tate_report(m: int, gvals: Sequence[int | str | Fraction]) -> TateReport:
    """Compute the full report for the m-cycle with the given cocycle.

    The defect is computed from the obstruction space itself; the holonomy
    dichotomy (defect 1 exactly when the holonomy is nonzero) is a property
    of this family, checked in the test suite rather than assumed here.
    The obstruction is the span of the kernel's edge images, since the
    system matrix factors through the coboundary (see ``cohomology``).
    The quotient dimension is that of the line a nonzero kernel image spans
    inside it, so 1 exactly when the obstruction is nonzero: the residue
    shadow of the one-dimensional quotient the example exhibits.  The rank
    is 2m minus the kernel dimension, so one kernel solve gives both.
    """
    values = vec(gvals)
    _, a, kernel, images, blocked, _ = _kernel_route(build_tate(m, values)[1])
    return TateReport(
        m=m,
        gvals=values,
        system=a,
        # (1, 0) at every vertex is a flat section, so the kernel is never
        # zero and the determinant always vanishes
        det=Fraction(0),
        rank=a.cols - kernel.dim,
        kernel=kernel,
        edge_images=images,
        holonomy=holonomy(values),
        defect=blocked.dim,
        quotient_dim=min(blocked.dim, 1),
    )
