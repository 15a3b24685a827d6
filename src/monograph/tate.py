"""End-to-end workbench for the degenerate elliptic curve whose dual graph
is an m-cycle.

The coefficient system is the rank-2 unipotent one determined by one cocycle
value per edge.  The report collects the system matrix with its determinant,
rank and kernel, the edge-space images of the kernel generators, the signed
holonomy of the cocycle around the cycle, and the exactness defect.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .cohomology import _kernel_route
from .graph import DualGraph, cycle_graph
from .linalg import Value, _lowest, _stack, check_digits, vec
from .localsystem import LocalSystem
from .problem import check_cells


def build_tate(m: int, gvals: Sequence[int | str | Fraction]) -> tuple[DualGraph, LocalSystem]:
    """Cycle graph on m >= 2 vertices with the rank-2 unipotent system."""
    values = vec(gvals)
    if m >= 2:  # else cycle_graph refuses the cycle itself
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


class TateReport(Value):
    """Everything the m-cycle example produces, exactly.

    ``edge_images`` has one row per kernel generator: row j is the
    edge-space image of kernel generator j, as the document prints it.
    """

    _fields = ("m", "gvals", "system", "det", "rank", "kernel", "edge_images", "holonomy",
               "defect", "quotient_dim")


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
    is 2m minus the kernel dimension, so one kernel solve gives both, and
    ``_kernel_route`` checks that solve: a kernel basis vector outside
    ker A raises InternalCheckError.  It returns the edge images as it
    accumulated them, and they are put in lowest terms here, the one
    document that prints them.

    The holonomy is computed once, right after the build, and bounded by
    ``check_digits`` before the kernel is solved: one whose numerator or
    denominator is over the digit limit is refused with the document's own
    ValueError, where the kernel of such a cycle can take tens of seconds.
    """
    values = vec(gvals)
    sys = build_tate(m, values)[1]
    total = holonomy(values)
    check_digits(total.numerator, total.denominator)
    cob, a, kernel, images, blocked, _ = _kernel_route(sys)
    return TateReport(
        m=m,
        gvals=values,
        system=a,
        # (1, 0) at every vertex is a flat section, so the kernel is never
        # zero and the determinant always vanishes
        det=Fraction(0),
        rank=a.cols - kernel.dim,
        kernel=kernel,
        edge_images=_stack(cob.rows, [_lowest(pairs, d) for pairs, d in images]),
        holonomy=total,
        defect=blocked.dim,
        quotient_dim=min(blocked.dim, 1),
    )
