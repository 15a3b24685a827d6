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
from .graph import cycle_graph
from .linalg import Value, _lowest, _stack, check_digits, rank, vec
from .localsystem import LocalSystem
from .problem import check_cells


def build_tate(m: int, gvals: Sequence[int | str | Fraction]) -> LocalSystem:
    """The rank-2 unipotent system on the cycle graph of m >= 2 vertices."""
    values = vec(gvals)
    if m >= 2:  # else cycle_graph refuses the cycle itself
        if len(values) != m:
            raise ValueError("%d cocycle values for a %d-cycle" % (len(values), m))
        check_cells(m, m, 2)  # the cap of the defect document on the same cycle
    return LocalSystem.unipotent_rank2(cycle_graph(m), values)


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

    The obstruction is the span of the kernel's edge images, since the
    system matrix factors through the coboundary (see ``cohomology``), so
    the defect is the rank of the edge images the document prints: one
    forward pass over their k = dim ker A rows, with no back substitution
    and no H0 split.  The holonomy dichotomy (defect 1 exactly when the
    holonomy is nonzero) is a property of this family, checked in the test
    suite rather than assumed here.  The quotient dimension is that of the
    line a nonzero kernel image spans inside the obstruction, so 1 exactly
    when it is nonzero: the residue shadow of the one-dimensional quotient
    the example exhibits.  The rank is 2m minus the kernel dimension, so
    one kernel solve gives both, and ``_kernel_route`` checks that solve:
    a kernel basis vector outside ker A raises InternalCheckError.  It
    returns each image as an int row with its E_i, and the row is put over
    E_i e in lowest terms here, the one document that prints the images.

    The holonomy is computed once, right after the build, and bounded by
    ``check_digits`` before the kernel is solved: one whose numerator or
    denominator is over the digit limit is refused with the document's own
    ValueError, where the kernel of such a cycle can take tens of seconds.
    """
    values = vec(gvals)
    sys = build_tate(m, values)
    total = holonomy(values)
    check_digits(total.numerator, total.denominator)
    cob, a, kernel, images = _kernel_route(sys)
    edge_images = _stack(cob.rows, [_lowest(tuple(image.items()), big * e)
                                    for (image, big), e in zip(images, kernel.basis.dens)])
    defect = rank(edge_images)
    return TateReport(
        m=m,
        gvals=values,
        system=a,
        # (1, 0) at every vertex is a flat section, so the kernel is never
        # zero and the determinant always vanishes
        det=Fraction(0),
        rank=a.cols - kernel.dim,
        kernel=kernel,
        edge_images=edge_images,
        holonomy=total,
        defect=defect,
        quotient_dim=min(defect, 1),
    )
