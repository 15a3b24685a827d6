"""Graph cohomology with local coefficients, and the exactness obstruction.

Everything here works in two coordinate spaces built from a rank-r system on
a graph with n vertices and m edges:

* vertex space, dimension n*r: blocks in vertex order, components within a
  block in frame order (a_v0^1, a_v0^2, ..., a_v1^1, ...);
* edge space, dimension m*r: blocks in edge order, same component order,
  every edge value written in its source-vertex frame.

The coboundary map sends vertex data to edge differences a_s - U_e a_t; its
kernel is H0 and its cokernel is H1.  The residue-constraint map sums, at
each vertex, the incident edge values transported into that vertex's frame;
its kernel is the space of residue-balanced edge families.  The composition
of the two maps is the system matrix, which for the trivial rank-1 system is
the graph Laplacian.

The obstruction space is the intersection of the coboundary image with the
residue-balanced space; its dimension (the defect) is what the exactness
verdict reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Mat, Subspace, Vector, colspace, nullspace, rank
from .localsystem import EdgeCochain, LocalSystem


def coboundary_matrix(sys: LocalSystem) -> Mat:
    """The (m*r) x (n*r) matrix of the vertex-to-edge difference map.

    The block row of edge e = (s, t) reads +I at block column s and -U_e at
    block column t, i.e. it computes a_s - U_e a_t in the s-frame.
    """
    g, r = sys.graph, sys.rank
    grid = []
    for e, (s, t) in enumerate(g.edges):
        row = [Mat.zeros(r, r) for _ in range(g.n)]
        row[s] = row[s] + Mat.identity(r)
        row[t] = row[t] - sys.transitions[e]
        grid.append(row)
    if not grid:
        return Mat.zeros(0, g.n * r)
    return Mat.block(grid)


def residue_constraint_matrix(sys: LocalSystem) -> Mat:
    """The (n*r) x (m*r) matrix of per-vertex transported edge sums.

    The block row of vertex u picks up +value for each edge with canonical
    source u and -(U_e^-1 value) for each edge with canonical target u, so a
    kernel element has vanishing residue sum at every vertex.
    """
    g, r = sys.graph, sys.rank
    if g.m == 0:
        return Mat.zeros(g.n * r, 0)
    grid = []
    for u in range(g.n):
        row = []
        for e, (s, t) in enumerate(g.edges):
            if s == u:
                row.append(Mat.identity(r))
            elif t == u:
                row.append(-sys.transition_inverse(e))
            else:
                row.append(Mat.zeros(r, r))
        grid.append(row)
    return Mat.block(grid)


def system_matrix(sys: LocalSystem) -> Mat:
    """The (n*r) x (n*r) matrix of the per-vertex balance equations.

    Block (u, u) is deg(u) I; for every edge between u and w the block
    (u, w) loses the transition that carries the w-frame into the u-frame.
    Built directly from the degrees so the factorization through the
    coboundary and residue matrices stays an independent check.
    """
    g, r = sys.graph, sys.rank
    grid = [[Mat.zeros(r, r) for _ in range(g.n)] for _ in range(g.n)]
    for u in range(g.n):
        grid[u][u] = Mat.identity(r).scale(g.degree(u))
    for e, (s, t) in enumerate(g.edges):
        grid[s][t] = grid[s][t] - sys.transitions[e]
        grid[t][s] = grid[t][s] - sys.transition_inverse(e)
    return Mat.block(grid)


def h0(sys: LocalSystem) -> Subspace:
    """Global flat sections: the kernel of the coboundary map."""
    return nullspace(coboundary_matrix(sys))


def h1_dim(sys: LocalSystem) -> int:
    """Dimension of the cokernel of the coboundary map."""
    return sys.graph.m * sys.rank - rank(coboundary_matrix(sys))


def coboundary_image(sys: LocalSystem) -> Subspace:
    """Edge families that come from vertex data."""
    return colspace(coboundary_matrix(sys))


def residue_kernel(sys: LocalSystem) -> Subspace:
    """Edge families whose transported sum vanishes at every vertex."""
    return nullspace(residue_constraint_matrix(sys))


def obstruction(sys: LocalSystem) -> Subspace:
    """Intersection of the coboundary image with the residue kernel."""
    return _obstruction(coboundary_matrix(sys), residue_constraint_matrix(sys))


def _obstruction(cob: Mat, residue: Mat) -> Subspace:
    """The obstruction from already assembled coboundary and residue matrices."""
    return colspace(cob).intersect(nullspace(residue))


def coboundary(sys: LocalSystem, vertex_values: Sequence[Fraction]) -> EdgeCochain:
    """Apply the coboundary map to flat vertex data, as an edge cochain."""
    flat = coboundary_matrix(sys).mul_vec(vertex_values)
    r = sys.rank
    values = [flat[e * r:(e + 1) * r] for e in range(sys.graph.m)]
    return EdgeCochain(sys, tuple(values))


def edge_image(sys: LocalSystem, vertex_values: Sequence[Fraction]) -> Vector:
    """The coboundary of flat vertex data, as a flat edge-space vector."""
    return coboundary_matrix(sys).mul_vec(vertex_values)


@dataclass(frozen=True)
class CohomologyReport:
    """Dimensions, subspaces and verdict for one coefficient system."""

    h0_dim: int
    h1_dim: int
    h0_basis: Subspace
    coboundary_image: Subspace
    residue_kernel: Subspace
    obstruction: Subspace
    system: Mat
    defect: int
    exact: bool


def invariant_cycles_report(sys: LocalSystem) -> CohomologyReport:
    """Full report; `exact` means the obstruction space is zero.

    The verdict is combinatorial: a nonzero obstruction exhibits a
    residue-balanced edge family that comes from vertex data, which is
    exactly the defect the obstruction space measures.
    """
    sections = h0(sys)
    image = coboundary_image(sys)
    balanced = residue_kernel(sys)
    blocked = image.intersect(balanced)
    defect = blocked.dim
    return CohomologyReport(
        h0_dim=sections.dim,
        h1_dim=h1_dim(sys),
        h0_basis=sections,
        coboundary_image=image,
        residue_kernel=balanced,
        obstruction=blocked,
        system=system_matrix(sys),
        defect=defect,
        exact=defect == 0,
    )
