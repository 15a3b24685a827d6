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

``invariant_cycles_report`` analyzes a system with one elimination of the
system matrix A = R.delta (R the residue map, delta the coboundary), the
connection Laplacian of the system.  Two identities make that enough:

* obstruction = delta(ker A): delta(x) is residue-balanced exactly when
  A x = R delta(x) = 0;
* ker delta lies inside ker A, so H0 is cut out of ker A by the images.

The free functions ``h0``, ``h1_dim``, ``coboundary_image``,
``residue_kernel`` and ``obstruction`` compute each space directly from
delta and R; they are the oracle the checks compare the report against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, Subspace, colspace, nullspace, rank, rowspace
from .localsystem import LocalSystem


def _assemble(block_rows: int, block_cols: int, r: int,
              blocks: list[tuple[int, int, int, Mat]]) -> Mat:
    """Sum coefficient x block at each (block row, block column) given.

    Every block is r x r and every coefficient is 1 or -1; the block's
    nonzeros are added into one {column: entry} dict per output row, so
    blocks at the same position add up.
    """
    rows: list[dict[int, Fraction]] = [{} for _ in range(block_rows * r)]
    for bi, bj, coefficient, block in blocks:
        for i, pairs in enumerate(block.nonzero):
            row = rows[bi * r + i]
            for j, x in pairs:
                k, y = bj * r + j, x if coefficient == 1 else -x
                row[k] = row[k] + y if k in row else y
    return Mat.from_dicts(rows, block_cols * r)


def coboundary_matrix(sys: LocalSystem) -> Mat:
    """The (m*r) x (n*r) matrix of the vertex-to-edge difference map.

    The block row of edge e = (s, t) reads +I at block column s and -U_e at
    block column t, i.e. it computes a_s - U_e a_t in the s-frame.
    """
    g, r = sys.graph, sys.rank
    one = Mat.identity(r)
    blocks = []
    for e, (s, t) in enumerate(g.edges):
        blocks += [(e, s, 1, one), (e, t, -1, sys.transitions[e])]
    return _assemble(g.m, g.n, r, blocks)


def residue_constraint_matrix(sys: LocalSystem) -> Mat:
    """The (n*r) x (m*r) matrix of per-vertex transported edge sums.

    The block row of vertex u picks up +value for each edge with canonical
    source u and -(U_e^-1 value) for each edge with canonical target u, so a
    kernel element has vanishing residue sum at every vertex.
    """
    g, r = sys.graph, sys.rank
    one = Mat.identity(r)
    blocks = []
    for e, (s, t) in enumerate(g.edges):
        blocks += [(s, e, 1, one), (t, e, -1, sys.transition_inverse(e))]
    return _assemble(g.n, g.m, r, blocks)


def system_matrix(sys: LocalSystem) -> Mat:
    """The (n*r) x (n*r) matrix of the per-vertex balance equations.

    Block (u, u) is deg(u) I, one I per edge end at u; for every edge
    between u and w the block (u, w) loses the transition that carries the
    w-frame into the u-frame.  Built directly from the edges so the
    factorization through the coboundary and residue matrices stays an
    independent check.
    """
    g, r = sys.graph, sys.rank
    one = Mat.identity(r)
    blocks = []
    for e, (s, t) in enumerate(g.edges):
        blocks += [(s, s, 1, one), (t, t, 1, one),
                   (s, t, -1, sys.transitions[e]),
                   (t, s, -1, sys.transition_inverse(e))]
    return _assemble(g.n, g.n, r, blocks)


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
    return coboundary_image(sys).intersect(residue_kernel(sys))


def _kernel_route(sys: LocalSystem) -> tuple[Mat, Mat, Subspace, Mat, Subspace]:
    """Assemble delta and A, eliminate A once, and map ker A through delta.

    Returns (delta, A, ker A, delta times the transposed basis, the
    column span of that product); the span is the obstruction, because
    delta(x) lies in ker R exactly when A x = 0.  Column j of the product
    is the image of kernel basis vector j, all mapped in one product.
    """
    cob = coboundary_matrix(sys)
    a = system_matrix(sys)
    kernel = nullspace(a)
    images = cob @ kernel.basis.transpose()
    return cob, a, kernel, images, colspace(images)


@dataclass(frozen=True)
class CohomologyReport:
    """Dimensions, subspaces, assembled matrices and verdict for one
    coefficient system."""

    h0_dim: int
    h1_dim: int
    h0_basis: Subspace
    obstruction: Subspace
    coboundary: Mat
    residue: Mat
    system: Mat
    system_rank: int
    coboundary_image_dim: int
    residue_kernel_dim: int
    defect: int
    exact: bool


def invariant_cycles_report(sys: LocalSystem) -> CohomologyReport:
    """Full report; `exact` means the obstruction space is zero.

    The verdict is combinatorial: a nonzero obstruction exhibits a
    residue-balanced edge family that comes from vertex data, which is
    exactly the defect the obstruction space measures.

    Each matrix is assembled once and the system matrix A = R.delta is
    eliminated once.  Its kernel K gives everything else: the obstruction
    is delta(K), because delta(x) lies in ker R exactly when A x = 0; and
    H0 = ker delta is the set of x in K with delta(x) = 0, because
    ker delta lies inside ker A.  h1 then follows from the Euler
    characteristic, and only the sparse residue matrix is eliminated
    besides.  The free functions h0, h1_dim, coboundary_image,
    residue_kernel and obstruction keep the direct route as an oracle.
    """
    g, r = sys.graph, sys.rank
    cob, a, kernel, images, blocked = _kernel_route(sys)
    residue = residue_constraint_matrix(sys)
    # coefficient vectors c with sum c_i delta(k_i) = 0 give ker delta
    relations = nullspace(images)
    sections = rowspace(relations.basis @ kernel.basis)
    image_dim = g.n * r - sections.dim
    return CohomologyReport(
        h0_dim=sections.dim,
        h1_dim=g.m * r - image_dim,
        h0_basis=sections,
        obstruction=blocked,
        coboundary=cob,
        residue=residue,
        system=a,
        system_rank=g.n * r - kernel.dim,
        coboundary_image_dim=image_dim,
        residue_kernel_dim=g.m * r - rank(residue),
        defect=blocked.dim,
        exact=blocked.dim == 0,
    )
