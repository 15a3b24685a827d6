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
connection Laplacian of the system, and one elimination of a matrix with
k = dim ker A rows.  Two identities make that enough:

* obstruction = delta(ker A): delta(x) is residue-balanced exactly when
  A x = R delta(x) = 0;
* ker delta lies inside ker A, so H0 is cut out of ker A by the images.

For a kernel basis k_1, ..., k_k the k rows [delta(k_i) | k_i] are reduced
once.  The reduced rows that pivot in the edge part span delta(ker A); cut
to the edge part, they are its RREF.  The others are zero on the edge part,
so they are the x in ker A with delta(x) = 0, and their vertex part is the
RREF of H0.

The free functions ``h0``, ``h1_dim``, ``coboundary_image``,
``residue_kernel`` and ``obstruction`` compute each space directly from
delta and R; they are the oracle the checks compare the report against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import (Mat, Row, Subspace, _lowest, _over_lcm, _stack, colspace, nullspace,
                     rank, rref)
from .localsystem import LocalSystem


def _assemble(block_rows: int, block_cols: int, r: int,
              blocks: list[tuple[int, int, int, Mat]]) -> Mat:
    """Sum coefficient x block at each (block row, block column) given.

    Every block is r x r and every coefficient is 1 or -1.  Output row i
    gathers the block rows that land in it; they are added as integer rows
    over the lcm of their denominators, so blocks at the same position add
    up, and the sum is put in lowest terms.
    """
    parts: list[list[tuple[int, int, Row, int]]] = [[] for _ in range(block_rows * r)]
    for bi, bj, coefficient, block in blocks:
        for i, (pairs, d) in enumerate(zip(block.nums, block.dens)):
            parts[bi * r + i].append((bj * r, coefficient, pairs, d))
    rows, dens = [], []
    for row_parts in parts:
        e = lcm(*[d for _, _, _, d in row_parts])
        row: dict[int, int] = {}
        for offset, coefficient, pairs, d in row_parts:
            c = coefficient * (e // d)
            for j, n in pairs:
                k = offset + j
                row[k] = row[k] + c * n if k in row else c * n
        rows.append(row)
        dens.append(e)
    return Mat.from_integer_rows(rows, dens, block_cols * r)


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


def _kernel_route(sys: LocalSystem) -> tuple[Mat, Mat, Subspace, Mat, Subspace, Subspace]:
    """Assemble delta and A, eliminate A once, and map ker A through delta.

    Returns (delta, A, ker A, the images, the obstruction, H0).  Row i of
    the images is delta(k_i) for kernel basis row k_i, each entry the dot
    product of a stored row of delta with k_i.  The obstruction and H0 are
    read off one rref of the rows [delta(k_i) | k_i], as the module
    docstring explains.
    """
    cob = coboundary_matrix(sys)
    a = system_matrix(sys)
    kernel = nullspace(a)
    edges = cob.rows
    images, stacked = [], []
    for pairs, e in zip(kernel.basis.nums, kernel.basis.dens):
        x = dict(pairs)
        image = []
        for p, (row, d) in enumerate(zip(cob.nums, cob.dens)):
            s = sum([n * x[j] for j, n in row if j in x])
            if s:
                image.append((p, s, d * e))
        image_pairs, f = _over_lcm(image)
        images.append((image_pairs, f))
        stacked.append(_over_lcm([(p, n, f) for p, n in image_pairs]
                                 + [(edges + j, n, e) for j, n in pairs]))
    reduced, pivots = rref(_stack(edges + cob.cols, stacked))
    rows = list(zip(reduced.nums[:len(pivots)], reduced.dens))
    split = sum(1 for c in pivots if c < edges)
    blocked = [_lowest([q for q in pairs if q[0] < edges], d) for pairs, d in rows[:split]]
    sections = [(tuple([(j - edges, n) for j, n in pairs]), d) for pairs, d in rows[split:]]
    return (cob, a, kernel, _stack(edges, images), Subspace(_stack(edges, blocked)),
            Subspace(_stack(cob.cols, sections)))


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
    ker delta lies inside ker A.  One rref of the k rows
    [delta(k_i) | k_i], for the k kernel basis rows k_i, gives both
    bases (see the module docstring), so no matrix with a row per edge or
    vertex is built after ker A.  h1 then follows from the Euler
    characteristic, and only the sparse residue matrix is eliminated
    besides.  The free functions h0, h1_dim, coboundary_image,
    residue_kernel and obstruction keep the direct route as an oracle.
    """
    g, r = sys.graph, sys.rank
    cob, a, kernel, _, blocked, sections = _kernel_route(sys)
    residue = residue_constraint_matrix(sys)
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
