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

``invariant_cycles_report`` analyzes a system from the kernel of the
system matrix A = R.delta (R the residue map, delta the coboundary), the
connection Laplacian of the system, and one elimination of a matrix with
k = dim ker A rows.  Two identities make that enough:

* obstruction = delta(ker A): delta(x) is residue-balanced exactly when
  A x = R delta(x) = 0;
* ker delta lies inside ker A, so H0 is cut out of ker A by the images.

``_kernel_route`` ends at the checked kernel: it returns delta, A, a
kernel basis k_1, ..., k_k and the images delta(k_i), each an int row
from delta's stored rows over its own denominator.  The tate workbench
reads the obstruction's dimension as the rank of the images.
``invariant_cycles_report`` writes k_i after each image, making the k rows
[delta(k_i) | k_i], and reduces them once by ``linalg._reduced``, the
forward pass and back substitution; no Mat is built for them.  The reduced
rows that pivot in the edge part span delta(ker A); cut to the edge part
and written over their pivots, they are its RREF.  The others are zero on
the edge part, so they are the x in ker A with delta(x) = 0, and their
vertex part is the RREF of H0.

ker A is solved one frame component at a time on the scalar Laplacian L.
Unipotent coefficients are successive extensions of the trivial one, so
every constructor (trivial, unipotent2, each extension layer) builds upper
unitriangular transitions.  Then row (u, i) of A has no entry in a
component before i, and its component-i entries are row u of L.  So, in
component-major order, A is block upper triangular with L on the diagonal,
and on a connected graph ker L is the constants.  x_{r-1} = 1 on every
vertex starts the partial solutions.  At each earlier component i, with k
partial solutions s over the later components, B's column s is
b_s = sum over j > i of A_ij s_j, and each kernel vector (lambda, y) of
the n x (k + n) matrix [B | L] gives the partial solution
y + sum of lambda_s s.  Since the image of L is {v : 1^T v = 0}, a
component adds one solution unless 1^T B != 0, so dim ker A is r minus
the number of components with 1^T B != 0; at rank 2, 1^T A_01 1 = 0, as
each edge puts -g_e and +g_e into that block, so dim ker A = 2.  The k
final solutions are reduced by ``_reduced`` to their RREF, the unique
basis ``nullspace(A)`` gives, so no output depends on the route.  On a
graph with a cycle, eliminating all of A fills in along the cycles, and
each coupled component keeps k down.  With one independent cycle (m = n,
as on the m-cycle, the dual graph of a Tate curve's special fiber),
L y = -B lambda needs no elimination at all: as Kirchhoff solved it,
y_v - y_parent along the breadth-first spanning tree the graph keeps from
its one walk (``DualGraph.tree``) is the sum of -B lambda over v's
subtree, corrected by the flow on the one non-tree edge, and going round
the cycle gives that flow by one division (``_cycle_kernel``).  With more
cycles, the rows of [B | L] go to ``linalg._kernel`` in their natural
order, with row u of L read off A's row (u, r - 1): each transition's
last row is e_{r-1}, so that row holds only component r - 1, over 1,
with L's integers.  B comes from one ``_coupling`` call per component,
made before a solver is picked, so both solvers take the same
beta = D B over D, the lcm of the denominators d_u of A's rows (u, i),
and solve ker [beta | L] with L the integer Laplacian: (lambda, y) is in
it exactly when (D lambda, y) is in ker [B | L], so lambda is multiplied
by D before the lift.  Only beta's k columns carry D.  The fraction-free
entries of an elimination are minors of its input (Bareiss 1968), and a
minor is linear in each column, so D enters each minor at most once; the
rows (u, i) of A over their own d_u would put d_u into every Laplacian
entry, and so into every minor again.  On a tree no component is coupled (H0
has dimension r there), so the route carries r dense solutions through
every component, while A, with no cycle to fill in, is no slower to
eliminate whole.  So trees, and systems with any other transition, which
only an explicit ``LocalSystem(...)`` builds, take ``nullspace(A)``,
back-solved from one forward pass over all of A.

R is not eliminated: with T_0 = I and T_s U_e = T_t along the same stored
tree, which the graph walked once when it was built,
x -> sum of T_v x_v is onto Q^r, its kernel is spanned by R's (n - 1) r
independent tree columns, and it sends the block of a non-tree edge e to
(T_s U_e - T_t) U_e^-1.  So rank R is (n - 1) r plus the rank of the
c = m - n + 1 blocks T_s U_e - T_t side by side, and the report reads
dim ker R off the cycle count c:

* c = 0, a tree: there is no block, so R is injective and dim ker R = 0;
* c = 1: the one block is (M - I) T_t, with M = T_s U_e T_t^-1 the
  monodromy round the cycle, so its rank is r - dim ker (M - I).  A flat
  section is fixed by its value at vertex 0, as x_v = T_v^-1 x_0, and is
  flat on e exactly when M x_0 = x_0, so dim ker (M - I) = dim H0, and
  dim ker R = m r - n r + dim H0 = dim H0, for every invertible system;
* c >= 2: ``residue_rank`` carries the transports along the tree and
  eliminates the r-row blocks.

The free functions ``h0``, ``h1_dim``, ``coboundary_image``,
``residue_kernel`` and ``obstruction`` compute each space directly from
delta and R; they are the oracle the checks compare the report against.

Every result is checked where it is computed, so library callers, the
documents and ``monograph check`` get the same guard.  ``_kernel_route``,
which serves ``invariant_cycles_report`` and the tate workbench, checks
A K^T = 0 for the kernel basis K it solved, and
``invariant_cycles_report`` checks the factorization R.delta = A with
``_factors``, which takes each row of R.delta from ``linalg._products``,
the product's own row loop, and compares it with A's row entry by entry,
so no product Mat is built.  A failure raises InternalCheckError: it can
only mean a bug, never bad input, and the command line gives it its own
exit status.
A K^T = 0 shows that K lies inside ker A, not that K is all of ker A;
the tests compare K with ``nullspace(A)`` for that.
"""

from __future__ import annotations

from math import gcd, lcm

from .graph import DualGraph
from .linalg import (DimensionMismatch, Mat, Row, Subspace, Value, _echelon, _kernel, _lowest,
                     _mat, _products, _reduce, _reduced, _stack, colspace, nullspace, rank)
from .localsystem import LocalSystem


class InternalCheckError(RuntimeError):
    """An internal consistency identity failed; this is a bug, not bad input."""


def coboundary_matrix(sys: LocalSystem) -> Mat:
    """The (m*r) x (n*r) matrix of the vertex-to-edge difference map.

    The block row of edge e = (s, t) reads +I at block column s and -U_e at
    block column t, i.e. it computes a_s - U_e a_t in the s-frame: row i of
    U_e, pairs / d, gives (s*r + i, d) and each (t*r + j, -n) over d.
    """
    g, r = sys.graph, sys.rank
    nums, dens = [], []
    for (s, t), u in zip(g.edges, sys.transitions):
        for i, (pairs, d) in enumerate(zip(u.nums, u.dens)):
            one, other = ((s * r + i, d),), tuple([(t * r + j, -n) for j, n in pairs])
            nums.append(one + other if s < t else other + one)
            dens.append(d)
    return _mat(g.m * r, g.n * r, tuple(nums), tuple(dens))


def _ends(sys: LocalSystem) -> list[list[tuple[int, int, Mat, bool]]]:
    """The graph's stored edge ends, each vertex's in edge order, with the
    transition attached: (e, the far end v, the transition from v's frame
    into this one, whether this is e's source)."""
    u, inverse = sys.transitions, sys.transition_inverse
    return [[(e, v, u[e] if source else inverse(e), source) for e, v, source in ends]
            for ends in sys.graph.ends]


def residue_constraint_matrix(sys: LocalSystem) -> Mat:
    """The (n*r) x (m*r) matrix of per-vertex transported edge sums.

    The block row of vertex u picks up +value for each edge with canonical
    source u and -(U_e^-1 value) for each edge with canonical target u, so a
    kernel element has vanishing residue sum at every vertex.
    """
    r, rows = sys.rank, []
    for ends in _ends(sys):
        for i in range(r):
            d = lcm(*[w.dens[i] for _, _, w, source in ends if not source])
            pairs = []
            for e, _, w, source in ends:
                if source:
                    pairs.append((e * r + i, d))
                else:
                    c = d // w.dens[i]
                    pairs += [(e * r + j, -c * n) for j, n in w.nums[i]]
            rows.append(_lowest(pairs, d))
    return _stack(sys.graph.m * r, rows)


def system_matrix(sys: LocalSystem) -> Mat:
    """The (n*r) x (n*r) matrix of the per-vertex balance equations.

    Block (u, u) is deg(u) I, one I per edge end at u; for every edge
    between u and w the block (u, w) loses the transition that carries the
    w-frame into the u-frame.  Built directly from the edges so the
    factorization through the coboundary and residue matrices stays an
    independent check; parallel edges add up.
    """
    r, rows = sys.rank, []
    for u, ends in enumerate(_ends(sys)):
        for i in range(r):
            d = lcm(*[w.dens[i] for _, _, w, _ in ends])
            row = {u * r + i: len(ends) * d}
            for _, v, w, _ in ends:
                c = d // w.dens[i]
                for j, n in w.nums[i]:
                    k = v * r + j
                    row[k] = row[k] - c * n if k in row else -c * n
            rows.append(_reduce(row, d))
    return _stack(sys.graph.n * r, rows)


Transport = tuple[list[dict[int, int]], int]  # r x r, int rows over one denominator


def _times(transport: Transport, u: Mat) -> Transport:
    """The transport T.u, put in lowest terms by one gcd; the accumulated
    rows are returned as they are when the gcd is 1 and no entry
    cancelled, as ``linalg._combine`` does."""
    rows, d = transport
    e = lcm(*u.dens)
    out = []
    for row in rows:
        acc: dict[int, int] = {}
        for k, x in row.items():
            c = x * (e // u.dens[k])
            for j, y in u.nums[k]:
                acc[j] = acc[j] + c * y if j in acc else c * y
        out.append(acc)
    values = [x for acc in out for x in acc.values()]
    h = gcd(d * e, *values)
    if h == 1 and 0 not in values:
        return out, d * e
    return [{j: x // h for j, x in acc.items() if x} for acc in out], d * e // h


def residue_rank(sys: LocalSystem) -> int:
    """rank R, from transports along the graph's stored breadth-first
    tree (see the module docstring): a tree edge e = (s, t) gives
    T_t = T_s U_e when reached from s, T_s = T_t U_e^-1 from t.  Block
    column e of the r-row matrix is T_s U_e - T_t, scaled to ints, for a
    non-tree edge, else 0.  This is the general route, for any cycle
    count; ``invariant_cycles_report`` calls it only on graphs with two or
    more independent cycles, and reads the rank off the count below that."""
    g, r = sys.graph, sys.rank
    transports: list[Transport | None] = [None] * g.n
    transports[0] = ([{i: 1} for i in range(r)], 1)
    tree = [False] * g.m
    for e, u, v in g.tree:
        w = sys.transitions[e] if g.edges[e][0] == u else sys.transition_inverse(e)
        transports[v], tree[e] = _times(transports[u], w), True
    blocks: list[dict[int, int]] = [{} for _ in range(r)]
    for e, (s, t) in enumerate(g.edges):
        if not tree[e]:
            (a, da), (b, db) = _times(transports[s], sys.transitions[e]), transports[t]
            d, offset = lcm(da, db), e * r
            for row, x, y in zip(blocks, a, b):
                row.update({offset + j: n * (d // da) for j, n in x.items()})
                for j, n in y.items():
                    row[offset + j] = row.get(offset + j, 0) - n * (d // db)
    # a closed non-tree edge cancels to stored zeros, which _echelon
    # would take as pivots
    nonzero = [{j: n for j, n in row.items() if n} for row in blocks]
    return (g.n - 1) * r + len(_echelon(nonzero, g.m * r)[1])


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


def _layered(sys: LocalSystem) -> bool:
    """Whether ker A takes ``_layered_kernel``: the graph has a cycle and
    every transition is upper unitriangular, its stored row i starting
    with (i, d) over d.  On a tree no component is coupled, so the route
    would carry r dense partial solutions through all r components, about
    n r^3 work, while A fills in little under ``nullspace``."""
    if sys.graph.m < sys.graph.n:
        return False
    for u in sys.transitions:
        i = 0
        for pairs, d in zip(u.nums, u.dens):
            if not pairs or pairs[0] != (i, d):
                return False
            i += 1
    return True


def _layered_kernel(a: Mat, graph: DualGraph, r: int) -> Subspace:
    """ker A for upper unitriangular transitions, one frame component at a
    time on the scalar Laplacian (see the module docstring).

    The partial solutions over components i + 1, ..., r - 1 are primitive
    int dicts over A's columns, starting from 1 in component r - 1.  At
    component i, one ``_coupling`` call gives D and beta = D B, and both
    solvers return ker [beta | L] from them, its lambda part multiplied by D
    before the lift.  On a graph with one independent cycle,
    ``_cycle_kernel`` solves each component along the graph's stored
    breadth-first tree; the cycle it needs, the one non-tree edge (s, t),
    ``side`` and the cycle's length, is worked out here, once.  side[v] is 1
    when v's subtree holds s but not t, -1 when it holds t but not s, and
    then the tree edge above v is on the cycle.  With more cycles the rows
    of [beta | L] go to ``_kernel`` as the pairs the lift reads back,
    lambda_s at column s and y_u at k + u; ``_kernel`` turns them, so the k
    coefficient columns are eliminated last.  Row u of L is row (u, r - 1)
    of A: each transition's last row is e_{r-1}, so that row holds only
    component r - 1, over 1, with L's integers.
    """
    n = graph.n
    if graph.m == n:
        (s, t), = [graph.edges[e] for e in set(range(n)) - {e for e, _, _ in graph.tree}]
        side = [0] * n
        side[s], side[t] = 1, -1
        for _, u, v in reversed(graph.tree):
            side[u] += side[v]
        length = 1 + sum(map(abs, side))
    solutions = [{v * r + r - 1: 1 for v in range(n)}]
    for i in range(r - 2, -1, -1):
        k = len(solutions)
        big, beta = _coupling(a, r, i, solutions)
        if graph.m == n:
            kernel = _cycle_kernel(graph, big, beta, side, length)
        else:
            rows = [[(s, b[u]) for s, b in enumerate(beta) if b[u]]
                    + [(k + c // r, x) for c, x in a.nums[u * r + r - 1]] for u in range(n)]
            kernel = [[(j, y * big if j < k else y) for j, y in pairs]
                      for pairs, _ in _kernel(rows, n + k)]
        lifted = []
        for pairs in kernel:
            # (lambda, y): y in component i plus the lambda_s solution_s
            x: dict[int, int] = {}
            for j, y in pairs:
                if j < k:
                    for c, z in solutions[j].items():
                        x[c] = x[c] + y * z if c in x else y * z
                else:
                    x[(j - k) * r + i] = y
            g = gcd(*x.values())
            lifted.append({c: y // g for c, y in x.items() if y})
        solutions = lifted
    return Subspace(_stack(n * r, _reduced(solutions, n * r)[0]))


def _coupling(a: Mat, r: int, i: int,
              solutions: list[dict[int, int]]) -> tuple[int, list[list[int]]]:
    """(D, beta), B = beta / D at component i: entry u of beta_s is row
    (u, i) of A, over its denominator d_u, dotted with solution s, which
    holds no component-i entry, and put over D, the lcm of the d_u.
    ``_layered_kernel`` calls it once per component, before it picks a
    solver, and hands both solvers the same (D, beta)."""
    rows = range(i, len(a.nums), r)
    big = lcm(*[a.dens[row] for row in rows])
    return big, [[big // a.dens[row]
                  * sum([x * solution[c] for c, x in a.nums[row] if c in solution])
                  for row in rows] for solution in solutions]


def _cycle_kernel(g: DualGraph, big: int, beta: list[list[int]], side: list[int],
                  length: int) -> list[list[tuple[int, int]]]:
    """ker [B | L] on graph g with one independent cycle, for (D, beta)
    from ``_coupling``, in the column pairs ``_kernel`` gives, lambda_s at
    s and y_v at k + v; no L row is built and A is not read.

    Column s of B is beta_s / D.  For each lambda
    with 1^T B lambda = 0 (every e_s when P = 1^T B is 0, else
    P_p e_s - P_s e_p for the first p with P_p != 0), L y = B lambda is
    solved as Kirchhoff did, and (-lambda, y) is a kernel vector.  With f
    the flow y_s - y_t on the non-tree edge (s, t), y_v - y_parent along
    the graph's stored tree is the sum S(v) of B lambda over v's subtree,
    minus side[v] f, with ``side`` and the cycle's ``length`` as
    ``_layered_kernel`` worked them out.  Going round the cycle,
    y_s - y_t = f forces f = sum of side[v] S(v) over the length.  With
    y_0 = 0 and all of it scaled to ints by q D, q the denominator of f,
    the kernel vector is (-q D lambda, y).  The constants, y = 1 with
    lambda = 0, are the last one.
    """
    n, tree, k = g.n, g.tree, len(beta)
    totals = [sum(b) for b in beta]
    p = next((s for s, total in enumerate(totals) if total), None)
    if p is None:
        columns = [(((s, 1),), b) for s, b in enumerate(beta)]
    else:
        columns = [(((s, totals[p]), (p, -totals[s])),
                    [totals[p] * x - totals[s] * y for x, y in zip(beta[s], beta[p])])
                   for s in range(k) if s != p]
    kernel = []
    for lam, sums in columns:
        # each column is used once, so its entries become the subtree sums
        for _, u, v in reversed(tree):
            sums[u] += sums[v]
        c = sum([z * x for z, x in zip(side, sums) if z])
        h = gcd(c, length)
        q, f, y = length // h, c // h, [0] * n
        for _, u, v in tree:
            y[v] = y[u] + q * sums[v] - side[v] * f
        kernel.append([(s, -x * q * big) for s, x in lam] + list(enumerate(y, k)))
    return kernel + [[(k + v, 1) for v in range(n)]]


def _kernel_route(sys: LocalSystem) -> tuple[Mat, Mat, Subspace,
                                             list[tuple[dict[int, int], int]]]:
    """Assemble delta and A, solve ker A, check it, and map it through delta.

    Returns (delta, A, ker A, the images).  ker A is ``_layered_kernel``
    when ``_layered`` holds, on a graph with a cycle and the upper
    unitriangular transitions every constructor builds; and
    ``nullspace(A)`` for a tree or any other system.  Both give the
    kernel's unique RREF basis.  Image i is delta(k_i) for kernel basis
    row k_i = K / e, as the int row {p: s_p (E_i / d_p)} with its E_i:
    s_p is the dot product of delta's stored row p, over d_p, with K, and
    E_i is the lcm of the d_p with s_p != 0, which is 1 when the image is
    zero.  So delta(k_i) is the row over E_i e.  It is not put in lowest
    terms: ``tate_report`` prints the images and reduces them there, while
    ``invariant_cycles_report`` writes E_i K after each one, in place, and
    reduces the rows [delta(k_i) | k_i] times E_i e once.

    Each kernel basis row is checked first, A k_i = 0 or
    InternalCheckError: ``_dots`` takes the products of A's stored rows
    with one dense copy of k_i, and then those of delta's rows, the s_p.
    ``a @ kernel.basis.transpose()`` would build the transpose and reduce
    every product row, about ten times the cost when dim ker A is 1 or 2.
    """
    cob = coboundary_matrix(sys)
    a = system_matrix(sys)
    kernel = _layered_kernel(a, sys.graph, sys.rank) if _layered(sys) else nullspace(a)
    dens, images = cob.dens, []
    for pairs in kernel.basis.nums:
        x = [0] * a.cols
        for j, n in pairs:
            x[j] = n
        if _dots(a.nums, x):
            raise InternalCheckError("a kernel basis vector of the system matrix is "
                                     "not in its kernel")
        image = _dots(cob.nums, x)
        big = lcm(*[dens[p] for p in image])
        images.append(({p: s * (big // dens[p]) for p, s in image.items()}, big))
    return cob, a, kernel, images


def _dots(rows: tuple[Row, ...], x: list[int]) -> dict[int, int]:
    """{p: s_p} for the nonzero dot products s_p of the stored rows with the
    dense int vector x."""
    out = {}
    for p, row in enumerate(rows):
        s = 0
        for j, n in row:
            s += n * x[j]
        if s:
            out[p] = s
    return out


def _factors(residue: Mat, cob: Mat, a: Mat) -> bool:
    """Whether residue @ cob == a, row by row, with no product built.

    ``linalg._products`` gives product row i as acc / (d e), the loop
    ``Mat.__matmul__`` runs, with no row put in lowest terms.  Each entry
    n / d_A that A's row i stores must satisfy acc[j] d_A = n d e, and
    every other entry of acc must be zero.  Both shapes are checked before
    the rows are compared, so a short R cannot end the comparison early:
    R.cols != delta.rows raises DimensionMismatch, as the product would,
    and any other shape mismatch is a failed check.
    """
    if residue.cols != cob.rows:
        raise DimensionMismatch("multiply %dx%d by %dx%d"
                                % (residue.rows, residue.cols, cob.rows, cob.cols))
    if residue.rows != a.rows or cob.cols != a.cols:
        return False
    for (acc, scale), a_pairs, d_a in zip(_products(residue, cob), a.nums, a.dens):
        for j, n in a_pairs:
            if acc.pop(j, 0) * d_a != n * scale:
                return False
        if any(acc.values()):
            return False
    return True


class CohomologyReport(Value):
    """Dimensions, subspaces, assembled matrices and verdict for one
    coefficient system."""

    _fields = ("h0_dim", "h1_dim", "h0_basis", "obstruction", "coboundary", "residue",
               "system", "system_rank", "coboundary_image_dim", "residue_kernel_dim",
               "defect", "exact")


def invariant_cycles_report(sys: LocalSystem) -> CohomologyReport:
    """Full report; `exact` means the obstruction space is zero.

    The verdict is combinatorial: a nonzero obstruction exhibits a
    residue-balanced edge family that comes from vertex data, which is
    exactly the defect the obstruction space measures.

    Each matrix is assembled once and the kernel K of the system matrix
    A = R.delta is solved once (``_kernel_route``).  K gives everything
    else: the obstruction is delta(K), because delta(x) lies in ker R
    exactly when A x = 0; and H0 = ker delta is the set of x in K with
    delta(x) = 0, because ker delta lies inside ker A.  The route returns
    each image delta(k_i) as an int row with its E_i; E_i times the kernel
    row is written after it, in place, and one reduction of the k rows
    [delta(k_i) | k_i] times E_i e gives both bases (see the module
    docstring): the reduced rows that pivot in the edge part span the
    obstruction, the others H0.  Scaling a row does not change what it
    spans, so no matrix with a row per edge or vertex is built after
    ker A.  h1 then follows from the Euler
    characteristic, and dim ker R from the cycle count c = m - n + 1: 0 on
    a tree, dim H0 on one cycle, where R's one non-tree block is
    (M - I) T_t for the monodromy M (see the module docstring), and from
    ``residue_rank``'s transports only when c >= 2.  So nothing else is
    eliminated.  The free functions h0, h1_dim, coboundary_image,
    residue_kernel and obstruction keep the direct route as an oracle.

    Two identities are checked on every call, and a failure raises
    InternalCheckError: A K^T = 0 in ``_kernel_route``, and R.delta = A
    here, each row of R.delta compared by ``_factors`` with the row of
    the A that ``system_matrix`` builds straight from the edges, with no
    product built.  A K^T = 0 shows only that K lies inside
    ker A, not that it spans all of it.
    """
    g, r = sys.graph, sys.rank
    cob, a, kernel, images = _kernel_route(sys)
    residue = residue_constraint_matrix(sys)
    if not _factors(residue, cob, a):
        raise InternalCheckError("system matrix does not factor through the residue and "
                                 "coboundary matrices")
    edges = cob.rows
    for (image, big), pairs in zip(images, kernel.basis.nums):
        # [delta(k_i) | k_i] times E_i e
        for j, n in pairs:
            image[edges + j] = big * n
    blocked, sections = [], []
    for (pairs, q), c in zip(*_reduced([image for image, _ in images], edges + cob.cols)):
        if c < edges:
            blocked.append(_lowest([(j, n) for j, n in pairs if j < edges], q))
        else:
            sections.append((tuple([(j - edges, n) for j, n in pairs]), q))
    blocked, sections = Subspace(_stack(edges, blocked)), Subspace(_stack(cob.cols, sections))
    image_dim, cycles = g.n * r - sections.dim, g.m - g.n + 1
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
        residue_kernel_dim=(g.m * r - residue_rank(sys) if cycles > 1
                            else sections.dim if cycles else 0),
        defect=blocked.dim,
        exact=blocked.dim == 0,
    )
