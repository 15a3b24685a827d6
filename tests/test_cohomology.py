"""The coboundary map, residue constraints, system matrix and obstruction."""

import hashlib
import itertools
import random
import types
from fractions import Fraction
from math import gcd, lcm

import pytest

from monograph.checks import (CYCLE_OBSTRUCTION_124, CYCLE_SYSTEM_124,
                              random_connected_multigraph, random_rational,
                              random_unipotent_system)
from monograph import cohomology, linalg, report
from monograph.cli import main
from monograph.cohomology import (InternalCheckError, _kernel_route, coboundary_image,
                                  coboundary_matrix, h0, h1_dim, invariant_cycles_report,
                                  obstruction, residue_constraint_matrix, residue_kernel,
                                  residue_rank, system_matrix)
from monograph.graph import DualGraph, cycle_graph, laplacian
from monograph.linalg import Mat, Subspace, colspace, det, nullspace, rank, rowspace, rref
from monograph.localsystem import EdgeCochain, LocalSystem, _inverse
from monograph.problem import ProblemSpec, SystemSpec, parse_spec
from monograph.tate import build_tate, holonomy, tate_report

from test_linalg_oracle import (cycle_system_matrix, dense, matrices, oracle_nullspace,
                                path_with_chords, structured_matrices)


def trivial_triangle():
    return LocalSystem.trivial(cycle_graph(3), 1)


def cycle_system(gvals):
    return build_tate(len(gvals), gvals)[1]


class TestCoboundaryMatrix:
    def test_single_edge(self):
        sys = LocalSystem.trivial(DualGraph(2, ((0, 1),)), 1)
        assert coboundary_matrix(sys) == Mat.from_rows([[1, -1]])

    def test_trivial_triangle_is_incidence_transpose(self):
        from monograph.graph import incidence_matrix
        sys = trivial_triangle()
        assert coboundary_matrix(sys) == incidence_matrix(sys.graph).transpose()

    def test_rank2_cycle_relations(self):
        # all six difference relations for g = (1, 2, 4), frozen
        expected = Mat.from_rows([
            [1, 0, -1, -1, 0, 0],
            [0, 1, 0, -1, 0, 0],
            [0, 0, 1, 0, -1, -2],
            [0, 0, 0, 1, 0, -1],
            [1, 0, 0, 0, -1, -4],
            [0, 1, 0, 0, 0, -1],
        ])
        assert coboundary_matrix(cycle_system((1, 2, 4))) == expected


class TestH0:
    def test_trivial_rank1_constants(self):
        rng = random.Random(43)
        for _ in range(10):
            g = random_connected_multigraph(rng, max_vertices=8)
            sys = LocalSystem.trivial(g, 1)
            assert h0(sys) == Subspace.from_vectors(g.n, [[1] * g.n])

    def test_generic_cocycle_one_section(self):
        sys = cycle_system((1, 2, 4))
        assert h0(sys) == Subspace.from_vectors(6, [(1, 0, 1, 0, 1, 0)])

    def test_balanced_cocycle_two_sections(self):
        # 1 + 2 - 3 = 0: the holonomy constraint disappears
        assert h0(cycle_system((1, 2, 3))).dim == 2


class TestH1:
    def test_tree(self):
        path = DualGraph(3, ((0, 1), (1, 2)))
        assert h1_dim(LocalSystem.trivial(path, 1)) == 0

    def test_trivial_triangle(self):
        assert h1_dim(trivial_triangle()) == 1

    def test_generic_cocycle(self):
        assert h1_dim(cycle_system((1, 2, 4))) == 1


class TestResidueConstraints:
    def test_single_edge_forces_zero(self):
        sys = LocalSystem.trivial(DualGraph(2, ((0, 1),)), 1)
        assert residue_constraint_matrix(sys) == Mat.from_rows([[1], [-1]])
        assert residue_kernel(sys) == Subspace.zero(1)

    def test_trivial_triangle_kernel(self):
        assert residue_kernel(trivial_triangle()) == \
            Subspace.from_vectors(3, [(1, 1, -1)])

    def test_rank2_cycle_constraints(self):
        # per-vertex transported sums for g = (1, 2, 4), frozen
        expected = Mat.from_rows([
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
            [-1, 1, 1, 0, 0, 0],
            [0, -1, 0, 1, 0, 0],
            [0, 0, -1, 2, -1, 4],
            [0, 0, 0, -1, 0, -1],
        ])
        assert residue_constraint_matrix(cycle_system((1, 2, 4))) == expected


class TestSystemMatrix:
    def test_trivial_triangle_is_laplacian(self):
        from monograph.graph import laplacian
        sys = trivial_triangle()
        assert system_matrix(sys) == laplacian(sys.graph)

    def test_rank2_cycle_entries(self):
        assert system_matrix(cycle_system((1, 2, 4))) == CYCLE_SYSTEM_124

    def test_symbolic_pattern_across_instances(self):
        # the matrix is affine in the cocycle: g enters only at the four
        # marked slots, with the reversed-edge values negated
        for g1, g2, g3 in [(1, 1, 1), (2, -5, Fraction(1, 3)), (0, 7, -2)]:
            a = system_matrix(cycle_system((g1, g2, g3)))
            expected = Mat.from_rows([
                [2, 0, -1, -g1, -1, -g3],
                [0, 2, 0, -1, 0, -1],
                [-1, g1, 2, 0, -1, -g2],
                [0, -1, 0, 2, 0, -1],
                [-1, g3, -1, g2, 2, 0],
                [0, -1, 0, -1, 0, 2],
            ])
            assert a == expected

    def test_trivial_rank2_is_two_copies(self):
        # laplacian tensor identity, vertex-major component-minor ordering
        sys = LocalSystem.trivial(cycle_graph(3), 2)
        expected = Mat.from_rows([
            [2, 0, -1, 0, -1, 0],
            [0, 2, 0, -1, 0, -1],
            [-1, 0, 2, 0, -1, 0],
            [0, -1, 0, 2, 0, -1],
            [-1, 0, -1, 0, 2, 0],
            [0, -1, 0, -1, 0, 2],
        ])
        assert system_matrix(sys) == expected


class TestObstruction:
    def test_trivial_rank_r_always_zero(self):
        rng = random.Random(59)
        for r in (1, 2, 3):
            g = random_connected_multigraph(rng, max_vertices=6)
            sys = LocalSystem.trivial(g, r)
            assert obstruction(sys).dim == 0

    def test_generic_cocycle_line(self):
        sys = cycle_system((1, 2, 4))
        assert obstruction(sys) == Subspace.from_vectors(6, [CYCLE_OBSTRUCTION_124])

    def test_balanced_cocycle_zero(self):
        # holonomy 1 + 2 - 3 = 0 kills the obstruction generator
        assert obstruction(cycle_system((1, 2, 3))) == Subspace.zero(6)


class TestInvariantCyclesReport:
    def test_trivial_rank1_is_exact(self):
        rng = random.Random(67)
        for _ in range(10):
            g = random_connected_multigraph(rng, max_vertices=8)
            report = invariant_cycles_report(LocalSystem.trivial(g, 1))
            assert report.exact and report.defect == 0

    def test_generic_cocycle_defect_one(self):
        report = invariant_cycles_report(cycle_system((1, 2, 4)))
        assert not report.exact
        assert report.defect == 1
        assert report.h0_dim == 1 and report.h1_dim == 1

    def test_zero_cocycle_splits(self):
        report = invariant_cycles_report(cycle_system((0, 0, 0)))
        assert report.exact and report.h0_dim == 2

    def test_single_vertex(self):
        sys = LocalSystem.trivial(DualGraph(1, ()), 2)
        report = invariant_cycles_report(sys)
        assert report.h0_dim == 2 and report.h1_dim == 0
        assert report.exact

    def test_nullspace_route_is_checked(self, monkeypatch):
        # the other side of _layered: the swap on a 3-cycle takes
        # nullspace(A), and a vector outside ker A must fail the A K^T = 0
        # check there as it does on the layered route
        sys = next(_general_systems(0))
        assert not cohomology._layered(sys)
        real = cohomology.nullspace

        def wrong(a):
            rows = [list(row) for row in dense(real(a).basis)]
            rows[0][-1] += 1
            return Subspace.from_vectors(a.cols, rows)

        invariant_cycles_report(sys)
        monkeypatch.setattr(cohomology, "nullspace", wrong)
        with pytest.raises(InternalCheckError, match="kernel"):
            invariant_cycles_report(sys)


def _block_assembly(sys):
    """Dense oracle for the assemblers: (coboundary, residue, system), each
    written cell by cell into dense r x r blocks and joined row by row."""
    g, r = sys.graph, sys.rank

    def cells(u, c=1):
        return [[c * x for x in row] for row in dense(u)]

    def add(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def join(grid):
        return Mat.from_rows([[x for b in row for x in b[i]]
                              for row in grid for i in range(r)], cols=len(grid[0]) * r)

    zero, one = cells(Mat.zeros(r, r)), cells(Mat.identity(r))
    cob_grid = []
    for e, (s, t) in enumerate(g.edges):
        row = [zero] * g.n
        row[s] = add(row[s], one)
        row[t] = add(row[t], cells(sys.transitions[e], -1))
        cob_grid.append(row)
    cob = join(cob_grid) if cob_grid else Mat.zeros(0, g.n * r)
    if g.m == 0:
        residue = Mat.zeros(g.n * r, 0)
    else:
        residue = join([
            [one if s == u else cells(sys.transition_inverse(e), -1) if t == u else zero
             for e, (s, t) in enumerate(g.edges)]
            for u in range(g.n)])
    grid = [[zero] * g.n for _ in range(g.n)]
    for u in range(g.n):
        degree = sum((s == u) + (t == u) for s, t in g.edges)
        grid[u][u] = cells(Mat.identity(r), degree)
    for e, (s, t) in enumerate(g.edges):
        grid[s][t] = add(grid[s][t], cells(sys.transitions[e], -1))
        grid[t][s] = add(grid[t][s], cells(sys.transition_inverse(e), -1))
    return cob, residue, join(grid)


def _cocycle_value(rng):
    """A small rational with no extra weight on zero.  It spends the
    randrange(4) draw it was sampled with when random_rational took a zero
    weight, so the systems drawn after it are unchanged."""
    rng.randrange(4)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _random_tree(rng, n):
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return DualGraph(n, tuple(edges))


def _oracle_systems(seed):
    """Seeded systems of rank 1..3 on trees, a single vertex, parallel
    edges and random multigraphs, with rational cocycles and extensions."""
    rng = random.Random(seed)
    for _ in range(12):
        tree = _random_tree(rng, rng.randint(2, 7))
        yield random_unipotent_system(rng, tree, rng.randint(1, 3))
    single = DualGraph(1, ())
    for r in (1, 2, 3):
        yield random_unipotent_system(rng, single, r)
        yield LocalSystem.trivial(single, r)
    for edges in (((0, 1), (1, 0)), ((0, 1), (0, 1), (1, 0)),
                  ((0, 1), (1, 2), (2, 1), (0, 2), (2, 0))):
        g = DualGraph(1 + max(max(e) for e in edges), edges)
        for r in (1, 2, 3):
            yield random_unipotent_system(rng, g, r)
        yield LocalSystem.unipotent_rank2(g, [random_rational(rng) for _ in edges])
    for m in range(2, 7):
        gvals = [_cocycle_value(rng) for _ in range(m)]
        base = cycle_system(gvals)
        yield base
        values = [tuple(random_rational(rng) for _ in range(2)) for _ in range(m)]
        yield base.extend_by_trivial(EdgeCochain(base, tuple(values)))
    for _ in range(30):
        g = random_connected_multigraph(rng, max_vertices=7)
        yield random_unipotent_system(rng, g, rng.randint(1, 3))


class TestReportMatchesOracle:
    """invariant_cycles_report, from one elimination of the system matrix,
    against the direct route of the free functions and the block-grid
    assembly."""

    def test_every_field(self):
        count = 0
        for sys in _oracle_systems(20261):
            g, r = sys.graph, sys.rank
            report = invariant_cycles_report(sys)
            cob, residue, system = _block_assembly(sys)
            assert (report.coboundary, report.residue, report.system) == \
                (cob, residue, system)
            assert residue @ cob == system
            sections = h0(sys)
            assert report.h0_basis == sections
            assert report.h0_dim == sections.dim
            assert report.h1_dim == h1_dim(sys)
            blocked = obstruction(sys)
            assert report.obstruction == blocked
            assert report.defect == blocked.dim
            assert report.exact == (blocked.dim == 0)
            assert report.coboundary_image_dim == coboundary_image(sys).dim
            assert report.residue_kernel_dim == residue_kernel(sys).dim
            assert report.system_rank == rank(system)
            assert report.coboundary.rows == g.m * r
            count += 1
        assert count == 70

    def test_cases_are_covered(self):
        systems = list(_oracle_systems(20261))
        assert any(s.graph.m == s.graph.n - 1 and s.graph.n > 1 for s in systems)
        assert any(s.graph.m == 0 for s in systems)
        assert any(len(set(map(frozenset, s.graph.edges))) < s.graph.m
                   for s in systems)
        assert any(x.denominator > 1 for s in systems
                   for u in s.transitions for row in dense(u) for x in row)
        assert any(s.rank == 3 for s in systems)
        assert any(report_defect > 0 for report_defect in
                   (invariant_cycles_report(s).defect for s in systems))


def test_kernel_route_matches_the_product_route():
    """The route's images and the report's one k-row elimination of
    [delta(k_i) | k_i] against the route they replaced: delta times the
    transposed kernel basis, its column span for the obstruction, and the
    rows of the kernel basis that its null relations pick out for H0; both
    against the free functions too."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    values = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))

    @st.composite
    def systems(draw):
        n = draw(st.integers(1, 6))
        edges = []
        for v in range(1, n):  # a spanning tree keeps the graph connected
            u = draw(st.integers(0, v - 1))
            edges.append((u, v) if draw(st.booleans()) else (v, u))
        if n > 1:
            for _ in range(draw(st.integers(0, 4))):
                s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                     unique=True))
                edges.append((s, t))
        g = DualGraph(n, tuple(edges))
        if draw(st.booleans()):
            sys = LocalSystem.trivial(g, draw(st.integers(1, 2)))
        else:
            sys = LocalSystem.unipotent_rank2(g, draw(st.lists(
                values, min_size=g.m, max_size=g.m)))
        for _ in range(draw(st.integers(0, 3 - sys.rank))):
            sys = sys.extend_by_trivial(EdgeCochain(sys, tuple(
                draw(st.lists(values, min_size=sys.rank, max_size=sys.rank))
                for _ in range(g.m))))
        return sys

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def check(sys):
        cob, a, kernel, images = _kernel_route(sys)
        assert cob == coboundary_matrix(sys) and a == system_matrix(sys)
        assert kernel == nullspace(a)
        product = cob @ kernel.basis.transpose()
        # the image rows as _kernel_route leaves them, each over E_i e and
        # not in lowest terms
        assert [{j: Fraction(x, big * e) for j, x in image.items()}
                for (image, big), e in zip(images, kernel.basis.dens)] == \
            list(map(dict, product.transpose().entries))
        report = invariant_cycles_report(sys)
        assert report.obstruction == colspace(product) == obstruction(sys)
        relations = nullspace(product)
        assert report.h0_basis == rowspace(relations.basis @ kernel.basis) == h0(sys)

    check()


def _assemble(block_rows, block_cols, r, blocks):
    """Sum coefficient x block at each (block row, block column) given, each
    block r x r and each coefficient 1 or -1: the block rows that land in
    output row i are added as integer rows over the lcm of their
    denominators, so blocks at the same position add up."""
    parts = [[] for _ in range(block_rows * r)]
    for bi, bj, coefficient, block in blocks:
        for i, (pairs, d) in enumerate(zip(block.nums, block.dens)):
            parts[bi * r + i].append((bj * r, coefficient, pairs, d))
    rows = []
    for row_parts in parts:
        e = lcm(*[d for _, _, _, d in row_parts])
        row = {}
        for offset, coefficient, pairs, d in row_parts:
            for j, n in pairs:
                row[offset + j] = row.get(offset + j, 0) + coefficient * (e // d) * n
        rows.append(linalg._reduce(row, e))
    return linalg._stack(block_cols * r, rows)


def _assembled(sys):
    """The coboundary, residue and system matrices gathered block by block
    through _assemble, the route the direct writers replaced."""
    g, r = sys.graph, sys.rank
    one = Mat.identity(r)
    cob, residue, system = [], [], []
    for e, (s, t) in enumerate(g.edges):
        u, w = sys.transitions[e], sys.transition_inverse(e)
        cob += [(e, s, 1, one), (e, t, -1, u)]
        residue += [(s, e, 1, one), (t, e, -1, w)]
        system += [(s, s, 1, one), (t, t, 1, one), (s, t, -1, u), (t, s, -1, w)]
    return (_assemble(g.m, g.n, r, cob), _assemble(g.n, g.m, r, residue),
            _assemble(g.n, g.n, r, system))


def _invertible(entries, r):
    """The r x r matrix of the given entries plus k I for the least k >= 0
    that makes it invertible: at most r values of k make it singular."""
    base = Mat.from_rows([entries[i * r:(i + 1) * r] for i in range(r)])
    for k in range(r + 1):
        m = Mat.from_rows([[x + k * (i == j) for j, x in enumerate(row)]
                           for i, row in enumerate(dense(base))])
        if det(m) != 0:
            return m
    raise AssertionError("no shift of %r is invertible" % (entries,))


def _general_systems(seed):
    """Systems whose transitions are not triangular: the swap [[0, 1], [1, 0]]
    and [[2, 1], [1, 1]] on cycles and parallel edges, then drawn rational
    transitions of rank 1..3 on random multigraphs, inverted by _inverse."""
    for u in ([[0, 1], [1, 0]], [[2, 1], [1, 1]]):
        for g in (cycle_graph(3), cycle_graph(4), DualGraph(2, ((0, 1), (1, 0))),
                  DualGraph(2, ((0, 1), (0, 1), (1, 0)))):
            yield LocalSystem(g, 2, (Mat.from_rows(u),) * g.m)
    rng = random.Random(seed)
    for _ in range(40):
        g = random_connected_multigraph(rng, max_vertices=7)
        r = rng.randint(1, 3)
        yield LocalSystem(g, r, tuple(
            _invertible([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(r * r)], r) for _ in range(g.m)))


def _chord_system():
    """unipotent2 with p/q cocycle values on the 200-vertex path plus
    chords: 101 independent cycles, whose transports along the path build
    up denominators."""
    edges, gvals = path_with_chords(200, 300, 200300)
    rng = random.Random(300)
    return LocalSystem.unipotent_rank2(DualGraph(200, edges), [
        Fraction(x, rng.randint(1, 9)) for x in gvals])


class TestResidueRank:
    """The spanning-tree rank of R against the elimination of R itself."""

    def test_matches_the_elimination(self):
        systems = [*_oracle_systems(20261), *_general_systems(7919), _chord_system()]
        for sys in systems:
            assert residue_rank(sys) == rank(residue_constraint_matrix(sys))
        assert any(s.graph.m == s.graph.n - 1 and s.graph.n > 1 for s in systems)
        assert any(s.graph.m == 0 for s in systems)

    def test_monodromy_of_a_swap(self):
        # around the triangle the swap's monodromy is the swap itself, which
        # fixes (1, 1): one invariant cycle, so rank R = 2 r + 2 - 1
        sys = LocalSystem(cycle_graph(3), 2, (Mat.from_rows([[0, 1], [1, 0]]),) * 3)
        assert residue_rank(sys) == 5

    def test_the_report_eliminates_no_residue_sized_matrix(self, monkeypatch):
        shapes = _recorder(monkeypatch, "_echelon",
                           lambda work, cols, *_: (len(work), cols))
        # m != n, so no other matrix has the residue's shape
        square = DualGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
        for sys in (LocalSystem.unipotent_rank2(square, (1, "1/2", 0, -3, 2)),
                    _chord_system()):
            shapes.clear()
            g, r = sys.graph, sys.rank
            report = invariant_cycles_report(sys)
            assert report.residue_kernel_dim == g.m * r - residue_rank(sys)
            assert (g.n * r, g.m * r) not in shapes and shapes


def _few_cycle_graphs(rng):
    """The one-vertex graph, the 2-vertex double edge, then drawn trees on
    2..8 vertices, each edge in a drawn orientation, and about half of them
    with one more edge, at a drawn place in the edge list, which may double
    a tree edge: graphs with c = m - n + 1 = 0 or 1 independent cycles."""
    yield DualGraph(1, ())
    yield DualGraph(2, ((0, 1), (1, 0)))
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = []
        for v in range(1, n):
            u = rng.randrange(v)
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
        if rng.random() < 0.5:
            edges.insert(rng.randint(0, len(edges)), tuple(rng.sample(range(n), 2)))
        yield DualGraph(n, tuple(edges))


def _few_cycle_systems(seed):
    """On each of ``_few_cycle_graphs``: unipotent2 with p/q values and up
    to two extension layers, and explicit ``LocalSystem(...)`` ones of rank
    1..3 whose transitions are drawn permutations or drawn invertible
    rational matrices, as in ``_general_systems``."""
    rng = random.Random(seed)
    for g in _few_cycle_graphs(rng):
        sys = LocalSystem.unipotent_rank2(g, [random_rational(rng) for _ in range(g.m)])
        for _ in range(rng.randint(0, 2)):
            sys = sys.extend_by_trivial(EdgeCochain(sys, tuple(
                tuple(random_rational(rng) for _ in range(sys.rank)) for _ in range(g.m))))
        yield sys
        r = rng.randint(1, 3)
        permutations = []
        for _ in range(g.m):
            image = rng.sample(range(r), r)
            permutations.append(Mat.from_rows([[int(image[i] == j) for j in range(r)]
                                               for i in range(r)]))
        yield LocalSystem(g, r, tuple(permutations))
        yield LocalSystem(g, r, tuple(
            _invertible([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(r * r)], r) for _ in range(g.m)))


class TestResidueKernelByCycleCount:
    """dim ker R in the report is read off the cycle count on trees (0) and
    on one-cycle graphs (dim H0); the transports and the elimination of R
    are the oracle."""

    def test_trees_and_one_cycle_graphs(self):
        seen = set()
        for sys in _few_cycle_systems(20263):
            g, r = sys.graph, sys.rank
            report = invariant_cycles_report(sys)
            assert report.residue_kernel_dim == g.m * r - residue_rank(sys) \
                == g.m * r - rank(residue_constraint_matrix(sys))
            cycles = g.m - g.n + 1
            seen.add((cycles, min(report.h0_dim, 1) + (report.h0_dim == r)))
            seen.update({"one vertex"} if g.n == 1 else ())
            seen.update({"double edge"} if len(set(map(frozenset, g.edges))) < g.m else ())
            seen.update({"not triangular"} if not cohomology._layered(sys) and cycles else ())
        # on one cycle, H0 of every size: 0, strictly between 0 and r, and r
        assert {(0, 2), (1, 0), (1, 1), (1, 2), "one vertex", "double edge",
                "not triangular"} <= seen

    def test_no_transports_below_two_cycles(self, monkeypatch):
        entered, times = [], cohomology._times
        monkeypatch.setattr(cohomology, "_times",
                            lambda *args: entered.append(args) or times(*args))
        for sys in itertools.islice(_few_cycle_systems(7), 60):
            invariant_cycles_report(sys)
        assert not entered
        square = DualGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
        invariant_cycles_report(LocalSystem.unipotent_rank2(square, (1, "1/2", 0, -3, 2)))
        assert entered


def _recorder(monkeypatch, name, record):
    """The list of record(*args) of every call of linalg's helper `name`,
    from linalg or from cohomology, until the test ends."""
    calls, helper = [], getattr(linalg, name)

    def recorded(*args):
        calls.append(record(*args))
        return helper(*args)
    monkeypatch.setattr(linalg, name, recorded)
    if hasattr(cohomology, name):
        monkeypatch.setattr(cohomology, name, recorded)
    return calls


def test_only_kernel_rows_are_back_substituted(monkeypatch):
    """Every kernel is back-solved from forward rows, so the only row sets
    the report and the tate report reduce to an RREF (``_reduced``) have
    k = dim ker A rows: on the layered route the k solutions, then the k
    rows [delta(k_i) | k_i]; off it, on trees and other transitions, only
    the latter.  The tate report reads its defect as the rank of the edge
    images, so its one RREF is that of the k layered solutions."""
    sizes = _recorder(monkeypatch, "_reduced", lambda rows, _: len(rows))
    square = DualGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    seen = set()
    for sys in (LocalSystem.unipotent_rank2(square, (1, "1/2", 0, -3, 2)),
                _chord_system(), *_oracle_systems(31), *_general_systems(31)):
        sizes.clear()
        report = invariant_cycles_report(sys)
        layered = cohomology._layered(sys)
        seen.add(layered)
        assert sizes == [sys.graph.n * sys.rank - report.system_rank] * (1 + layered)
    assert seen == {False, True}
    for m, gvals in ((3, (1, 2, 4)), (24, range(-12, 12)), (9, (0,) * 9)):
        sizes.clear()
        report = tate_report(m, gvals)
        assert sizes == [report.kernel.dim] == [2]


def test_forward_pass_input_rows(monkeypatch, capsys):
    """Every caller hands _echelon rows in its input contract: dicts of
    nonzero ints at columns 0 <= j < cols.  A stored zero would be taken as
    a pivot.  Run over the oracle corpus, the report on the oracle and
    general systems, trivial systems on graphs with a cycle (whose residue
    blocks cancel to zero), a tree chain, the one-vertex 512-layer chain
    and check --seed 0."""
    def broken(rows, cols):
        return [row for row in rows if type(row) is not dict or not all(
            type(j) is int and 0 <= j < cols and type(x) is int and x
            for j, x in row.items())]
    calls = _recorder(monkeypatch, "_echelon", broken)
    for m in [*matrices(77, 60), *structured_matrices(),
              *(cycle_system_matrix(m) for m in range(2, 9))]:
        rref(m), rank(m), rowspace(m), colspace(m), nullspace(m)
        if m.rows == m.cols and det(m):
            _inverse(m)
    rng = random.Random(5)
    tree = _random_tree(rng, 6)
    layers = [[random_rational(rng) for _ in range(tree.m * r)] for r in range(2, 8)]
    cyclic = (cycle_graph(3), DualGraph(2, ((0, 1), (1, 0))),
              DualGraph(200, path_with_chords(200, 300, 200300)[0]))
    trivial = [LocalSystem.trivial(g, r) for g in cyclic for r in (1, 2, 3)]
    for sys in [*_oracle_systems(31), *_general_systems(31), *trivial,
                SystemSpec("unipotent2", 2, [1, "1/2", 0, -3, 2], layers).build(tree)]:
        invariant_cycles_report(sys)
    report.run(parse_spec("VERTICES\na\nSYSTEM\ntrivial 1\n" + "extend\n" * 512), "cohomology")
    assert main(["check", "--seed", "0"]) == 0
    capsys.readouterr()
    assert len(calls) > 3000 and not any(calls)


class TestDirectWriters:
    """The coboundary, residue and system matrices, written from the
    transition rows, against the _assemble block gather."""

    def test_match_the_block_gather(self):
        for sys in [*_oracle_systems(20261), *_general_systems(7919), _chord_system()]:
            cob, residue, system = _assembled(sys)
            assert coboundary_matrix(sys) == cob
            assert residue_constraint_matrix(sys) == residue
            assert system_matrix(sys) == system == residue @ cob

    def test_parallel_edges_add_up(self):
        # U and -U on two parallel edges cancel in the system matrix's
        # off-diagonal block; U_e and U_e^-1 on a reversed pair add
        u = Mat.from_rows([[1, "1/2"], [0, 1]])
        minus = Mat.from_rows([[-1, "-1/2"], [0, -1]])
        for g, transitions in ((DualGraph(2, ((0, 1), (0, 1))), (u, minus)),
                               (DualGraph(2, ((0, 1), (1, 0))), (u, u))):
            sys = LocalSystem(g, 2, transitions)
            assert system_matrix(sys) == _assembled(sys)[2]
        cancelled = LocalSystem(DualGraph(2, ((0, 1), (0, 1))), 2, (u, minus))
        assert system_matrix(cancelled) == Mat.from_rows(
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])


def _draw_multigraph(draw, st):
    """A drawn connected multigraph on 1..6 vertices: a random spanning tree
    plus up to 5 more edges, parallel ones included."""
    n = draw(st.integers(1, 6))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v) if draw(st.booleans()) else (v, u))
    if n > 1:
        for _ in range(draw(st.integers(0, 5))):
            edges.append(tuple(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                             max_size=2, unique=True))))
    return DualGraph(n, tuple(edges))


def test_tree_rank_and_writers_on_drawn_systems():
    """Property: on drawn multigraphs with drawn invertible transitions of
    rank 1..3, the tree rank is the rank of R, and the direct writers give
    the block gather's matrices."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    values = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))

    @st.composite
    def systems(draw):
        g = _draw_multigraph(draw, st)
        r = draw(st.integers(1, 3))
        return LocalSystem(g, r, tuple(
            _invertible(draw(st.lists(values, min_size=r * r, max_size=r * r)), r)
            for _ in g.edges))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(systems())
    def check(sys):
        cob, residue, system = _assembled(sys)
        assert (coboundary_matrix(sys), residue_constraint_matrix(sys),
                system_matrix(sys)) == (cob, residue, system)
        assert residue_rank(sys) == rank(residue)

    check()


def coupled_layers(sys):
    """The number of components i < r - 1 at which the right-hand sides
    b_s = sum over j > i of A_ij s_j do not all sum to zero over the
    vertices (1^T B != 0), the partial solutions s taken from the oracle
    kernel of each [B | L], in Fractions."""
    n, r = sys.graph.n, sys.rank
    a = dense(system_matrix(sys))
    solutions = [[Fraction(c % r == r - 1) for c in range(n * r)]]
    coupled = 0
    for i in range(r - 2, -1, -1):
        k = len(solutions)
        rows = [[sum(a[u * r + i][c] * s[c] for c in range(n * r) if c % r > i)
                 for s in solutions] + [a[u * r + i][v * r + i] for v in range(n)]
                for u in range(n)]
        coupled += any(sum(row[s] for row in rows) for s in range(k))
        kernel = dense(oracle_nullspace(Mat.from_rows(rows, cols=k + n)))
        solutions = [[sum(x[s] * solutions[s][c] for s in range(k))
                      + (x[k + c // r] if c % r == i else 0) for c in range(n * r)]
                     for x in kernel]
    return coupled


def _cycle_defect_family():
    """unipotent2 m-cycles, m = 8..32, cocycle values in [-5, 5], the
    holonomy made 0 on alternate draws by the closing edge."""
    rng = random.Random(832)
    for m in range(8, 33, 3):
        for closed in (False, True):
            gvals = [rng.randint(-5, 5) for _ in range(m)]
            if closed:
                gvals[-1] = sum(gvals[:-1])
            yield cycle_system(gvals)


def generator_layered(sys):
    """_layered before its plain loop: one generator over every stored row.
    The oracle of the loop."""
    return sys.graph.m >= sys.graph.n and all(
        pairs[:1] == ((i, d),) for u in sys.transitions
        for i, (pairs, d) in enumerate(zip(u.nums, u.dens)))


def test_layered_matches_the_generator_form():
    unitriangular = [Mat.identity(2), Mat.from_rows([[1, "1/3"], [0, 1]]),
                     Mat.from_rows([[1, -2], [0, 1]])]
    other = [Mat.from_rows([[1, 2], [0, 0]]),   # an empty row
             Mat.from_rows([[0, 1], [1, 0]]),   # a zero diagonal
             Mat.from_rows([[1, 0], [5, 1]]),   # an entry left of the diagonal
             Mat.from_rows([[2, 0], [0, 1]]), Mat.from_rows([["1/2", 1], [0, 1]])]
    seen = set()
    for graph in (cycle_graph(3), DualGraph(3, ((0, 1), (1, 2))), DualGraph(1, ())):
        for u, v, w in itertools.product(unitriangular + other, repeat=3):
            sys = types.SimpleNamespace(graph=graph, transitions=(u, v, w)[:graph.m])
            expected = generator_layered(sys)
            assert cohomology._layered(sys) == expected
            seen.add(expected)
    assert seen == {False, True}


def row_scaled_layered_kernel(a, n, r):
    """ker A as ``_layered_kernel`` solved it on graphs with more than one
    independent cycle before B was put over one denominator: row u of
    [B | L] is row (u, i) of A over its own denominator d_u, split into its
    component-i part, which is d_u times row u of L, and the rest, which
    gives B's entries.  The oracle of the column-scaled route."""
    solutions = [{v * r + r - 1: 1 for v in range(n)}]
    for i in range(r - 2, -1, -1):
        k = len(solutions)
        rows = []
        for u in range(n):
            # row u of [B | L] in column order: lambda_s at s, vertex v at k + v
            row, ys, rest = [], [], []
            for c, x in a.nums[u * r + i]:
                if c % r == i:
                    ys.append((k + c // r, x))
                else:
                    rest.append((c, x))
            for s, solution in enumerate(solutions if rest else ()):
                b = sum([x * solution[c] for c, x in rest if c in solution])
                if b:
                    row.append((s, b))
            rows.append(row + ys)
        lifted = []
        for pairs, _ in linalg._kernel(rows, n + k):
            x = {}
            for j, y in pairs:
                if j < k:
                    for c, z in solutions[j].items():
                        x[c] = x.get(c, 0) + y * z
                else:
                    x[(j - k) * r + i] = y
            g = gcd(*x.values())
            lifted.append({c: y // g for c, y in x.items() if y})
        solutions = lifted
    return Subspace(linalg._stack(n * r, linalg._reduced(solutions, n * r)[0]))


def test_kernel_receives_the_integer_laplacian(monkeypatch):
    """On the chord system, whose rows of A have denominators d_u > 1,
    row u of every [beta | L] ``_layered_kernel`` hands ``_kernel`` holds
    row u of the graph's integer Laplacian in its y columns, not d_u times
    it; the kernel is the row-scaled oracle's and nullspace(A)."""
    sys = _chord_system()
    g, r = sys.graph, sys.rank
    a = system_matrix(sys)
    assert any(d > 1 for d in a.dens)
    calls, real = [], cohomology._kernel
    monkeypatch.setattr(cohomology, "_kernel", lambda rows, cols: calls.append(
        (cols - g.n, [list(row) for row in rows])) or real(rows, cols))
    kernel = cohomology._layered_kernel(a, g, r)
    lap = laplacian(g)
    assert set(lap.dens) == {1} and len(calls) == r - 1
    for k, rows in calls:
        # row u holds lambda_s at column s and vertex v at column k + v
        assert [{j - k: x for j, x in row if j >= k} for row in rows] \
            == [dict(pairs) for pairs in lap.nums]
    assert kernel == row_scaled_layered_kernel(a, g.n, r) == nullspace(a)


class TestLayeredKernel:
    """ker A one frame component at a time, against nullspace(A) and the
    row-scaled oracle, through ``linalg._kernel`` and, with one independent
    cycle, along the tree."""

    def test_matches_nullspace(self):
        systems = [*_oracle_systems(20261), *_cycle_defect_family(), _chord_system()]
        for sys in systems:
            g, r = sys.graph, sys.rank
            a = system_matrix(sys)
            kernel = nullspace(a)
            assert cohomology._layered(sys) == (g.m >= g.n)
            assert cohomology._layered_kernel(a, g, r) == kernel
            assert row_scaled_layered_kernel(a, g.n, r) == kernel
            assert _kernel_route(sys)[2] == kernel

    def test_kernel_dimension_counts_coupled_layers(self):
        """dim ker A = r minus the layers with 1^T B != 0; at rank 2 no
        layer is coupled, so system_rank = 2n - 2 on every connected graph."""
        seen = set()
        for sys in _oracle_systems(4099):
            n, r = sys.graph.n, sys.rank
            coupled = coupled_layers(sys)
            seen.add((r, coupled))
            assert invariant_cycles_report(sys).system_rank == n * r - (r - coupled)
        assert {(2, 0), (3, 0), (3, 1)} <= seen
        for sys in [*_cycle_defect_family(), _chord_system()]:
            assert invariant_cycles_report(sys).system_rank == 2 * sys.graph.n - 2
        for m in (4, 9, 14, 19, 24):
            for gvals in (range(-(m // 2), m - m // 2), (1,) * (m - 1) + (m - 1,)):
                assert tate_report(m, gvals).rank == 2 * m - 2

    def test_trees_keep_nullspace_and_cycles_take_the_route(self, monkeypatch):
        """Both sides of ``_layered`` on trivial 1 plus 30 integer extend
        layers: on one edge, a tree, ker A is nullspace(A); on two parallel
        edges, one cycle, it is the layered route.  Both give nullspace(A)."""
        rng = random.Random(30)
        real = cohomology._layered_kernel
        for edges, route in ((((0, 1),), "nullspace"), (((0, 1), (1, 0)), "layered")):
            g = DualGraph(2, edges)
            layers = [[rng.randint(-5, 5) for _ in range(g.m * k)] for k in range(1, 31)]
            sys = SystemSpec("trivial", 1, (), layers).build(g)
            expected = nullspace(system_matrix(sys))
            calls = _recorder(monkeypatch, "nullspace", lambda m: "nullspace")
            monkeypatch.setattr(cohomology, "_layered_kernel",
                                lambda *args: calls.append("layered") or real(*args))
            assert _kernel_route(sys)[2] == expected
            assert calls == [route]
            # r solutions on the tree; coupled components drop some on the cycle
            assert (expected.dim == 31) == (route == "nullspace")
            monkeypatch.undo()

    # sha256 of the defect document of each explicit system, as the
    # nullspace(A) route wrote it before the layered route existed
    OFF_ROUTE_DIGESTS = {
        ("swap", "triangle"):
            "0a88868e3625b7ccf290523b337e7dad68fc25d26e7a78a69a16d98b448510ed",
        ("swap", "parallel"):
            "11ed495cd06bd2d08bf2c97e60367122499f83635fc91a0d434ef2395df183bb",
        ("swap", "square"):
            "0ab5277c712e2cba6f23d8e7abe64c225d22406b700b100c7696340c793261d3",
        ("scaled", "triangle"):
            "4d18574a08a1946a8ee1ad40a9f2430e4cf7f439bb77be253aa38728428601e7",
        ("scaled", "parallel"):
            "9ce8c466bfc370e7242e5f9056d3b6edb8a798fa28e51f4a294a51761dfc18d8",
        ("scaled", "square"):
            "f6a6fcb26ddd4580e3c214339ec7814045d7866f1639538a862715a84261d841",
    }

    def test_other_transitions_keep_nullspace(self, monkeypatch):
        """The swap and a unit-upper-triangular matrix with a 2 on its
        diagonal are not unitriangular: their system matrices go to
        nullspace(A), once, and their documents keep their bytes."""
        graphs = {"triangle": "VERTICES\na b c\nEDGES\na b\nb c\nc a\n",
                  "parallel": "VERTICES\na b\nEDGES\na b\nb a\na b\n",
                  "square": "VERTICES\na b c d\nEDGES\na b\nb c\nc d\nd a\na c\n"}
        kernels = _recorder(monkeypatch, "nullspace", lambda m: m)
        layered = []
        monkeypatch.setattr(cohomology, "_layered_kernel",
                            lambda *args: layered.append(args))
        for name, u in (("swap", [[0, 1], [1, 0]]), ("scaled", [[2, 1], [0, 1]])):
            monkeypatch.setattr(ProblemSpec, "local_system", lambda self, u=u: LocalSystem(
                self.graph(), 2, (Mat.from_rows(u),) * len(self.edges)))
            for graph, text in graphs.items():
                kernels.clear()
                spec = parse_spec(text)
                doc = report.to_json(report.run(spec, "defect"))
                assert kernels == [system_matrix(spec.local_system())]
                assert (hashlib.sha256(doc.encode()).hexdigest()
                        == self.OFF_ROUTE_DIGESTS[name, graph])
        assert layered == []


def _is_coboundary(g, gvals):
    """Whether g_e = f(s) - f(t) for some vertex function f: f is read off
    a breadth-first spanning tree from vertex 0, then every edge is
    checked against it."""
    f, queue = {0: Fraction(0)}, [0]
    for u in queue:
        for (s, t), x in zip(g.edges, gvals):
            if s == u and t not in f:
                f[t] = f[s] - x
                queue.append(t)
            elif t == u and s not in f:
                f[s] = f[t] + x
                queue.append(s)
    return all(f[s] - f[t] == x for (s, t), x in zip(g.edges, gvals))


def assert_obstruction_certificate(g, gvals, rows):
    """The O(m) certificate of the rank-2 obstruction, for transitions
    [[1, g_e], [0, 1]]: rows, the obstruction basis as rows of 2m values,
    is at most one row (y_e, 0) per edge; div y = 0; g - lambda y is a
    coboundary for one lambda; and y vanishes exactly when g is a
    coboundary.  The coboundary check takes potentials of g and of y along
    a breadth-first spanning tree from vertex 0, then compares the two
    residuals of each non-tree edge.  Returns whether g is a coboundary."""
    gvals = [Fraction(x) for x in gvals]
    assert len(rows) <= 1
    row = [Fraction(x) for x in rows[0]] if rows else [Fraction(0)] * (2 * g.m)
    y = row[0::2]
    assert not any(row[1::2])
    div = [Fraction(0)] * g.n
    for (s, t), x in zip(g.edges, y):
        div[s] += x
        div[t] -= x
    assert not any(div)
    ends = [[] for _ in range(g.n)]
    for e, (s, t) in enumerate(g.edges):
        ends[s].append((e, t, 1))
        ends[t].append((e, s, -1))
    f, fy, tree, queue = {0: 0}, {0: 0}, set(), [0]
    for u in queue:
        for e, v, sign in ends[u]:
            if v not in f:
                f[v], fy[v] = f[u] - sign * gvals[e], fy[u] - sign * y[e]
                tree.add(e)
                queue.append(v)
    residuals = [(gvals[e] - f[s] + f[t], y[e] - fy[s] + fy[t])
                 for e, (s, t) in enumerate(g.edges) if e not in tree]
    lam = next((rg / ry for rg, ry in residuals if ry), 0)
    assert all(rg == lam * ry for rg, ry in residuals)
    coboundary = not any(rg for rg, _ in residuals)
    assert coboundary == (not any(y))
    return coboundary


class TestRankTwoClosedForm:
    """With transitions [[1, g_e], [0, 1]] on any connected multigraph, the
    defect is 0 exactly when g is a coboundary, h0 = 2 - defect,
    system_rank = 2n - 2, and the obstruction is spanned by (y_e, 0), y
    the divergence-free edge function cohomologous to g up to scale."""

    @staticmethod
    def assert_closed_form(g, gvals):
        """The closed form and the certificate on one cocycle; returns the
        obstruction rows, none exactly when g is a coboundary."""
        r = invariant_cycles_report(LocalSystem.unipotent_rank2(g, gvals))
        coboundary = _is_coboundary(g, gvals)
        assert r.defect == (0 if coboundary else 1)
        assert r.h0_dim == 2 - r.defect
        assert r.system_rank == 2 * g.n - 2
        rows = dense(r.obstruction.basis)
        assert assert_obstruction_certificate(g, gvals, rows) == coboundary
        return rows

    def test_drawn_multigraphs(self):
        rng = random.Random(2718)
        seen = set()
        for _ in range(150):
            g = random_connected_multigraph(rng, max_vertices=8)
            if rng.random() < 0.4:
                f = [random_rational(rng) for _ in range(g.n)]
                gvals = [f[s] - f[t] for s, t in g.edges]
            else:
                gvals = [random_rational(rng) for _ in range(g.m)]
            seen.add((not self.assert_closed_form(g, gvals), g.m >= g.n))
        assert seen == {(False, True), (True, True), (True, False)}

    def test_path_with_chords(self):
        """401 independent cycles on 200 vertices, with the path-plus-chords
        cocycle and with the coboundary of a drawn vertex function."""
        edges, gvals = path_with_chords(200, 600, 200600)
        g = DualGraph(200, edges)
        assert self.assert_closed_form(g, gvals)
        rng = random.Random(600)
        f = [rng.randint(-5, 5) for _ in range(g.n)]
        assert not self.assert_closed_form(g, [f[s] - f[t] for s, t in edges])

    def test_cycle_dichotomy(self):
        """The dichotomy `check` sweeps on cycles is the certificate's
        m-cycle case.  On cocycles drawn as checks._defect_dichotomy draws
        them at seed 0, m = 2..8 with every third one closed, y is zero
        exactly when the holonomy is, and otherwise a nonzero multiple of
        the signed cycle indicator: +1 on each edge i -> i+1, -1 on the
        closing edge 0 -> m-1."""
        rng = random.Random(4)  # check --seed 0 runs the dichotomy at 0 + 4
        seen = set()
        for i in range(56):
            m = 2 + i % 7
            gvals = tuple(random_rational(rng) for _ in range(m))
            if i % 3 == 2:
                gvals = gvals[:-1] + (sum(gvals[:-1], Fraction(0)),)
            rows = self.assert_closed_form(cycle_graph(m), gvals)
            assert (not rows) == (holonomy(gvals) == 0)
            if rows:
                y = rows[0][0::2]
                assert y[0] and y == tuple(y[0] * s for s in (1,) * (m - 1) + (-1,))
            seen.add((m, not rows))
        assert seen == {(m, closed) for m in range(2, 9) for closed in (False, True)}

    def test_tate_five_cycle_image_row(self):
        """Holonomy 5 on the 5-cycle: the image row is minus the signed
        cycle indicator in component 0, and the obstruction row is its
        multiple (1, 1, 1, 1, -1)."""
        gvals = (1, 1, 1, 1, -1)
        r = tate_report(5, gvals)
        assert r.holonomy == 5
        assert [row[0::2] for row in dense(r.edge_images)] == [(0,) * 5, (-1, -1, -1, -1, 1)]
        assert not any(x for row in dense(r.edge_images) for x in row[1::2])
        basis = dense(invariant_cycles_report(build_tate(5, gvals)[1]).obstruction.basis)
        assert basis == [(1, 0, 1, 0, 1, 0, 1, 0, -1, 0)]
        assert not assert_obstruction_certificate(cycle_graph(5), gvals, basis)


def _draw_chain(draw, st, g):
    """A drawn unipotent2 or trivial base on g with trivial extensions up
    to rank 4, each value 0, an int or p/q."""
    values = st.one_of(st.just(0), st.integers(-3, 3),
                       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
    r = draw(st.integers(1, 4))
    if r >= 2 and draw(st.booleans()):
        base = SystemSpec("unipotent2", 2, draw(st.lists(values, min_size=g.m, max_size=g.m)))
    else:
        base = SystemSpec("trivial", draw(st.integers(1, r)))
    layers = [draw(st.lists(values, min_size=g.m * k, max_size=g.m * k))
              for k in range(base.rank, r)]
    return SystemSpec(base.kind, base.rank, base.params, layers).build(g)


def test_layered_kernel_on_drawn_chains():
    """Property: on drawn unipotent2 or trivial bases with trivial
    extensions up to rank 4 with p/q values, on multigraphs with a single
    vertex, parallel edges and two or more independent cycles, the layered
    route gives nullspace(A) and the row-scaled oracle's kernel, and dim
    ker A is r minus the coupled layers.  Row (u, r - 1) of A, where the
    route reads L, is row u of the Laplacian at the columns v r + r - 1,
    over 1."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def chains(draw):
        return _draw_chain(draw, st, _draw_multigraph(draw, st))

    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(chains())
    def check(sys):
        n, r = sys.graph.n, sys.rank
        a = system_matrix(sys)
        assert cohomology._layered(sys) == (sys.graph.m >= n)
        kernel = cohomology._layered_kernel(a, sys.graph, r)
        assert kernel == nullspace(a) == row_scaled_layered_kernel(a, n, r)
        coupled = coupled_layers(sys)
        assert kernel.dim == r - coupled
        lap = laplacian(sys.graph)
        for u in range(n):
            assert (a.nums[u * r + r - 1], a.dens[u * r + r - 1]) \
                == (tuple([(v * r + r - 1, x) for v, x in lap.nums[u]]), 1)
        seen.update({r, "coupled" if coupled else "uncoupled",
                     "single vertex" if n == 1 else "edges"})
        if len(set(sys.graph.edges)) < sys.graph.m:
            seen.add("parallel")
        if sys.graph.m - n + 1 >= 2:
            seen.add("two cycles")
        if any(d > 1 for u in sys.transitions for d in u.dens):
            seen.add("p/q")

    check()
    assert seen == {1, 2, 3, 4, "coupled", "uncoupled", "single vertex", "edges",
                    "parallel", "two cycles", "p/q"}


def test_cycle_route_on_drawn_unicyclic_graphs(monkeypatch):
    """Property: on drawn graphs with one independent cycle, of length 2
    (a parallel pair) to 5, with up to 4 pendant vertices hanging off it
    in trees, vertices and edges shuffled so that the cycle may miss vertex
    0, and drawn chains up to rank 4 with p/q values, the spanning-tree
    route of ``_layered_kernel`` gives nullspace(A) and the row-scaled
    oracle's kernel, and ``_kernel_route`` takes it once per component
    i < r - 1."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def unicyclic(draw):
        length = draw(st.integers(2, 5))
        n = length + draw(st.integers(0, 4))
        edges = [(j, (j + 1) % length) for j in range(length)]
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(length, n)]
        label = draw(st.permutations(range(n)))
        edges = [(label[s], label[t]) if draw(st.booleans()) else (label[t], label[s])
                 for s, t in draw(st.permutations(edges))]
        return _draw_chain(draw, st, DualGraph(n, tuple(edges))), 0 in label[length:]

    # each component's index, from its one _coupling call, then "cycle"
    # for the one _cycle_kernel solve that takes its (D, beta)
    solves, coupling, cycle_kernel = [], cohomology._coupling, cohomology._cycle_kernel
    monkeypatch.setattr(cohomology, "_coupling",
                        lambda *args: solves.append(args[2]) or coupling(*args))
    monkeypatch.setattr(cohomology, "_cycle_kernel",
                        lambda *args: solves.append("cycle") or cycle_kernel(*args))
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(unicyclic())
    def check(drawn):
        sys, misses_0 = drawn
        g, r = sys.graph, sys.rank
        a = system_matrix(sys)
        kernel = nullspace(a)
        assert row_scaled_layered_kernel(a, g.n, r) == kernel
        solves.clear()
        assert cohomology._layered_kernel(a, g, r) == kernel
        assert _kernel_route(sys)[2] == kernel
        assert solves == [x for i in range(r - 2, -1, -1) for x in (i, "cycle")] * 2
        seen.update({r, "coupled" if coupled_layers(sys) else "uncoupled"})
        seen.update({"parallel pair"} if len(set(map(frozenset, g.edges))) < g.m else ())
        seen.update({"misses 0"} if misses_0 else ())
        seen.update({"pendant"} if any(deg == 1 for deg in map(
            [v for e in g.edges for v in e].count, range(g.n))) else ())
        seen.update({"p/q"} if any(d > 1 for u in sys.transitions for d in u.dens) else ())

    check()
    assert seen == {1, 2, 3, 4, "coupled", "uncoupled", "parallel pair", "misses 0",
                    "pendant", "p/q"}


def test_images_scaled_row_by_row_on_a_basis_that_is_not_rref(monkeypatch):
    """``_kernel_route`` scales each image delta(k_i) by its own E_i, the
    lcm of the denominators of delta's rows where delta(k_i) is not zero,
    and ``invariant_cycles_report`` scales k_i by the same E_i after it.  Only an H0 vector that combines kernel rows whose images differ
    in support and denominators tells a row scaled on both sides from one
    scaled on the image side only.  So the kernel source returns the basis
    h1 + w1, w2 - w1, -w2, h2 of ker A, not its RREF, on the direct sum of
    two unipotent2 systems with cocycles over 2 and over 3 that vanish on
    different edges: h1 and h2 are flat, delta(w1) and delta(w2) are not
    zero, and h1 is the sum of the first three rows."""
    g = DualGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    first = (Fraction(1, 2), 0, Fraction(3, 2), 0, Fraction(5, 2))
    second = (0, Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3), 0)
    sys = LocalSystem(g, 4, tuple(
        Mat.from_rows([[1, x, 0, 0], [0, 1, 0, 0], [0, 0, 1, y], [0, 0, 0, 1]])
        for x, y in zip(first, second)))
    a, cob = system_matrix(sys), coboundary_matrix(sys)
    assert cohomology._layered(sys)
    rows = dense(nullspace(a).basis)
    images = [[sum(c * x for c, x in zip(row, k)) for row in dense(cob)] for k in rows]
    flat = [k for k, image in zip(rows, images) if not any(image)]
    (w1, one), (w2, two) = [(k, image) for k, image in zip(rows, images) if any(image)]
    support = [{p for p, x in enumerate(image) if x} for image in (one, two)]
    scales = [lcm(*[cob.dens[p] for p in rows]) for rows in support]
    assert len(flat) == 2 and support[0] != support[1] and scales == [2, 3]
    basis = [[h + w for h, w in zip(flat[0], w1)], [y - x for x, y in zip(w1, w2)],
             [-x for x in w2], flat[1]]
    monkeypatch.setattr(cohomology, "_layered_kernel",
                        lambda *args: Subspace(Mat.from_rows(basis)))
    report = invariant_cycles_report(sys)
    assert (report.h0_basis, report.obstruction) == (h0(sys), obstruction(sys))
    assert report.defect == 2 and report.h0_dim == 2


RATIONAL_EXTENSION = ("VERTICES\na b c d\nEDGES\na b\nb c\nc d\nd a\na c\nSYSTEM\n"
                      "unipotent2 1/2 -3 0 7/4 2\nextend 1 -1/3 0 2 5/6 1 -2 0 1/5 3\n")


def _with_row(a, i, pairs, d):
    """A with row i replaced by pairs / d, put in stored form."""
    row, d = linalg._lowest(sorted([(j, n) for j, n in pairs if n]), d)
    return Mat(a.rows, a.cols, a.nums[:i] + (row,) + a.nums[i + 1:],
               a.dens[:i] + (d,) + a.dens[i + 1:])


def test_a_block_the_solver_does_not_read_is_still_checked(monkeypatch):
    """On a rank-3 system with two independent cycles, ``_layered_kernel``
    reads neither A's diagonal in component 0 nor any row (u, 0) for L.
    A changed diagonal entry there leaves the kernel it solves as it was,
    so the check A K^T = 0 in ``_kernel_route`` must catch it."""
    sys = parse_spec(RATIONAL_EXTENSION).local_system()
    g, r = sys.graph, sys.rank
    assert (r, g.m - g.n + 1) == (3, 2)
    a = system_matrix(sys)
    kernel = cohomology._layered_kernel(a, g, r)
    touched = {j for pairs in kernel.basis.nums for j, _ in pairs}
    u = next(u for u in range(g.n) if u * r in touched)
    pairs, d = dict(a.nums[u * r]), a.dens[u * r]
    wrong = _with_row(a, u * r, [*{**pairs, u * r: pairs[u * r] + d}.items()], d)
    assert cohomology._layered_kernel(wrong, g, r) == kernel
    monkeypatch.setattr(cohomology, "system_matrix", lambda sys: wrong)
    with pytest.raises(InternalCheckError, match="not in its kernel"):
        _kernel_route(sys)


def _mutants(a, rng):
    """A with one changed entry, one dropped entry, one added entry and one
    changed denominator, each in a drawn nonzero row and in stored form."""
    i = rng.choice([i for i in range(a.rows) if a.nums[i]])
    pairs, d = list(a.nums[i]), a.dens[i]
    k = rng.randrange(len(pairs))
    j, n = pairs[k]
    free = [c for c in range(a.cols) if c not in dict(pairs)]
    yield "changed", _with_row(a, i, pairs[:k] + [(j, n + rng.choice((-2, -1, 1, 2)))]
                               + pairs[k + 1:], d)
    yield "dropped", _with_row(a, i, pairs[:k] + pairs[k + 1:], d)
    if free:
        yield "added", _with_row(a, i, pairs + [(rng.choice(free), rng.randint(1, 5))], d)
    yield "denominator", _with_row(a, i, pairs, d * rng.choice((2, 3, 5)))


def _factor_corpus():
    yield from _oracle_systems(401)
    yield from _general_systems(409)
    yield from _cycle_defect_family()
    yield parse_spec(RATIONAL_EXTENSION).local_system()


class TestFactorsCheck:
    """cohomology._factors, the row-by-row R.delta = A check, against the
    product residue @ cob == a."""

    def test_matches_the_product_on_the_corpus_and_its_mutants(self):
        rng, kinds, fractional = random.Random(419), set(), False
        for sys in _factor_corpus():
            residue, cob = residue_constraint_matrix(sys), coboundary_matrix(sys)
            a = system_matrix(sys)
            # both verdicts, which must agree, on A and on each mutant
            assert residue @ cob == a
            assert cohomology._factors(residue, cob, a)
            fractional |= max(a.dens + cob.dens + residue.dens) > 1
            if not any(a.nums):
                continue
            for kind, mutant in _mutants(a, rng):
                assert mutant != a, kind
                assert residue @ cob != mutant, kind
                assert not cohomology._factors(residue, cob, mutant), kind
                kinds.add(kind)
        assert fractional
        assert kinds == {"changed", "dropped", "added", "denominator"}

    def test_shape_mismatches(self):
        residue, cob = Mat.from_rows([[1, 2, 0], [0, 1, -1]]), Mat.from_rows([[1, 0], [0, 1]])
        with pytest.raises(linalg.DimensionMismatch):
            residue @ cob
        with pytest.raises(linalg.DimensionMismatch):
            cohomology._factors(residue, cob, Mat.zeros(2, 2))
        cob = Mat.from_rows([[1, 0], [0, 1], [1, 1]])
        a = residue @ cob
        assert cohomology._factors(residue, cob, a)
        # a zero row or a zero column more, which zip alone would not see, and
        # a row fewer
        for wrong in (Mat(3, 2, a.nums + ((),), a.dens + (1,)),
                      Mat(2, 3, a.nums, a.dens), Mat(1, 2, a.nums[:1], a.dens[:1])):
            assert residue @ cob != wrong
            assert not cohomology._factors(residue, cob, wrong)

    def test_report_keeps_its_exceptions(self, monkeypatch):
        sys = cycle_system((1, 2, 4))
        real_a, real_r = cohomology.system_matrix, cohomology.residue_constraint_matrix

        def extra_row(sys):
            a = real_a(sys)
            return linalg._mat(a.rows + 1, a.cols, a.nums + ((),), a.dens + (1,))

        def extra_column(sys):
            r = real_r(sys)
            return linalg._mat(r.rows, r.cols + 1, r.nums, r.dens)

        monkeypatch.setattr(cohomology, "system_matrix", extra_row)
        with pytest.raises(InternalCheckError, match="^system matrix does not factor "
                           "through the residue and coboundary matrices$"):
            invariant_cycles_report(sys)
        monkeypatch.setattr(cohomology, "system_matrix", real_a)
        monkeypatch.setattr(cohomology, "residue_constraint_matrix", extra_column)
        with pytest.raises(linalg.DimensionMismatch):
            invariant_cycles_report(sys)

    def test_the_report_builds_no_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("a product was built")

        monkeypatch.setattr(Mat, "__matmul__", refuse)
        for sys in (cycle_system((1, 2, 4)), parse_spec(RATIONAL_EXTENSION).local_system()):
            invariant_cycles_report(sys)
