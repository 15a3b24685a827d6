"""Dual graphs: validation at construction, incidence and laplacian
matrices."""

import random

import pytest

from monograph.checks import random_connected_multigraph
from monograph.graph import (DisconnectedError, DualGraph, GraphError,
                             LoopEdgeError, cycle_graph, incidence_matrix,
                             laplacian)
from monograph.linalg import Mat, Subspace, nullspace, rank

from test_linalg_oracle import dense


def reorient_edge(g: DualGraph, e: int) -> DualGraph:
    """The same graph with edge e's canonical orientation swapped."""
    s, t = g.edges[e]
    return DualGraph(g.n, g.edges[:e] + ((t, s),) + g.edges[e + 1:], g.labels)


def triangle():
    return cycle_graph(3)


class TestValidate:
    # construction is the validation: no DualGraph is a loop or disconnected
    def test_triangle_ok(self):
        assert triangle().edges == ((0, 1), (1, 2), (0, 2))

    def test_two_isolated_vertices(self):
        with pytest.raises(DisconnectedError, match="unreachable vertices: v1"):
            DualGraph(2, ())

    def test_loop(self):
        with pytest.raises(LoopEdgeError, match="edge 0 is a loop at vertex v0"):
            DualGraph(1, ((0, 0),))

    def test_single_vertex_ok(self):
        assert DualGraph(1, ()).m == 0

    def test_out_of_range_edge(self):
        with pytest.raises(GraphError):
            DualGraph(2, ((0, 5),))

    @pytest.mark.parametrize("n, edges", [
        (3, ((0, 1.7), (1, 2))),
        (3, ((0, 1), (True, 2))),
        (3, ((0, 1), (1, 2.0))),
        (3, ((0, "1"), (1, 2))),
        (2.0, ((0, 1),)),
        (True, ()),
    ])
    def test_non_int_vertices_refused(self, n, edges):
        # refused, not read through int(), which would truncate 1.7 and True
        with pytest.raises(GraphError, match="int"):
            DualGraph(n, edges)

    def test_messages_name_vertices_by_label(self):
        with pytest.raises(LoopEdgeError, match="edge 1 is a loop at vertex b$"):
            DualGraph(2, ((0, 1), (1, 1)), labels=("a", "b"))
        with pytest.raises(DisconnectedError, match="unreachable vertices: c, d$"):
            DualGraph(4, ((0, 1),), labels=("a", "b", "c", "d"))

    def test_label_count_checked_before_loops(self):
        with pytest.raises(GraphError, match="1 labels for 2 vertices"):
            DualGraph(2, ((0, 0),), labels=("a",))


class TestIncidence:
    def test_single_edge(self):
        assert incidence_matrix(DualGraph(2, ((0, 1),))) == \
            Mat.from_rows([[1], [-1]])

    def test_triangle(self):
        assert incidence_matrix(triangle()) == \
            Mat.from_rows([[1, 0, 1], [-1, 1, 0], [0, -1, -1]])

    def test_columns_sum_to_zero(self):
        rng = random.Random(101)
        for _ in range(20):
            g = random_connected_multigraph(rng)
            d = incidence_matrix(g)
            rows = dense(d)
            assert all(sum(row[e] for row in rows) == 0 for e in range(g.m))


class TestLaplacian:
    def test_triangle_matches_incidence_product(self):
        g = triangle()
        d = incidence_matrix(g)
        expected = Mat.from_rows([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert laplacian(g) == expected == d @ d.transpose()

    def test_two_cycle_multiplicity(self):
        assert laplacian(cycle_graph(2)) == Mat.from_rows([[2, -2], [-2, 2]])

    def test_single_edge(self):
        assert laplacian(DualGraph(2, ((0, 1),))) == \
            Mat.from_rows([[1, -1], [-1, 1]])

    def test_factors_through_incidence(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_multigraph(rng)
            d = incidence_matrix(g)
            assert laplacian(g) == d @ d.transpose()

    def test_rank_and_kernel(self):
        # hand-built edge cases; random graphs are the registry's trivial
        # coefficients sweep
        for g in (DualGraph(1, ()), DualGraph(2, ((0, 1),)), cycle_graph(2),
                  triangle(), DualGraph(4, ((0, 1), (1, 0), (2, 1), (3, 1)))):
            lap = laplacian(g)
            assert rank(lap) == g.n - 1
            assert rank(incidence_matrix(g)) == g.n - 1
            assert nullspace(lap) == Subspace.from_vectors(g.n, [[1] * g.n])


class TestCycleGraph:
    def test_triangle_edge_list(self):
        assert cycle_graph(3).edges == ((0, 1), (1, 2), (0, 2))

    def test_two_cycle_is_double_edge(self):
        assert cycle_graph(2).edges == ((0, 1), (0, 1))

    def test_one_vertex_rejected(self):
        with pytest.raises(GraphError):
            cycle_graph(1)

    def test_longer_cycles_validate(self):
        # cycle_graph goes through the validating constructor
        for m in range(2, 9):
            g = cycle_graph(m)
            assert g.m == m and g.edges[-1] == (0, m - 1)


class TestReorient:
    def test_swaps_endpoints(self):
        g = reorient_edge(triangle(), 1)
        assert g.edges == ((0, 1), (2, 1), (0, 2))

    def test_incidence_column_flips_sign(self):
        g = triangle()
        flipped = reorient_edge(g, 0)
        d, d2 = incidence_matrix(g), incidence_matrix(flipped)
        assert [row[0] for row in dense(d2)] == [-row[0] for row in dense(d)]
        assert laplacian(flipped) == laplacian(g)
