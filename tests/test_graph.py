"""Dual graphs: validation at construction, incidence and laplacian
matrices."""

import random

import pytest

from monograph.checks import random_connected_multigraph
from monograph.graph import (DisconnectedError, DualGraph, GraphError,
                             LoopEdgeError, cycle_graph, incidence_matrix,
                             laplacian)
from monograph.linalg import Mat, Subspace, _reduce, _stack, nullspace, rank

from test_linalg_oracle import dense


def reorient_edge(g: DualGraph, e: int) -> DualGraph:
    """The same graph with edge e's canonical orientation swapped."""
    s, t = g.edges[e]
    return DualGraph(g.n, g.edges[:e] + ((t, s),) + g.edges[e + 1:], g.labels)


def triangle():
    return cycle_graph(3)


def spanning_tree(n, edges):
    """The breadth-first spanning tree from vertex 0, each vertex's edges
    taken in edge order: (e, u, v) for every other vertex v, in the order
    the walk reaches it, along edge e from u."""
    ends = [[] for _ in range(n)]
    for e, (s, t) in enumerate(edges):
        ends[s].append((e, t))
        ends[t].append((e, s))
    seen, queue, tree = [True] + [False] * (n - 1), [0], []
    for u in queue:
        for e, v in ends[u]:
            if not seen[v]:
                seen[v] = True
                tree.append((e, u, v))
                queue.append(v)
    return tree


def edge_ends(n, edges):
    """Each vertex's edge ends in edge order, read off the edge list one
    vertex at a time: (e, the far vertex, whether the vertex is e's source)."""
    return [[(e, t if s == u else s, s == u) for e, (s, t) in enumerate(edges) if u in (s, t)]
            for u in range(n)]


def reachable(n, edges):
    """The vertices joined to vertex 0, by growing the set to a fixed point."""
    found, grown = {0}, True
    while grown:
        grown = False
        for s, t in edges:
            if (s in found) != (t in found):
                found |= {s, t}
                grown = True
    return found


def assert_walk(g):
    assert [list(ends) for ends in g.ends] == edge_ends(g.n, g.edges)
    assert list(g.tree) == spanning_tree(g.n, g.edges)


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

    def test_every_missing_component_named_in_vertex_order(self):
        # {0, 3} is reached; {1, 4} and {2, 5} are not, and the walk would
        # never list them as 1, 2, 4, 5
        edges = ((0, 3), (4, 1), (2, 5))
        with pytest.raises(DisconnectedError, match="unreachable vertices: v1, v2, v4, v5$"):
            DualGraph(6, edges)
        with pytest.raises(DisconnectedError, match="unreachable vertices: b, c, e, f$"):
            DualGraph(6, edges, labels="abcdef")
        with pytest.raises(DisconnectedError, match="unreachable vertices: II, III, IV$"):
            DualGraph(4, (), labels=("I", "II", "III", "IV"))

    def test_label_count_checked_before_loops(self):
        with pytest.raises(GraphError, match="1 labels for 2 vertices"):
            DualGraph(2, ((0, 0),), labels=("a",))


class TestWalk:
    """The walk construction keeps, against the oracles above: each
    vertex's edge ends and the breadth-first spanning tree from vertex 0."""

    @pytest.mark.parametrize("g", [
        DualGraph(1, ()),
        cycle_graph(2),
        triangle(),
        # vertex 0 a leaf, a parallel pair, and edges against the walk
        DualGraph(5, ((1, 0), (2, 1), (1, 2), (3, 2), (1, 4), (4, 3))),
    ], ids=["one vertex", "2-cycle", "triangle", "leaf 0"])
    def test_hand_built(self, g):
        assert_walk(g)

    def test_leaf_zero_by_hand(self):
        g = DualGraph(4, ((1, 0), (2, 1), (1, 3), (3, 2)))
        assert g.ends[0] == ((0, 1, False),)
        assert g.ends[1] == ((0, 0, True), (1, 2, False), (2, 3, True))
        assert g.tree == ((0, 0, 1), (1, 1, 2), (2, 1, 3))

    def test_drawn_multigraphs(self):
        """Property: on drawn loop-free edge lists on 1..7 vertices, each
        orientation drawn, a connected graph keeps the oracles' ends and
        tree, and a disconnected one names every vertex the oracle cannot
        reach, by label, in vertex order."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @st.composite
        def edge_lists(draw):
            n = draw(st.integers(1, 7))
            pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            return n, tuple(map(tuple, draw(st.lists(pairs, max_size=2 * n) if n > 1
                                            else st.just([]))))

        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(edge_lists())
        def check(drawn):
            n, edges = drawn
            labels = ["x%d" % (n - v) for v in range(n)]
            found = reachable(n, edges)
            if len(found) < n:
                missing = [labels[v] for v in range(n) if v not in found]
                with pytest.raises(DisconnectedError) as caught:
                    DualGraph(n, edges, labels)
                assert str(caught.value) == "unreachable vertices: " + ", ".join(missing)
                seen.add("disconnected")
                return
            g = DualGraph(n, edges, labels)
            assert_walk(g)
            seen.update({"one vertex"} if n == 1 else ())
            seen.update({"parallel"} if len(set(map(frozenset, edges))) < len(edges) else ())
            seen.update({"leaf 0"} if n > 1 and len(g.ends[0]) == 1 else ())
            seen.update({"reversed"} if any(s > t for s, t in edges) else ())

        check()
        assert seen == {"one vertex", "parallel", "leaf 0", "reversed", "disconnected"}


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


def oracle_incidence(g):
    """The incidence matrix from one dict row per vertex, filled edge by
    edge: the builder that reading the stored ends replaced."""
    rows = [{} for _ in range(g.n)]
    for e, (s, t) in enumerate(g.edges):
        rows[s][e], rows[t][e] = 1, -1
    return _stack(g.m, [_reduce(row, 1) for row in rows])


def oracle_laplacian(g):
    """The Laplacian from one dict row per vertex, each edge adding to both
    of its rows: the builder that reading the stored ends replaced."""
    rows = [{} for _ in range(g.n)]
    for s, t in g.edges:
        for u, w in ((s, t), (t, s)):
            rows[u][u] = rows[u].get(u, 0) + 1
            rows[u][w] = rows[u].get(w, 0) - 1
    return _stack(g.n, [_reduce(row, 1) for row in rows])


class TestBuildersAgainstDictRows:
    """Both builders read the rows off ``DualGraph.ends``; the dict-row
    builders above are their oracle, stored form included."""

    def test_hand_built(self):
        # the one-vertex graph's rows are empty: no stored zero
        for g in (DualGraph(1, ()), cycle_graph(2), DualGraph(2, ((1, 0), (0, 1), (1, 0))),
                  DualGraph(4, ((0, 1), (1, 0), (2, 1), (3, 1)))):
            assert incidence_matrix(g) == oracle_incidence(g)
            assert laplacian(g) == oracle_laplacian(g)

    def test_drawn_multigraphs(self):
        # random_connected_multigraph puts at most 3 edges between two vertices
        rng, parallel = random.Random(3), set()
        for _ in range(300):
            g = random_connected_multigraph(rng, max_vertices=rng.choice((2, 3, 9)))
            assert incidence_matrix(g) == oracle_incidence(g)
            assert laplacian(g) == oracle_laplacian(g)
            pairs = list(map(frozenset, g.edges))
            parallel.add(max(map(pairs.count, pairs)))
        assert {2, 3} <= parallel


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
