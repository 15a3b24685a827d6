"""Connected multigraphs with canonically oriented edges.

A graph is stored as a vertex count plus a list of (source, target) pairs;
each unoriented edge carries exactly one canonical orientation, fixed at
construction.  Parallel edges are allowed, loops are not: loops would break
the column-sum invariant of the incidence matrix, and the curve
configurations this models never produce them.  Construction rejects loops
and disconnected graphs, so every ``DualGraph`` is a valid dual graph.

The connectivity check is the package's one walk of a graph: a
breadth-first search from vertex 0 that takes each vertex's edges in edge
order.  The graph keeps what it found, each vertex's edge ends and the
spanning tree.  The incidence and Laplacian rows are read off the stored
ends, and ``cohomology`` solves the one-cycle kernel, and carries R's
transports on a graph with two or more independent cycles, along that tree
instead of walking the graph again.
"""

from __future__ import annotations

from collections.abc import Iterable

from .linalg import Mat, Value, _mat


class GraphError(ValueError):
    pass


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DisconnectedError(GraphError):
    """The graph is not connected."""


class DualGraph(Value):
    """A connected loop-free multigraph; vertices are the ints 0..n-1,
    edges canonical (source, target).

    Besides its fields it keeps what its walk found: ``ends[u]``, u's edge
    ends in edge order as (e, the far vertex, whether u is e's source), and
    ``tree``, the breadth-first spanning tree as (e, u, v) for every other
    vertex v, in the order the walk reaches it, along edge e from u.
    Neither is a field, so equality, hash and repr see only n, edges and
    labels.
    """

    _fields = ("n", "edges", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Iterable[str] | None = None) -> None:
        super().__init__(n, edges, labels)
        # exact ints only: a float or bool endpoint is refused, not truncated
        if type(self.n) is not int or self.n < 1:
            raise GraphError("need at least one vertex, counted by an int, not %r"
                             % (self.n,))
        object.__setattr__(self, "edges", tuple([(s, t) for s, t in self.edges]))
        for s, t in self.edges:
            if not (type(s) is type(t) is int and 0 <= s < self.n and 0 <= t < self.n):
                raise GraphError("edge (%r, %r) is not a pair of int vertices below %d"
                                 % (s, t, self.n))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.n:
                raise GraphError("%d labels for %d vertices"
                                 % (len(self.labels), self.n))
        # after the label check, so the messages name vertices by label
        ends: list[list[tuple[int, int, bool]]] = [[] for _ in range(self.n)]
        for e, (s, t) in enumerate(self.edges):
            if s == t:
                raise LoopEdgeError("edge %d is a loop at vertex %s"
                                    % (e, self.vertex_name(s)))
            ends[s].append((e, t, True))
            ends[t].append((e, s, False))
        seen, queue, tree = [True] + [False] * (self.n - 1), [0], []
        for u in queue:
            for e, v, _ in ends[u]:
                if not seen[v]:
                    seen[v] = True
                    tree.append((e, u, v))
                    queue.append(v)
        if len(queue) < self.n:
            missing = [self.vertex_name(v) for v, ok in enumerate(seen) if not ok]
            raise DisconnectedError("unreachable vertices: %s" % ", ".join(missing))
        object.__setattr__(self, "ends", tuple(map(tuple, ends)))
        object.__setattr__(self, "tree", tuple(tree))

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertex_name(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else "v%d" % v


def incidence_matrix(g: DualGraph) -> Mat:
    """n x m matrix: +1 at (source, e), -1 at (target, e).  Row u is u's
    stored edge ends, already in edge order with no edge twice."""
    rows = [tuple([(e, 1 if source else -1) for e, _, source in ends]) for ends in g.ends]
    return _mat(g.n, g.m, tuple(rows), (1,) * g.n)


def laplacian(g: DualGraph) -> Mat:
    """n x n matrix with vertex degrees on the diagonal and, off the
    diagonal, minus the number of edges between the two vertices, counted
    in ints.  Its kernel is the constant line, so its rank is n - 1: the
    graph is connected.  Row u is one count over u's stored edge ends, in
    which parallel edges add up; a vertex with no ends, on the one-vertex
    graph, has the empty row."""
    rows = []
    for u, ends in enumerate(g.ends):
        row = {u: len(ends)} if ends else {}
        for _, v, _ in ends:
            row[v] = row.get(v, 0) - 1
        rows.append(tuple(sorted(row.items())))
    return _mat(g.n, g.n, tuple(rows), (1,) * g.n)


def cycle_graph(m: int) -> DualGraph:
    """Cycle on m >= 2 vertices.

    Edges run i -> i+1, and the closing edge is oriented 0 -> m-1, so the
    m = 3 instance has edge list (0,1), (1,2), (0,2).  m = 1 would force a
    loop and is rejected.
    """
    if m < 2:
        raise GraphError("cycle needs at least 2 vertices, got %d" % m)
    edges = tuple([(i, i + 1) for i in range(m - 1)] + [(0, m - 1)])
    return DualGraph(m, edges)
