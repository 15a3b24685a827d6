"""Connected multigraphs with canonically oriented edges.

A graph is stored as a vertex count plus a list of (source, target) pairs;
each unoriented edge carries exactly one canonical orientation, fixed at
construction.  Parallel edges are allowed, loops are not: loops would break
the column-sum invariant of the incidence matrix, and the curve
configurations this models never produce them.  Construction rejects loops
and disconnected graphs, so every ``DualGraph`` is a valid dual graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, _integer_rows


class GraphError(ValueError):
    pass


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DisconnectedError(GraphError):
    """The graph is not connected."""


@dataclass(frozen=True)
class DualGraph:
    """A connected loop-free multigraph; vertices are the ints 0..n-1,
    edges canonical (source, target)."""

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
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
        for e, (s, t) in enumerate(self.edges):
            if s == t:
                raise LoopEdgeError("edge %d is a loop at vertex %s"
                                    % (e, self.vertex_name(s)))
        adjacency: list[list[int]] = [[] for _ in range(self.n)]
        for s, t in self.edges:
            adjacency[s].append(t)
            adjacency[t].append(s)
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        while stack:
            for w in adjacency[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if not all(seen):
            missing = [self.vertex_name(v) for v, ok in enumerate(seen) if not ok]
            raise DisconnectedError("unreachable vertices: %s" % ", ".join(missing))

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertex_name(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else "v%d" % v


def incidence_matrix(g: DualGraph) -> Mat:
    """n x m matrix: +1 at (source, e), -1 at (target, e)."""
    rows: list[dict[int, int]] = [{} for _ in range(g.n)]
    for e, (s, t) in enumerate(g.edges):
        rows[s][e], rows[t][e] = 1, -1
    return _integer_rows(rows, (1,) * g.n, g.m)


def laplacian(g: DualGraph) -> Mat:
    """n x n matrix with vertex degrees on the diagonal and, off the
    diagonal, minus the number of edges between the two vertices, counted
    in ints.  Its kernel is the constant line, so its rank is n - 1: the
    graph is connected."""
    rows: list[dict[int, int]] = [{} for _ in range(g.n)]
    for s, t in g.edges:
        for u, w in ((s, t), (t, s)):
            rows[u][u] = rows[u].get(u, 0) + 1
            rows[u][w] = rows[u].get(w, 0) - 1
    return _integer_rows(rows, (1,) * g.n, g.n)


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
