"""Local coefficient systems on a dual graph.

A rank-r system assigns each edge an invertible r x r transition matrix
expressing the target-vertex frame in the source-vertex frame along the
canonical orientation.  The transition along the reversed edge is the
inverse; each inverse is derived once, when the system is built, so the
one matrix per edge is the single source of truth.

Edge cochains hold one r-vector per edge, pinned to the source-vertex
frame.  The value seen from the target side is minus the inverse-transported
vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import DualGraph
from .linalg import DimensionMismatch, Mat, Vector, rref, vec


def _inverse(m: Mat) -> Mat:
    """The inverse of a square matrix; raises ValueError if it is singular.

    An upper-triangular m, which is every transition the constructors
    build, is inverted by back substitution from the last row up: row i of
    the inverse is (e_i - sum of m[i, k] row_k over k > i) / m[i, i], over
    the nonzeros of m.  Any other m is reduced as [m | I].
    """
    n, one = m.rows, Fraction(1)
    if any(pairs and pairs[0][0] < i for i, pairs in enumerate(m.nonzero)):
        reduced, pivots = rref(Mat(n, 2 * n, tuple(
            pairs + ((n + i, one),) for i, pairs in enumerate(m.nonzero))))
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Mat(n, n, tuple(tuple((j - n, x) for j, x in pairs if j >= n)
                               for pairs in reduced.nonzero))
    inverse: list[dict[int, Fraction]] = [{}] * n
    for i in reversed(range(n)):
        pairs = m.nonzero[i]
        if not pairs or pairs[0][0] != i:
            raise ValueError("matrix is singular")
        row = {i: one}
        for k, a in pairs[1:]:
            for j, y in inverse[k].items():
                row[j] = row[j] - a * y if j in row else -a * y
        pivot = pairs[0][1]
        if pivot != 1:
            row = {j: x / pivot for j, x in row.items()}
        inverse[i] = row
    return Mat.from_dicts(inverse, n)


@dataclass(frozen=True)
class LocalSystem:
    """Per-edge invertible transitions over a dual graph."""

    graph: DualGraph
    rank: int
    transitions: tuple[Mat, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if len(self.transitions) != self.graph.m:
            raise ValueError("%d transitions for %d edges"
                             % (len(self.transitions), self.graph.m))
        for e, u in enumerate(self.transitions):
            if u.rows != self.rank or u.cols != self.rank:
                raise DimensionMismatch("transition %d has shape %dx%d, rank is %d"
                                        % (e, u.rows, u.cols, self.rank))
        object.__setattr__(self, "_inverses",
                           tuple(_inverse(u) for u in self.transitions))

    @classmethod
    def trivial(cls, g: DualGraph, r: int) -> LocalSystem:
        """All transitions identity."""
        return cls(g, r, (Mat.identity(r),) * g.m)

    @classmethod
    def unipotent_rank2(cls, g: DualGraph,
                        gvals: Sequence[int | str | Fraction]) -> LocalSystem:
        """Rank-2 system with transition [[1, g_e], [0, 1]] on each edge."""
        values = vec(gvals)
        if len(values) != g.m:
            raise ValueError("%d cocycle values for %d edges" % (len(values), g.m))
        one = Fraction(1)
        # each [[1, g_e], [0, 1]] by its nonzero (column, entry) pairs
        return cls(g, 2, tuple(Mat(2, 2, (((0, one), (1, ge)) if ge else ((0, one),),
                                          ((1, one),))) for ge in values))

    def transition_inverse(self, e: int) -> Mat:
        return self._inverses[e]  # type: ignore[attr-defined]

    def extend_by_trivial(self, c: EdgeCochain) -> LocalSystem:
        """Rank r+1 system with block transitions [[U_e, c_e], [0, 1]].

        The first r coordinates embed this system; the last coordinate
        projects onto the trivial rank-1 system.
        """
        if c.system != self:
            raise ValueError("cochain is valued in a different system")
        r, bottom = self.rank, ((self.rank, Fraction(1)),)
        return LocalSystem(self.graph, r + 1, tuple(
            Mat(r + 1, r + 1, tuple(pairs + ((r, x),) if x else pairs
                                    for pairs, x in zip(u.nonzero, v)) + (bottom,))
            for u, v in zip(self.transitions, c.values)))

    def reorient_edge(self, e: int) -> LocalSystem:
        """Equivalent system with edge e's canonical orientation swapped;
        the stored transition becomes its inverse."""
        transitions = (self.transitions[:e] + (self.transition_inverse(e),)
                       + self.transitions[e + 1:])
        return LocalSystem(self.graph.reorient_edge(e), self.rank, transitions)


@dataclass(frozen=True)
class EdgeCochain:
    """One r-vector per edge, in the source-vertex frame."""

    system: LocalSystem
    values: tuple[Vector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(vec(v) for v in self.values))
        if len(self.values) != self.system.graph.m:
            raise ValueError("%d edge values for %d edges"
                             % (len(self.values), self.system.graph.m))
        for e, v in enumerate(self.values):
            if len(v) != self.system.rank:
                raise DimensionMismatch("value on edge %d has length %d, rank is %d"
                                        % (e, len(v), self.system.rank))
