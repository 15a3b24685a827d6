"""Local coefficient systems on a dual graph.

A rank-r system assigns each edge an invertible r x r transition matrix
expressing the target-vertex frame in the source-vertex frame along the
canonical orientation.  The transition along the reversed edge is the
inverse; it is always derived, never stored, so the one matrix per edge is
the single source of truth.

Edge cochains hold one r-vector per edge, pinned to the source-vertex
frame.  The value seen from the target side is minus the inverse-transported
vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import DualGraph
from .linalg import DimensionMismatch, Mat, Vector, rref, vec


def _inverse(m: Mat) -> Mat:
    """Invert by reducing [m | I] to RREF; raises on singular input.

    Only a LocalSystem built directly from its transitions needs this:
    the constructors below supply closed-form inverses instead.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    augmented = Mat.block([[m, Mat.identity(n)]])
    reduced, pivots = rref(augmented)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Mat(n, n, tuple(x for i in range(n) for x in reduced.row(i)[n:]))


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
        # The inverse cache.  A constructor that knows the inverses in
        # closed form supplies them (see _with_inverses), and each is
        # checked with one product; otherwise inverting each transition is
        # the invertibility check.
        inverses = self.__dict__.get("_inverses")
        if inverses is None:
            object.__setattr__(self, "_inverses",
                               tuple(_inverse(u) for u in self.transitions))
            return
        identity = Mat.identity(self.rank)
        for e, (u, v) in enumerate(zip(self.transitions, inverses, strict=True)):
            if u @ v != identity:
                raise ValueError("supplied inverse of transition %d is wrong" % e)

    @classmethod
    def _with_inverses(cls, g: DualGraph, r: int, transitions: tuple[Mat, ...],
                       inverses: tuple[Mat, ...]) -> LocalSystem:
        """The system with these transitions, whose inverses are known."""
        system = cls.__new__(cls)
        object.__setattr__(system, "_inverses", tuple(inverses))
        system.__init__(g, r, transitions)  # type: ignore[misc]
        return system

    @classmethod
    def trivial(cls, g: DualGraph, r: int) -> LocalSystem:
        """All transitions identity."""
        one = Mat.identity(r)
        return cls._with_inverses(g, r, (one,) * g.m, (one,) * g.m)

    @classmethod
    def unipotent_rank2(cls, g: DualGraph,
                        gvals: Sequence[int | str | Fraction]) -> LocalSystem:
        """Rank-2 system with transition [[1, g_e], [0, 1]] on each edge."""
        values = vec(gvals)
        if len(values) != g.m:
            raise ValueError("%d cocycle values for %d edges" % (len(values), g.m))
        one, zero = Fraction(1), Fraction(0)
        return cls._with_inverses(
            g, 2, tuple(Mat(2, 2, (one, ge, zero, one)) for ge in values),
            tuple(Mat(2, 2, (one, -ge, zero, one)) for ge in values))

    def transition_inverse(self, e: int) -> Mat:
        return self._inverses[e]  # type: ignore[attr-defined]

    def extend_by_trivial(self, c: EdgeCochain) -> LocalSystem:
        """Rank r+1 system with block transitions [[U_e, c_e], [0, 1]].

        The first r coordinates embed this system; the last coordinate
        projects onto the trivial rank-1 system.  The inverse of each block
        is [[U_e^-1, -U_e^-1 c_e], [0, 1]].
        """
        if c.system != self:
            raise ValueError("cochain is valued in a different system")
        bottom, one = Mat.zeros(1, self.rank), Mat.identity(1)
        transitions, inverses = [], []
        for e, u in enumerate(self.transitions):
            column = Mat.column(c.values[e])
            u_inv = self.transition_inverse(e)
            transitions.append(Mat.block([[u, column], [bottom, one]]))
            inverses.append(Mat.block([[u_inv, -(u_inv @ column)], [bottom, one]]))
        return LocalSystem._with_inverses(self.graph, self.rank + 1,
                                          tuple(transitions), tuple(inverses))

    def reorient_edge(self, e: int) -> LocalSystem:
        """Equivalent system with edge e's canonical orientation swapped;
        the stored transition becomes its inverse."""
        inverses = self._inverses  # type: ignore[attr-defined]
        transitions = self.transitions[:e] + (inverses[e],) + self.transitions[e + 1:]
        inverses = inverses[:e] + (self.transitions[e],) + inverses[e + 1:]
        return LocalSystem._with_inverses(self.graph.reorient_edge(e), self.rank,
                                          transitions, inverses)


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

    @classmethod
    def from_values(cls, system: LocalSystem,
                    values: Iterable[Sequence[int | str | Fraction]]) -> EdgeCochain:
        return cls(system, tuple(vec(v) for v in values))
