"""Local coefficient systems on a dual graph.

A rank-r system assigns each edge an invertible r x r transition matrix
expressing the target-vertex frame in the source-vertex frame along the
canonical orientation.  The transition along the reversed edge is the
inverse; each inverse is derived once, when the system is built, so the
one matrix per edge is the single source of truth.  The ``trivial``,
``unipotent_rank2`` and ``extend_by_trivial`` constructors know their
inverses in closed form and hand them to the system, so only a system
built directly as ``LocalSystem(...)`` inverts its transitions, each by
``_inverse``, the RREF of [U | I].

Edge cochains hold one r-vector per edge, pinned to the source-vertex
frame.  The value seen from the target side is minus the inverse-transported
vector.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .graph import DualGraph
from .linalg import DimensionMismatch, Mat, Vector, _lowest, _mat, _stack, rref, vec


def _inverse(m: Mat) -> Mat:
    """The inverse of a square matrix, the right half of the RREF of
    [m | I]; raises ValueError if m is singular."""
    n = m.rows
    reduced, pivots = rref(_mat(n, 2 * n, tuple(
        pairs + ((n + i, d),) for i, (pairs, d) in enumerate(zip(m.nums, m.dens))), m.dens))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    # row i of reduced is e_i, numerator = its denominator, then the
    # inverse row, so the right half alone is still in lowest terms
    return _mat(n, n, tuple([tuple([(j - n, x) for j, x in pairs if j >= n])
                             for pairs in reduced.nums]), reduced.dens)


@dataclass(frozen=True)
class LocalSystem:
    """Per-edge invertible transitions over a dual graph.

    ``inverses``, when given, are the transitions' inverses and are
    trusted: they are not fields, so they take no part in equality, hash
    or repr.  A wrong one makes the report's R.delta = A check fail.
    """

    graph: DualGraph
    rank: int
    transitions: tuple[Mat, ...]
    inverses: InitVar[Sequence[Mat] | None] = None

    def __post_init__(self, inverses: Sequence[Mat] | None) -> None:
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
        object.__setattr__(self, "_inverses", tuple(
            [_inverse(u) for u in self.transitions] if inverses is None else inverses))

    @classmethod
    def trivial(cls, g: DualGraph, r: int) -> LocalSystem:
        """All transitions identity."""
        one = (Mat.identity(r),) * g.m
        return cls(g, r, one, one)

    @classmethod
    def unipotent_rank2(cls, g: DualGraph,
                        gvals: Sequence[int | str | Fraction]) -> LocalSystem:
        """Rank-2 system with transition [[1, g_e], [0, 1]] on each edge.

        Each [[1, g_e], [0, 1]] is stored by its integer rows, the first
        over g_e's denominator q: (q, p) / q for g_e = p / q.  Its inverse
        is [[1, -g_e], [0, 1]], stored the same way.
        """
        values = vec(gvals)
        if len(values) != g.m:
            raise ValueError("%d cocycle values for %d edges" % (len(values), g.m))
        second = ((1, 1),)
        return cls(g, 2, tuple([
            _mat(2, 2, (((0, ge.denominator), (1, ge.numerator)) if ge else ((0, 1),),
                        second), (ge.denominator, 1)) for ge in values]), tuple([
            _mat(2, 2, (((0, ge.denominator), (1, -ge.numerator)) if ge else ((0, 1),),
                        second), (ge.denominator, 1)) for ge in values]))

    def transition_inverse(self, e: int) -> Mat:
        return self._inverses[e]  # type: ignore[attr-defined]

    def extend_by_trivial(self, c: EdgeCochain) -> LocalSystem:
        """Rank r+1 system with block transitions [[U_e, c_e], [0, 1]].

        The first r coordinates embed this system; the last coordinate
        projects onto the trivial rank-1 system.
        """
        if c.system != self:
            raise ValueError("cochain is valued in a different system")
        r = self.rank
        last = (((r, 1),), 1)

        def extended(u: Mat, v: Vector) -> Mat:
            # row i of u is a / d and v_i is p / q: the new row is over lcm(d, q)
            rows = []
            for pairs, d, x in zip(u.nums, u.dens, v):
                e = lcm(d, x.denominator)
                row = [(j, n * (e // d)) for j, n in pairs]
                if x:
                    row.append((r, x.numerator * (e // x.denominator)))
                rows.append(_lowest(row, e))
            return _stack(r + 1, rows + [last])

        def extended_inverse(w: Mat, v: Vector) -> Mat:
            # [[W, -W v], [0, 1]] for W the inverse of u: with v = y / q over
            # q the lcm of its denominators, row i of W, a / d, gives the
            # integer row (q a, -a . y) over d q
            q = lcm(*[x.denominator for x in v])
            y = [x.numerator * (q // x.denominator) for x in v]
            rows = []
            for pairs, d in zip(w.nums, w.dens):
                row = [(j, n * q) for j, n in pairs] if q != 1 else list(pairs)
                s = -sum([n * y[j] for j, n in pairs])
                if s:
                    row.append((r, s))
                rows.append(_lowest(row, d * q))
            return _stack(r + 1, rows + [last])

        return LocalSystem(self.graph, r + 1, tuple([
            extended(u, v) for u, v in zip(self.transitions, c.values)]), tuple([
            extended_inverse(self.transition_inverse(e), v)
            for e, v in enumerate(c.values)]))


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
