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
from math import gcd, lcm
from typing import Sequence

from .graph import DualGraph
from .linalg import DimensionMismatch, Mat, Vector, rref, vec


def _inverse(m: Mat) -> Mat:
    """The inverse of a square matrix; raises ValueError if it is singular.

    An upper-triangular m, which is every transition the constructors
    build, is inverted by back substitution from the last row up: row i of
    the inverse is (e_i - sum of m[i, k] row_k over k > i) / m[i, i], over
    the nonzeros of m.  With row i of m stored as a / d and each row_k as
    an integer row over its denominator, that is an integer row over
    a_i times the lcm of those denominators, divided by its gcd.  Any other
    m is reduced as [m | I].
    """
    n = m.rows
    if any(pairs and pairs[0][0] < i for i, pairs in enumerate(m.nums)):
        reduced, pivots = rref(Mat(n, 2 * n, tuple(
            pairs + ((n + i, d),) for i, (pairs, d) in enumerate(zip(m.nums, m.dens))),
            m.dens))
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        # row i of reduced is e_i, numerator = its denominator, then the
        # inverse row, so the right half alone is still in lowest terms
        return Mat(n, n, tuple([tuple([(j - n, x) for j, x in pairs if j >= n])
                                for pairs in reduced.nums]), reduced.dens)
    rows: list[dict[int, int]] = [{}] * n
    dens = [1] * n
    for i in reversed(range(n)):
        pairs, d = m.nums[i], m.dens[i]
        if not pairs or pairs[0][0] != i:
            raise ValueError("matrix is singular")
        e = lcm(*[dens[k] for k, _ in pairs[1:]])
        row = {i: d * e}
        for k, a in pairs[1:]:
            c = a * (e // dens[k])
            for j, y in rows[k].items():
                row[j] = row[j] - c * y if j in row else -c * y
        q = pairs[0][1] * e
        g = gcd(q, *row.values()) if q > 0 else -gcd(q, *row.values())
        rows[i], dens[i] = {j: x // g for j, x in row.items() if x}, q // g
    return Mat.from_integer_rows(rows, dens, n)


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
                           tuple([_inverse(u) for u in self.transitions]))

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
        # each [[1, g_e], [0, 1]] by its integer rows, the first over g_e's
        # denominator q: (q, p) / q for g_e = p / q
        return cls(g, 2, tuple([
            Mat(2, 2, (((0, ge.denominator), (1, ge.numerator)) if ge else ((0, 1),),
                       ((1, 1),)), (ge.denominator, 1)) for ge in values]))

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

        def extended(u: Mat, v: Vector) -> Mat:
            # row i of u is a / d and v_i is p / q: the new row is over lcm(d, q)
            rows, dens = [], []
            for pairs, d, x in zip(u.nums, u.dens, v):
                e = lcm(d, x.denominator)
                row = {j: n * (e // d) for j, n in pairs}
                row[r] = x.numerator * (e // x.denominator)
                rows.append(row)
                dens.append(e)
            return Mat.from_integer_rows(rows + [{r: 1}], dens + [1], r + 1)

        return LocalSystem(self.graph, r + 1, tuple([
            extended(u, v) for u, v in zip(self.transitions, c.values)]))


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
