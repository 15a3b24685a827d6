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

An extension layer is one flat edge-major tuple of m r values, r per edge,
as an ``extend`` line and a JSON ``"extension"`` object hold it: a vector
of ``cohomology``'s edge space in its coordinates.  Edge e's block is
pinned to the source-vertex frame; the value seen from the target side is
minus the inverse-transported vector.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm

from .graph import DualGraph
from .linalg import DimensionMismatch, Mat, Value, _lowest, _mat, _reduced, _stack, vec


def _inverse(m: Mat) -> Mat:
    """The inverse of a square matrix, the right half of the RREF of
    [m | I]; raises ValueError if m is singular.  Row i goes in as d_i
    times itself, m's stored numerators and then d_i at column n + i."""
    n = m.rows
    reduced, pivots = _reduced([dict(pairs + ((n + i, d),)) for i, (pairs, d)
                                in enumerate(zip(m.nums, m.dens))], 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    # row i of reduced is e_i, numerator = its denominator, then the
    # inverse row, so the right half alone is still in lowest terms
    return _stack(n, [(tuple([(j - n, x) for j, x in pairs if j >= n]), q)
                      for pairs, q in reduced])


class LocalSystem(Value):
    """Per-edge invertible transitions over a dual graph.

    ``inverses``, when given, are the transitions' inverses and are
    trusted: they are not fields, so they take no part in equality, hash
    or repr.  A wrong one makes the report's R.delta = A check fail.
    """

    _fields = ("graph", "rank", "transitions")

    def __init__(self, graph: DualGraph, rank: int, transitions: Sequence[Mat],
                 inverses: Sequence[Mat] | None = None) -> None:
        super().__init__(graph, rank, transitions)
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
        is [[1, -g_e], [0, 1]], stored the same way.  Every edge with
        g_e = 0 shares one identity, its own inverse.
        """
        values = vec(gvals)
        if len(values) != g.m:
            raise ValueError("%d cocycle values for %d edges" % (len(values), g.m))
        second = ((1, 1),)
        flat = _mat(2, 2, (((0, 1),), second), (1, 1))
        transitions, inverses = [], []
        for ge in values:
            p, q = ge.numerator, ge.denominator
            if p:
                transitions.append(_mat(2, 2, (((0, q), (1, p)), second), (q, 1)))
                inverses.append(_mat(2, 2, (((0, q), (1, -p)), second), (q, 1)))
            else:
                transitions.append(flat)
                inverses.append(flat)
        return cls(g, 2, tuple(transitions), tuple(inverses))

    def transition_inverse(self, e: int) -> Mat:
        return self._inverses[e]  # type: ignore[attr-defined]

    def extend_by_trivial(self, values: Iterable[int | str | Fraction]) -> LocalSystem:
        """Rank r+1 system with block transitions [[U_e, c_e], [0, 1]].

        ``values`` is the layer, r values per edge, edge-major, m r in all:
        c_e = values[e r:(e + 1) r].  Any other count is refused with
        ValueError.  The first r coordinates embed this system; the last
        coordinate projects onto the trivial rank-1 system.

        U_e is bordered by c_e, and its inverse W by -W c_e: with c_e = y / q
        over q the lcm of its denominators, row i of W, a / d, gives entry i
        of -W c_e as (-a . y, d q).
        """
        values, r = vec(values), self.rank
        if len(values) != self.graph.m * r:
            raise ValueError("%d extension values for %d edges at rank %d, want %d"
                             % (len(values), self.graph.m, r, self.graph.m * r))
        transitions, inverses = [], []
        for e, u in enumerate(self.transitions):
            v, w = values[e * r:(e + 1) * r], self.transition_inverse(e)
            q = lcm(*[x.denominator for x in v])
            y = [x.numerator * (q // x.denominator) for x in v]
            transitions.append(_bordered(u, [(x.numerator, x.denominator) for x in v]))
            inverses.append(_bordered(w, [(-sum([n * y[j] for j, n in pairs]), d * q)
                                          for pairs, d in zip(w.nums, w.dens)]))
        return LocalSystem(self.graph, r + 1, tuple(transitions), tuple(inverses))


def _bordered(m: Mat, column: Sequence[tuple[int, int]]) -> Mat:
    """[[m, c], [0, 1]] for the column c whose entry i is (p, q), meaning
    p / q: row i of m, a / d, becomes the row (a e / d, p e / q) over
    e = lcm(d, q), in lowest terms."""
    r, rows = m.rows, []
    for pairs, d, (p, q) in zip(m.nums, m.dens, column):
        e = lcm(d, q)
        row = [(j, n * (e // d)) for j, n in pairs]
        if p:
            row.append((r, p * (e // q)))
        rows.append(_lowest(row, e))
    return _stack(r + 1, rows + [(((r, 1),), 1)])

