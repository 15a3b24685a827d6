"""Exact linear algebra over the rationals.

Every entry is a ``fractions.Fraction``, so nothing ever rounds: results are
the mathematically exact values.  Matrices are immutable and store only
their nonzero entries, row by row.  The matrices this package builds
(coboundary, residue and system matrices) have only a few nonzero entries
per row, so products, transposes and eliminations cost what the nonzeros
cost.  No dense view exists: ``Mat.nonzero`` is the one way to read a
matrix, and documents render from those stored pairs.

All elimination runs through one routine, ``_eliminate``: a forward
elimination over sparse rows of Python ints, each kept primitive (the gcd
of its entries is 1).  It has one row operation, ``_combine``, which
clears a column with p row - a prow and divides out the content, and it
touches only the rows below each pivot and only where either row is
nonzero.  ``rank`` and ``det`` read the pivots of that pass and nothing
more.  ``rref`` adds a back substitution with the same row operation, from
the last pivot row upward, and builds canonical Fractions only at its
output; ``nullspace``, ``colspace`` and ``Subspace`` are views of the
reduced rows.

Subspaces are kept in a canonical reduced column echelon form (pivots 1,
pivot rows cleared, pivot rows strictly increasing left to right), which
makes subspace equality plain value equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class DimensionMismatch(Exception):
    """Operands have incompatible shapes or ambient dimensions.

    Inputs are validated before any matrix is built, so this is an internal
    error, never bad input; it is deliberately not a ValueError.
    """


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce an exact value to Fraction; floats are rejected outright."""
    if isinstance(x, float):
        raise TypeError("refusing float %r: use an int or a 'p/q' string" % (x,))
    return Fraction(x)


def parse_rational(text: str) -> Fraction:
    """Parse an integer or 'p/q' literal in ASCII digits.

    Decimal literals are rejected so that no inexact value can sneak in
    through an input file, and so are the digit separators ('1_000') that
    Fraction itself would accept.
    """
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError("bad rational literal %r: decimals are not accepted, "
                         "write an integer or p/q" % (text,))
    if not _RATIONAL_LITERAL.fullmatch(text):
        raise ValueError("bad rational literal %r: write an integer or p/q" % (text,))
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError("bad rational literal %r: %s" % (text, exc)) from None


def vec(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(rat(v) for v in values)


@dataclass(frozen=True)
class Mat:
    """Immutable sparse matrix of Fractions.

    Row i is stored as the tuple of its nonzero (column, entry) pairs, in
    strictly increasing column order; no zero is ever stored, so two equal
    matrices have equal rows and comparing them compares nonzeros only.
    """

    rows: int
    cols: int
    nonzero: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __post_init__(self) -> None:
        if self.cols < 0 or len(self.nonzero) != self.rows:
            raise ValueError("%d stored rows do not make a %dx%d matrix"
                             % (len(self.nonzero), self.rows, self.cols))
        for i, pairs in enumerate(self.nonzero):
            last = -1
            for j, x in pairs:
                if not (last < j < self.cols and x):
                    raise ValueError("row %d: entry at column %r is zero, out of "
                                     "order or out of range" % (i, j))
                last = j

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | str | Fraction]],
                  cols: int | None = None) -> Mat:
        """Build from dense rows; `cols` disambiguates zero rows."""
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        if cols is not None and rows and ncols != cols:
            raise ValueError("rows have %d columns, expected %d" % (ncols, cols))
        return cls(len(rows), ncols, tuple(
            tuple((j, x) for j, x in enumerate(map(rat, r)) if x) for r in rows))

    @classmethod
    def from_dicts(cls, rows: Sequence[dict[int, Fraction]], cols: int) -> Mat:
        """Build from one {column: Fraction} dict per row; zeros are dropped."""
        return cls(len(rows), cols, tuple(tuple((j, row[j]) for j in sorted(row) if row[j])
                                          for row in rows))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Mat:
        return cls(rows, cols, ((),) * rows)

    @classmethod
    def identity(cls, n: int) -> Mat:
        return cls(n, n, tuple(((i, _ONE),) for i in range(n)))

    @classmethod
    def block(cls, grid: Sequence[Sequence[Mat]]) -> Mat:
        """Assemble from a conformable grid of blocks."""
        if not grid or not grid[0]:
            raise ValueError("empty block grid")
        row_heights = [row[0].rows for row in grid]
        col_widths = [b.cols for b in grid[0]]
        for i, row in enumerate(grid):
            if len(row) != len(col_widths):
                raise DimensionMismatch("ragged block grid")
            for j, b in enumerate(row):
                if b.rows != row_heights[i] or b.cols != col_widths[j]:
                    raise DimensionMismatch("block (%d,%d) has shape %dx%d"
                                            % (i, j, b.rows, b.cols))
        offsets = [sum(col_widths[:j]) for j in range(len(col_widths))]
        out = [tuple((at + j, x) for b, at in zip(row, offsets) for j, x in b.nonzero[r])
               for i, row in enumerate(grid) for r in range(row_heights[i])]
        return cls(sum(row_heights), sum(col_widths), tuple(out))

    def transpose(self) -> Mat:
        out: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.cols)]
        for i, pairs in enumerate(self.nonzero):
            for j, x in pairs:
                out[j].append((i, x))
        return Mat(self.cols, self.rows, tuple(map(tuple, out)))

    def __matmul__(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise DimensionMismatch("multiply %dx%d by %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        out: list[dict[int, Fraction]] = []
        for pairs in self.nonzero:
            acc = {}
            for k, x in pairs:
                for j, y in other.nonzero[k]:
                    acc[j] = acc[j] + x * y if j in acc else x * y
            out.append(acc)
        return Mat.from_dicts(out, other.cols)


def _combine(row: dict[int, int], prow: dict[int, int],
             c: int) -> tuple[dict[int, int], int]:
    """The primitive part of p row - a prow, with p = prow[c] and a = row[c].

    The result is zero in column c, the gcd of its entries is 1, and it is
    empty when the two rows are proportional.  The content h it was divided
    by comes back with it, for ``det``.
    """
    p, a = prow[c], row[c]
    acc = {j: p * x for j, x in row.items()}
    for j, y in prow.items():
        acc[j] = acc.get(j, 0) - a * y
    h = gcd(*acc.values())
    return {j: v // h for j, v in acc.items() if v}, h


def _eliminate(m: Mat) -> tuple[list[dict[int, int]], list[int], Fraction]:
    """Forward elimination of m over the integers, in primitive rows.

    Returns the echelon rows, one per pivot, the pivot columns, and a value
    that is det(m) when m is square of full rank.  Row i is stored sparsely,
    as its nonzero {column: entry} pairs; it holds pivot i in column
    pivots[i], is zero in every earlier column, and is primitive: the gcd of
    its entries is 1.

    Each input row is made primitive once, scaled by the lcm d of its
    denominators and divided by the gcd g of the result.  At each pivot,
    every lower row with a nonzero in the pivot column is replaced by its
    ``_combine`` with the pivot row, over the union of the two rows'
    nonzeros.  Up to sign, a primitive row is the one integer vector in the
    span of the rows used so far that vanishes on the earlier pivot
    columns, so its entries stay bounded by minors of the cleared matrix.
    The determinant value is the product of the pivots, of g / d per row,
    of h / p per update and of the sign of each row swap; it is reduced to
    lowest terms at each pivot, which keeps it about the size of a minor.

    No zero cell is visited: a row waits under the column of its first
    nonzero, and the pivot is the waiting row first in the row order.
    """
    work: list[dict[int, int]] = []
    waiting: dict[int, list[int]] = {}
    num = den = 1
    for i, pairs in enumerate(m.nonzero):
        d = lcm(*(x.denominator for _, x in pairs))
        row = {j: x.numerator * (d // x.denominator) for j, x in pairs}
        g = gcd(*row.values())
        num, den = num * g, den * d
        work.append({j: x // g for j, x in row.items()})
        if pairs:
            waiting.setdefault(pairs[0][0], []).append(i)
    order = list(range(len(work)))  # the row at each position
    place = list(range(len(work)))  # the position of each row
    pivots: list[int] = []
    for c in range(m.cols):
        hits = waiting.pop(c, None)
        if hits is None:
            continue
        r = len(pivots)
        found = min(hits, key=place.__getitem__)
        if place[found] != r:
            moved = order[r]
            order[r], order[place[found]] = found, moved
            place[found], place[moved] = r, place[found]
            num = -num
        prow = work[found]
        p = prow[c]
        num *= p
        for i in hits:
            if i != found:
                work[i], h = _combine(work[i], prow, c)
                num, den = num * h, den * p
                if work[i]:
                    waiting.setdefault(min(work[i]), []).append(i)
        g = gcd(num, den)
        num, den = num // g, den // g
        pivots.append(c)
    return [work[i] for i in order[:len(pivots)]], pivots, Fraction(num, den)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns.

    Forward elimination, then back substitution from the last pivot row
    upward: each later pivot column in the row is cleared by ``_combine``
    with that pivot's row, already reduced.  Fractions are built only at
    the output, each entry over its row's pivot.  The result is the unique
    RREF: pivots are 1, pivot columns are cleared above and below, pivot
    columns strictly increase down the rows.
    """
    rows, pivots, _ = _eliminate(m)
    pivot_row = {c: i for i, c in enumerate(pivots)}
    for i in range(len(pivots) - 1, -1, -1):
        for c in [c for c in rows[i] if c != pivots[i] and c in pivot_row]:
            rows[i], _ = _combine(rows[i], rows[pivot_row[c]], c)
    out = [tuple((j, Fraction(row[j], row[c])) for j in sorted(row))
           for row, c in zip(rows, pivots)]
    out += [()] * (m.rows - len(out))
    return Mat(m.rows, m.cols, tuple(out)), tuple(pivots)


def rank(m: Mat) -> int:
    """The number of pivots of the forward elimination."""
    return len(_eliminate(m)[1])


def det(m: Mat) -> Fraction:
    """Exact determinant: the value the forward elimination collects from
    its pivots, row scalings and swaps, or 0 when m is rank-deficient."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of %dx%d matrix" % (m.rows, m.cols))
    _, pivots, value = _eliminate(m)
    return value if len(pivots) == m.rows else _ZERO


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient_dim with a canonical basis.

    The basis matrix has one column per dimension, in reduced column
    echelon form, so two Subspace values are equal exactly when they are
    the same subspace.
    """

    ambient_dim: int
    basis: Mat

    def __post_init__(self) -> None:
        if self.basis.rows != self.ambient_dim:
            raise DimensionMismatch("basis has %d rows in ambient dimension %d"
                                    % (self.basis.rows, self.ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, Mat.zeros(ambient_dim, 0))

    @classmethod
    def from_vectors(cls, ambient_dim: int,
                     vectors: Iterable[Sequence[int | str | Fraction]]) -> Subspace:
        """Span of the given vectors, canonicalized."""
        rows = [list(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("vector of length %d in ambient dimension %d"
                                        % (len(r), ambient_dim))
        return _row_span(Mat.from_rows(rows, cols=ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def intersect(self, other: Subspace) -> Subspace:
        """Intersection, via the kernel of the concatenated bases.

        A coefficient vector (x, y) with A x + B y = 0 means A x = -B y lies
        in both spans; the A x parts of a kernel basis span the intersection.
        """
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions %d and %d"
                                    % (self.ambient_dim, other.ambient_dim))
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = Mat.block([[self.basis, other.basis]])
        coeffs = nullspace(stacked).basis
        # the x parts are the first self.dim rows of the coefficient basis
        x_parts = Mat(self.dim, coeffs.cols, coeffs.nonzero[:self.dim])
        return colspace(self.basis @ x_parts)


def _row_span(m: Mat) -> Subspace:
    """Canonical Subspace of Q^cols spanned by the rows of m."""
    if m.rows == 0:
        return Subspace.zero(m.cols)
    reduced, pivots = rref(m)
    k = len(pivots)
    return Subspace(m.cols, Mat(k, m.cols, reduced.nonzero[:k]).transpose())


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of {x : m x = 0}: free column f gives 1 at f and
    minus each reduced row's entry in column f at that row's pivot."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    vectors = {f: {f: _ONE} for f in range(m.cols) if f not in pivot_set}
    for p, pairs in zip(pivots, reduced.nonzero):
        for f, x in pairs[1:]:
            vectors[f][p] = -x
    return _row_span(Mat.from_dicts(list(vectors.values()), m.cols))


def colspace(m: Mat) -> Subspace:
    """Canonical basis of the column span."""
    return _row_span(m.transpose())
