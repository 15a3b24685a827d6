"""Exact linear algebra over the rationals.

Every entry is a ``fractions.Fraction``, so nothing ever rounds: results are
the mathematically exact values.  Matrices are immutable, stored row-major
as one flat tuple.  The matrices this package builds (coboundary, residue
and system matrices) have only a few nonzero entries per row, so products
skip zero entries instead of running a dense triple loop.

All elimination runs through one routine, ``_eliminate``: a fraction-free
forward elimination over sparse rows of Python ints (Bareiss 1968), which
updates only the rows below each pivot and only where either row is
nonzero.  Each row's denominators are cleared once and every interior
division is exact.  ``rank`` and ``det`` read the pivots of that pass and
nothing more.  ``rref`` adds a back substitution, from the last pivot row
upward, and builds canonical Fractions only at its output; ``nullspace``,
``colspace`` and ``Subspace`` are views of the reduced rows.

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

Rational = Fraction
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
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


def format_rational(q: Fraction) -> str:
    """Render as 'n' when integral, else 'p/q' in lowest terms."""
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def vec(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(rat(v) for v in values)


@dataclass(frozen=True)
class Mat:
    """Immutable dense matrix of Fractions, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count %d does not match %dx%d"
                             % (len(self.entries), self.rows, self.cols))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | str | Fraction]],
                  cols: int | None = None) -> Mat:
        """Build from an iterable of rows; `cols` disambiguates zero rows."""
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        if cols is not None and rows and ncols != cols:
            raise ValueError("rows have %d columns, expected %d" % (ncols, cols))
        return cls(len(rows), ncols, tuple(rat(x) for r in rows for x in r))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Mat:
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> Mat:
        return cls(n, n, tuple(Fraction(1 if i == j else 0)
                               for i in range(n) for j in range(n)))

    @classmethod
    def column(cls, values: Iterable[int | str | Fraction]) -> Mat:
        v = vec(values)
        return cls(len(v), 1, v)

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
        entries: list[Fraction] = []
        for i, row in enumerate(grid):
            for r in range(row_heights[i]):
                for b in row:
                    entries.extend(b.row(r))
        return cls(sum(row_heights), sum(col_widths), tuple(entries))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column_vector(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return self.entries[j::self.cols]

    def transpose(self) -> Mat:
        c = self.cols
        return Mat(c, self.rows, tuple(x for j in range(c) for x in self.entries[j::c]))

    def __add__(self, other: Mat) -> Mat:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add %dx%d to %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        return Mat(self.rows, self.cols,
                   tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: Mat) -> Mat:
        return self + (-other)

    def __neg__(self) -> Mat:
        return Mat(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: int | Fraction) -> Mat:
        c = rat(c)
        return Mat(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise DimensionMismatch("multiply %dx%d by %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        p = other.cols
        # the nonzero (column, entry) pairs of each row of `other`, found once
        other_rows = [[(j, y) for j, y in enumerate(other.row(k)) if y]
                      for k in range(other.rows)]
        out: list[Fraction] = []
        for i in range(self.rows):
            acc = [_ZERO] * p
            for x, nonzero in zip(self.row(i), other_rows):
                if x:
                    for j, y in nonzero:
                        acc[j] += x * y
            out.extend(acc)
        return Mat(self.rows, p, tuple(out))

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch("apply %dx%d to vector of length %d"
                                    % (self.rows, self.cols, len(v)))
        return tuple(sum((x * y for x, y in zip(self.row(i), v) if x and y), _ZERO)
                     for i in range(self.rows))


def _eliminate(m: Mat) -> tuple[list[dict[int, int]], list[int], Fraction]:
    """Fraction-free forward elimination of m over the integers.

    Returns the row-echelon rows, the pivot columns, and sign x last pivot /
    row scales, which is det(m) when m is square of full rank.  Each row is
    stored sparsely, as its nonzero {column: entry} pairs.  Row i <
    len(pivots) holds pivot i in column pivots[i] and is zero in every
    earlier column; the remaining rows are empty, i.e. zero.

    Each row's denominators are cleared once, by their lcm.  After that
    every stored entry is a minor of the cleared matrix scaled to some
    earlier pivot (Bareiss), so every division below is exact.  Only the
    rows below the pivot row are updated, over the union of the two rows'
    nonzeros.  A row with a zero in the pivot column is skipped: level[i]
    is the pivot its stored entries are scaled to, and a row catches up on
    the pivots it missed in the one update that next reaches it.
    """
    cols = m.cols
    work: list[dict[int, int]] = []
    scale = 1
    for i in range(m.rows):
        nonzero = [(j, x) for j, x in enumerate(m.entries[i * cols:(i + 1) * cols]) if x]
        d = lcm(*(x.denominator for _, x in nonzero))
        scale *= d
        work.append({j: x.numerator * (d // x.denominator) for j, x in nonzero})
    n = len(work)
    level = [1] * n
    pivots: list[int] = []
    sign = prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == n:
            break
        hits = [i for i in range(r, n) if c in work[i]]
        if not hits:
            continue
        found = hits[0]
        if found != r:
            work[r], work[found] = work[found], work[r]
            level[r], level[found] = level[found], level[r]
            sign = -sign
        prow = work[r]
        if level[r] != prev:
            lv = level[r]
            prow = work[r] = {j: x * prev // lv for j, x in prow.items()}
        p = prow[c]
        for i in hits[1:]:
            row, lv = work[i], level[i]
            if lv == prev:
                px, ay, d = p, row[c], prev
            else:
                px, ay, d = p * prev, row[c] * prev // lv * lv, lv * prev
            acc = {j: px * x for j, x in row.items()}
            for j, y in prow.items():
                acc[j] = acc.get(j, 0) - ay * y
            work[i] = {j: v // d for j, v in acc.items() if v}
            level[i] = p
        level[r] = prev = p
        pivots.append(c)
    return work, pivots, Fraction(sign * prev, scale)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns.

    Forward elimination, then back substitution from the last pivot row
    upward: each later pivot column is cleared with p_j row - a row_j,
    then the row is divided by the gcd of its entries, signed so that its
    pivot is positive.  Fractions are built only at the output.  The
    result is the unique RREF: pivots are 1, pivot columns are cleared
    above and below, pivot columns strictly increase down the rows.
    """
    work, pivots, _ = _eliminate(m)
    pivot_row = {c: i for i, c in enumerate(pivots)}
    reduced: list[dict[int, int]] = [{} for _ in pivots]
    for i in range(len(pivots) - 1, -1, -1):
        row = work[i]
        for c in [c for c in row if c != pivots[i] and c in pivot_row]:
            below = reduced[pivot_row[c]]
            a, p = row[c], below[c]
            g = gcd(a, p)
            a, p = a // g, p // g
            acc = {j: p * x for j, x in row.items()}
            for j, y in below.items():
                acc[j] = acc.get(j, 0) - a * y
            row = {j: v for j, v in acc.items() if v}
        g = gcd(*row.values())
        if row[pivots[i]] < 0:
            g = -g
        reduced[i] = {j: x // g for j, x in row.items()}
    entries = [_ZERO] * (m.rows * m.cols)
    for i, (row, c) in enumerate(zip(reduced, pivots)):
        p = row[c]
        for j, x in row.items():
            entries[i * m.cols + j] = Fraction(x, p)
    return Mat(m.rows, m.cols, tuple(entries)), tuple(pivots)


def rank(m: Mat) -> int:
    """The number of pivots of the forward elimination."""
    return len(_eliminate(m)[1])


def det(m: Mat) -> Fraction:
    """Exact determinant: the last pivot of the forward elimination over the
    row scales, with the sign of its row swaps, or 0 when m is
    rank-deficient."""
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
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("vector of length %d in ambient dimension %d"
                                        % (len(r), ambient_dim))
        return _row_span(Mat(len(rows), ambient_dim, tuple(x for r in rows for x in r)))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def vectors(self) -> tuple[Vector, ...]:
        return tuple(self.basis.column_vector(j) for j in range(self.dim))

    def contains(self, v: Sequence[int | str | Fraction]) -> bool:
        """Membership test by reducing v against the canonical basis."""
        w = list(vec(v))
        if len(w) != self.ambient_dim:
            raise DimensionMismatch("vector of length %d in ambient dimension %d"
                                    % (len(w), self.ambient_dim))
        for j in range(self.dim):
            col = self.basis.column_vector(j)
            p = next(i for i, x in enumerate(col) if x != 0)  # pivot entry is 1
            if w[p] != 0:
                f = w[p]
                w = [a - f * b for a, b in zip(w, col)]
        return all(a == 0 for a in w)

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
        x_parts = Mat(self.dim, coeffs.cols, coeffs.entries[:self.dim * coeffs.cols])
        return colspace(self.basis @ x_parts)


def _row_span(m: Mat) -> Subspace:
    """Canonical Subspace of Q^cols spanned by the rows of m."""
    if m.rows == 0:
        return Subspace.zero(m.cols)
    reduced, pivots = rref(m)
    k = len(pivots)
    return Subspace(m.cols, Mat(k, m.cols, reduced.entries[:k * m.cols]).transpose())


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of {x : m x = 0}."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    entries: list[Fraction] = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced.entries[i * m.cols + f]
        entries.extend(v)
    return _row_span(Mat(len(free), m.cols, tuple(entries)))


def colspace(m: Mat) -> Subspace:
    """Canonical basis of the column span."""
    return _row_span(m.transpose())
