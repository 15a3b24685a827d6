"""Exact linear algebra over the rationals.

Every entry is a ``fractions.Fraction``, so nothing ever rounds: results are
the mathematically exact values.  Matrices are immutable, stored row-major
as one flat tuple.  The matrices this package builds (coboundary, residue
and system matrices) have only a few nonzero entries per row, so products
skip zero entries instead of running a dense triple loop.

All elimination runs through one routine, ``_eliminate``: a forward
elimination over sparse rows of Python ints, each kept primitive (the gcd
of its entries is 1).  It has one row operation, ``_combine``, which
clears a column with p row - a prow and divides out the content, and it
touches only the rows below each pivot and only where either row is
nonzero.  ``rank`` and ``det`` read the pivots of that pass and nothing
more.  ``rref`` adds a back substitution with the same row operation, from
the last pivot row upward, and builds canonical Fractions only at its
output; ``nullspace``, ``colspace`` and ``Subspace`` are views of the
reduced rows, and ``Subspace.contains`` is a rank test.

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
        return cls(rows, cols, (_ZERO,) * (rows * cols))

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
    """
    cols = m.cols
    work: list[dict[int, int]] = []
    num = den = 1
    for i in range(m.rows):
        nonzero = [(j, x) for j, x in enumerate(m.entries[i * cols:(i + 1) * cols]) if x]
        d = lcm(*(x.denominator for _, x in nonzero))
        row = {j: x.numerator * (d // x.denominator) for j, x in nonzero}
        g = gcd(*row.values())
        num, den = num * g, den * d
        work.append({j: x // g for j, x in row.items()})
    n = len(work)
    pivots: list[int] = []
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
            num = -num
        prow = work[r]
        p = prow[c]
        num *= p
        for i in hits[1:]:
            work[i], h = _combine(work[i], prow, c)
            num, den = num * h, den * p
        g = gcd(num, den)
        num, den = num // g, den // g
        pivots.append(c)
    return work[:len(pivots)], pivots, Fraction(num, den)


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
    entries = [_ZERO] * (m.rows * m.cols)
    for i, (row, c) in enumerate(zip(rows, pivots)):
        p = row[c]
        for j, x in row.items():
            entries[i * m.cols + j] = Fraction(x, p)
    return Mat(m.rows, m.cols, tuple(entries)), tuple(pivots)


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
        """Membership: v appended to the basis leaves the rank at dim."""
        w = Mat.column(v)
        if w.rows != self.ambient_dim:
            raise DimensionMismatch("vector of length %d in ambient dimension %d"
                                    % (w.rows, self.ambient_dim))
        return rank(Mat.block([[self.basis, w]])) == self.dim

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
