"""Exact linear algebra over the rationals.

Every entry is a ``fractions.Fraction``, so nothing ever rounds: results are
the mathematically exact values.  Matrices are immutable and store only
their nonzero entries, row by row.  The matrices this package builds
(coboundary, residue and system matrices) have only a few nonzero entries
per row, so products, transposes and eliminations cost what the nonzeros
cost.  No dense view exists: ``Mat.nonzero`` is the one way to read a
matrix, and documents render from those stored pairs.

Inside the routines the working form is integer rows: a routine reads the
Fractions of its operands once, works on sparse rows of Python ints, and
builds one Fraction for each stored entry of the Mat it returns.  The
product writes each row of the right operand over the lcm of that row's
denominators and each left row over its own common denominator, and adds
integer rows.

All elimination runs through one forward pass, ``_eliminate``, over the
primitive integer rows of a Mat: sparse rows whose entries have gcd 1.  It
has one row operation, ``_combine``, which clears a column with
p row - a prow and divides out the content, and it touches only the rows
below each pivot and only where either row is nonzero.  ``rank`` and
``det`` read the pivots of that pass and nothing more.  ``rref`` adds a
back substitution with the same row operation, from the last pivot row
upward, and writes each entry over its row's pivot; ``rowspace`` and
``colspace`` are views of it.  ``nullspace`` eliminates and
back-substitutes m turned by 180 degrees, once, and reads the kernel's
RREF straight off those reduced rows.

A ``Subspace`` basis is the k x n matrix of the nonzero rows of the
subspace's RREF, one row per basis vector.  That basis is unique, so
subspace equality is plain value equality.
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
# the most decimal digits a numerator or denominator may have, read or written
MAX_DIGITS = 4000


class DimensionMismatch(Exception):
    """Operands have incompatible shapes or ambient dimensions.

    Inputs are validated before any matrix is built, so this is an internal
    error, never bad input; it is deliberately not a ValueError.
    """


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce an exact value to Fraction: an int, a Fraction, or a string
    that ``parse_rational`` accepts.  Bools, floats and anything else are
    refused, so the library reads rationals as the input files do."""
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("bad rational literal %r: use an integer or 'p/q' string" % (x,))


def parse_rational(text: str) -> Fraction:
    """Parse an integer or 'p/q' literal in ASCII digits.

    Decimal literals are rejected so that no inexact value can sneak in
    through an input file, and so are the digit separators ('1_000') that
    Fraction itself would accept.  A numerator or denominator of more than
    MAX_DIGITS digits is refused too, with a message that names that limit.
    """
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError("bad rational literal %r: decimals are not accepted, "
                         "write an integer or p/q" % (text,))
    if not _RATIONAL_LITERAL.fullmatch(text):
        raise ValueError("bad rational literal %r: write an integer or p/q" % (text,))
    digits = max(map(len, text.lstrip("+-").split("/")))
    if digits > MAX_DIGITS:
        raise ValueError("bad rational literal %r...: %d digits; the limit is %d"
                         % (text[:12], digits, MAX_DIGITS))
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError("bad rational literal %r: %s" % (text, exc)) from None


def render_rational(x: Fraction) -> str:
    """str(x), refused with ValueError when its numerator or denominator has
    more than MAX_DIGITS digits, so no document carries a longer number."""
    try:
        text = str(x)
    except ValueError:  # past the interpreter's own int-to-str limit
        text = None
    if text is None or len(text) > MAX_DIGITS and \
            max(map(len, text.lstrip("-").split("/"))) > MAX_DIGITS:
        raise ValueError("a number in the document has a numerator or denominator "
                         "over the digit limit of %d" % MAX_DIGITS)
    return text


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

    def transpose(self) -> Mat:
        out: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.cols)]
        for i, pairs in enumerate(self.nonzero):
            for j, x in pairs:
                out[j].append((i, x))
        return Mat(self.cols, self.rows, tuple(map(tuple, out)))

    def __matmul__(self, other: Mat) -> Mat:
        """The product, accumulated over Python ints.

        Row k of other is written over the lcm e_k of its denominators, and
        row i of self over d_i, the lcm of q_ik e_k for its stored k (q_ik
        the denominator of its entry in column k).  Each product row is then
        a sum of integer rows with integer coefficients, and each stored
        entry of the result is one Fraction(n, d_i).
        """
        if self.cols != other.rows:
            raise DimensionMismatch("multiply %dx%d by %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        right = []
        for pairs in other.nonzero:
            e = lcm(*(y.denominator for _, y in pairs))
            right.append((e, [(j, y.numerator * (e // y.denominator)) for j, y in pairs]))
        out = []
        for pairs in self.nonzero:
            d = lcm(*(x.denominator * right[k][0] for k, x in pairs))
            acc: dict[int, int] = {}
            for k, x in pairs:
                e, row = right[k]
                c = x.numerator * (d // (x.denominator * e))
                for j, y in row:
                    acc[j] = acc[j] + c * y if j in acc else c * y
            out.append(tuple((j, Fraction(acc[j], d)) for j in sorted(acc) if acc[j]))
        return Mat(self.rows, other.cols, tuple(out))


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
    that is det(m) when m is square and of full rank.  Row i holds pivot i
    in column pivots[i], is zero in every earlier column, and is primitive:
    the gcd of its entries is 1.

    Row i of m is first stored sparsely, as its nonzero {column: entry}
    pairs, scaled by the lcm d of its denominators and divided by the gcd
    g of the result.  At each pivot, every lower row with a nonzero in the
    pivot column is replaced by its ``_combine`` with the pivot row, over
    the union of the two rows' nonzeros.  Up to sign, a primitive row is
    the one integer vector in the span of the rows used so far that
    vanishes on the earlier pivot columns, so its entries stay bounded by
    minors of the cleared matrix.  The determinant value is the product of
    every g over every d, of the pivots, of h / p per update and of the
    sign of each row swap; it is reduced to lowest terms at each pivot,
    which keeps it about the size of a minor.

    No zero cell is visited: a row waits under the column of its first
    nonzero, and the pivot is the waiting row first in the row order.
    """
    work: list[dict[int, int]] = []
    num = den = 1
    waiting: dict[int, list[int]] = {}
    for i, pairs in enumerate(m.nonzero):
        d = lcm(*(x.denominator for _, x in pairs))
        row = {j: x.numerator * (d // x.denominator) for j, x in pairs}
        g = gcd(*row.values())
        num, den = num * g, den * d
        work.append({j: x // g for j, x in row.items()})
        if pairs:
            waiting.setdefault(pairs[0][0], []).append(i)
    order = list(range(m.rows))  # the row at each position
    place = list(range(m.rows))  # the position of each row
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


def _back_substitute(rows: list[dict[int, int]], pivots: list[int]) -> None:
    """Reduce echelon rows in place, from the last pivot row upward: each
    later pivot column in a row is cleared by ``_combine`` with that
    pivot's row, already reduced.  Afterwards each row is zero in every
    pivot column but its own, and still primitive."""
    pivot_row = {c: i for i, c in enumerate(pivots)}
    for i in range(len(pivots) - 1, -1, -1):
        for c in [c for c in rows[i] if c != pivots[i] and c in pivot_row]:
            rows[i], _ = _combine(rows[i], rows[pivot_row[c]], c)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns.

    Forward elimination and back substitution run on primitive integer
    rows; Fractions are built only at the output, each entry over its row's
    pivot.  The result is the unique RREF: pivots are 1, pivot columns are
    cleared above and below, pivot columns strictly increase down the rows.
    """
    rows, pivots, _ = _eliminate(m)
    _back_substitute(rows, pivots)
    out = tuple(tuple((j, Fraction(row[j], row[c])) for j in sorted(row))
                for row, c in zip(rows, pivots))
    return Mat(m.rows, m.cols, out + ((),) * (m.rows - len(pivots))), tuple(pivots)


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
    """A linear subspace of Q^n with a canonical basis.

    The basis matrix has one row per dimension: the nonzero rows of the
    RREF of any spanning set, so two Subspace values are equal exactly when
    they are the same subspace.
    """

    basis: Mat

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(Mat.zeros(0, ambient_dim))

    @classmethod
    def from_vectors(cls, ambient_dim: int,
                     vectors: Iterable[Sequence[int | str | Fraction]]) -> Subspace:
        """Span of the given vectors, canonicalized."""
        return rowspace(Mat.from_rows(list(vectors), cols=ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    def intersect(self, other: Subspace) -> Subspace:
        """Intersection, via the kernel of the stacked bases' transpose.

        For row bases A and B, a coefficient vector (x, y) with
        x A + y B = 0 means x A = -y B lies in both spans; the x A parts of
        a kernel basis span the intersection.
        """
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions %d and %d"
                                    % (self.ambient_dim, other.ambient_dim))
        stacked = self.basis.nonzero + other.basis.nonzero
        coeffs = nullspace(Mat(len(stacked), self.ambient_dim, stacked).transpose()).basis
        # the x part of each coefficient row is its first self.dim entries
        x_parts = tuple(tuple(p for p in row if p[0] < self.dim) for row in coeffs.nonzero)
        return rowspace(Mat(coeffs.rows, self.dim, x_parts) @ self.basis)


def rowspace(m: Mat) -> Subspace:
    """Canonical Subspace of Q^cols spanned by the rows of m."""
    reduced, pivots = rref(m)
    return Subspace(Mat(len(pivots), m.cols, reduced.nonzero[:len(pivots)]))


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of {x : m x = 0}, read off one elimination.

    m is turned by 180 degrees, its rows and its columns both reversed,
    then eliminated and back-substituted.  Turned back, each reduced row is
    its pivot column p plus free columns left of p.  So free column f gives
    the kernel vector with 1 at f and, at each pivot p right of f, minus
    that row's entry in column f over its pivot entry.  That vector leads
    with the 1 at f and is zero at every other free column, so the vectors
    in the order of f are already the kernel's RREF.  The rows turn with
    the columns because reversing the columns alone about doubles the
    row-operation work on the banded system matrix of a cycle.
    """
    last = m.cols - 1
    turned = Mat(m.rows, m.cols, tuple(tuple((last - j, x) for j, x in reversed(pairs))
                                       for pairs in reversed(m.nonzero)))
    rows, pivots, _ = _eliminate(turned)
    _back_substitute(rows, pivots)
    pivot_set = {last - c for c in pivots}
    vectors = {f: [(f, _ONE)] for f in range(m.cols) if f not in pivot_set}
    # the turned rows from the last upward, so each vector grows in column order
    for row, c in zip(reversed(rows), reversed(pivots)):
        q = row[c]
        for j, x in row.items():
            if j != c:
                vectors[last - j].append((last - c, Fraction(-x, q)))
    return Subspace(Mat(len(vectors), m.cols, tuple(map(tuple, vectors.values()))))


def colspace(m: Mat) -> Subspace:
    """Canonical basis of the column span."""
    return rowspace(m.transpose())
