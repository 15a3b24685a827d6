"""Exact linear algebra over the rationals.

A matrix is stored as integer rows, each over one positive row denominator,
so nothing ever rounds: results are the mathematically exact values.
Matrices are immutable and store only their nonzero entries, row by row:
row i is the tuple of its nonzero (column, numerator) pairs, in strictly
increasing column order, over its denominator.  Each row is kept in lowest
terms, the gcd of its denominator and its numerators being 1, and an empty
row has denominator 1.  So two equal matrices have equal storage, and
comparing them compares ints.  The matrices this package builds
(coboundary, residue and system matrices) have only a few nonzero entries
per row, so products, transposes and eliminations cost what the nonzeros
cost.  No dense view exists.  ``Mat.entries`` is a read-only view of the
stored entries as Fractions, for code at the edges; the routines here and
the documents read the integer rows.  Fractions appear only at the
boundary: ``rat``, ``vec`` and ``parse_rational`` read values in,
``render_rational`` writes one out, and ``det`` returns one.

The product writes each row of the right operand over its denominator, so
row i of the result is a sum of integer rows with integer coefficients over
d_i times the lcm of the right denominators it meets.

All elimination runs through one forward pass, ``_eliminate``, over the
primitive integer rows of a Mat: its numerator rows divided by their gcd.
It has one row operation, ``_combine``, which clears a column with
p row - a prow and divides out the content, and it touches only the rows
below each pivot and only where either row is nonzero.  ``rank`` and
``det`` read the pivots of that pass and nothing more.  ``rref`` adds a
back substitution with the same row operation, from the last pivot row
upward, and writes each row over its pivot; ``rowspace`` and ``colspace``
are views of it.  ``nullspace`` eliminates and back-substitutes m turned by
180 degrees, once, and reads the kernel's RREF straight off those reduced
rows.

A ``Subspace`` basis is the k x n matrix of the nonzero rows of the
subspace's RREF, one row per basis vector.  That basis is unique, so
subspace equality is plain value equality.

Stored tuples are built from lists, not generators.  CPython makes a tuple
from a generator at one size and resizes it, so freeing it moves memory
into the free list of another size; in a process that runs many documents
those lists fill up, and with few Fractions allocated the cyclic collector
that clears them rarely runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
# one stored row: its nonzero (column, numerator) pairs in column order
Row = tuple[tuple[int, int], ...]

_ZERO = Fraction(0)
_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# the most decimal digits a numerator or denominator may have, read or written
MAX_DIGITS = 4000
# the least int with more than MAX_DIGITS digits
DIGIT_BOUND = 10 ** MAX_DIGITS


class DimensionMismatch(Exception):
    """Operands have incompatible shapes or ambient dimensions.

    Inputs are validated before any matrix is built, so this is an internal
    error, never bad input; it is deliberately not a ValueError.
    """


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce an exact value to Fraction: an int, a Fraction, or a string
    that ``parse_rational`` accepts.  Bools, floats and anything else are
    refused, so the library reads rationals as the input files do.  A
    Fraction is immutable, so one is returned as it is, not copied."""
    if type(x) is Fraction:
        return x
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


def render_ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, from ints: n and d divided by their
    gcd.  Refused with ValueError when the reduced numerator or denominator
    has more than MAX_DIGITS digits, so no document carries a longer number.
    The ints are compared with DIGIT_BOUND before any str, so the refusal
    does not depend on the interpreter's own int-to-str limit."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
    if not (-DIGIT_BOUND < n < DIGIT_BOUND and d < DIGIT_BOUND):
        raise ValueError("a number in the document has a numerator or denominator "
                         "over the digit limit of %d" % MAX_DIGITS)
    return str(n) if d == 1 else "%d/%d" % (n, d)


def render_rational(x: Fraction) -> str:
    """``render_ratio`` of a Fraction."""
    return render_ratio(x.numerator, x.denominator)


def vec(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple([rat(v) for v in values])


def _lowest(pairs: Sequence[tuple[int, int]], d: int) -> tuple[Row, int]:
    """The row pairs / d in lowest terms, for nonzero (column, numerator)
    pairs in column order and d > 0: both divided by their gcd."""
    if d == 1:
        return tuple(pairs), 1
    g = gcd(d, *[n for _, n in pairs])
    if g == 1:
        return tuple(pairs), d
    return tuple([(j, n // g) for j, n in pairs]), d // g


def _reduce(acc: dict[int, int], d: int) -> tuple[Row, int]:
    """The row acc / d in lowest terms, for a {column: numerator} dict and
    d > 0; zero numerators are dropped."""
    return _lowest([(j, acc[j]) for j in sorted(acc) if acc[j]], d)


def _over_lcm(entries: Sequence[tuple[int, int, int]]) -> tuple[Row, int]:
    """The row of the entries n / d, given as (column, n, d) triples in
    column order with n nonzero and d > 0, over the lcm of the d and in
    lowest terms."""
    e = lcm(*[d for _, _, d in entries])
    return _lowest([(j, n * (e // d)) for j, n, d in entries], e)


def _fraction_row(entries: Iterable[tuple[int, Fraction]]) -> tuple[Row, int]:
    """The row of the given (column, Fraction) entries in column order;
    zeros are dropped."""
    return _over_lcm([(j, x.numerator, x.denominator) for j, x in entries if x])


@dataclass(frozen=True)
class Mat:
    """Immutable sparse matrix over Q, stored as integer rows.

    Row i is nums[i], the tuple of its nonzero (column, numerator) pairs in
    strictly increasing column order, over dens[i], its positive
    denominator: entry (i, j) is n / dens[i].  Every row is in lowest terms
    (an empty row is over 1), so two equal matrices have equal nums and
    dens, and comparing them compares ints.
    """

    rows: int
    cols: int
    nums: tuple[Row, ...]
    dens: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cols < 0 or len(self.nums) != self.rows or len(self.dens) != self.rows:
            raise ValueError("%d stored rows over %d denominators do not make a %dx%d "
                             "matrix" % (len(self.nums), len(self.dens), self.rows,
                                         self.cols))
        for i, (pairs, d) in enumerate(zip(self.nums, self.dens)):
            last = -1
            for j, n in pairs:
                if not (last < j < self.cols and n):
                    raise ValueError("row %d: numerator at column %r is zero, out of "
                                     "order or out of range" % (i, j))
                last = j
            if d != 1 and (d < 1 or gcd(d, *[n for _, n in pairs]) != 1):
                raise ValueError("row %d: denominator %r is not positive or shares a "
                                 "factor with the numerators" % (i, d))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | str | Fraction]],
                  cols: int | None = None) -> Mat:
        """Build from dense rows of rationals; `cols` disambiguates zero rows."""
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        if cols is not None and rows and ncols != cols:
            raise ValueError("rows have %d columns, expected %d" % (ncols, cols))
        return _stack(ncols, [_fraction_row(enumerate(map(rat, r))) for r in rows])

    @classmethod
    def from_dicts(cls, rows: Sequence[dict[int, int | str | Fraction]], cols: int) -> Mat:
        """Build from one {column: rational} dict per row; zeros are dropped."""
        return _stack(cols, [_fraction_row((j, rat(row[j])) for j in sorted(row))
                             for row in rows])

    @classmethod
    def from_integer_rows(cls, rows: Sequence[dict[int, int]], dens: Sequence[int],
                          cols: int) -> Mat:
        """Build from one {column: numerator} dict per row over dens[i] > 0;
        zeros are dropped and each row is put in lowest terms."""
        return _stack(cols, list(map(_reduce, rows, dens)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Mat:
        return cls(rows, cols, ((),) * rows, (1,) * rows)

    @classmethod
    def identity(cls, n: int) -> Mat:
        return cls(n, n, tuple([((i, 1),) for i in range(n)]), (1,) * n)

    @property
    def entries(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The stored entries as (column, Fraction) pairs, row by row: a
        read-only view for code at the edges.  It builds one Fraction per
        stored entry; the package's routines read nums and dens instead."""
        return tuple(tuple((j, Fraction(n, d)) for j, n in pairs)
                     for pairs, d in zip(self.nums, self.dens))

    def transpose(self) -> Mat:
        """Row j of the transpose collects n / dens[i] from every row i that
        stores column j, over the lcm of those denominators."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.cols)]
        for i, (pairs, d) in enumerate(zip(self.nums, self.dens)):
            for j, n in pairs:
                out[j].append((i, n, d))
        return _stack(self.rows, list(map(_over_lcm, out)))

    def __matmul__(self, other: Mat) -> Mat:
        """The product, accumulated over Python ints.

        Row i of self is x / d and row k of other is y_k / e_k.  Over the
        lcm e of the e_k for the k that row i stores, product row i is
        sum of x_k (e / e_k) y_k, an integer row, over d e; it is then put
        in lowest terms.
        """
        if self.cols != other.rows:
            raise DimensionMismatch("multiply %dx%d by %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        right, right_dens = other.nums, other.dens
        out = []
        for pairs, d in zip(self.nums, self.dens):
            e = lcm(*[right_dens[k] for k, _ in pairs])
            acc: dict[int, int] = {}
            for k, x in pairs:
                c = x * (e // right_dens[k]) if e != 1 else x
                for j, y in right[k]:
                    acc[j] = acc[j] + c * y if j in acc else c * y
            out.append(_reduce(acc, d * e))
        return _stack(other.cols, out)


def _stack(cols: int, rows: Sequence[tuple[Row, int]]) -> Mat:
    """The Mat whose row i is rows[i], a (pairs, denominator) row in lowest
    terms."""
    return Mat(len(rows), cols, tuple([pairs for pairs, _ in rows]),
               tuple([d for _, d in rows]))


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


def _eliminate(m: Mat) -> tuple[list[dict[int, int]], list[int], tuple[int, int]]:
    """Forward elimination of m over the integers, in primitive rows.

    Returns the echelon rows, one per pivot, the pivot columns, and the
    (numerator, denominator) of a value that is det(m) when m is square and
    of full rank.  Row i holds pivot i in column pivots[i], is zero in every
    earlier column, and is primitive: the gcd of its entries is 1.

    Row i of m is first read as a {column: numerator} dict, its stored
    numerators divided by their gcd g.  At each pivot, every lower row with
    a nonzero in the pivot column is replaced by its ``_combine`` with the
    pivot row, over the union of the two rows' nonzeros.  Up to sign, a
    primitive row is the one integer vector in the span of the rows used so
    far that vanishes on the earlier pivot columns, so its entries stay
    bounded by minors of the cleared matrix.  The determinant value is the
    product of every g over its row's denominator d, of the pivots, of
    h / p per update and of the sign of each row swap; it is reduced to
    lowest terms at each pivot, which keeps it about the size of a minor.

    No zero cell is visited: a row waits under the column of its first
    nonzero, and the pivot is the waiting row first in the row order.
    """
    work: list[dict[int, int]] = []
    num = den = 1
    waiting: dict[int, list[int]] = {}
    for i, (pairs, d) in enumerate(zip(m.nums, m.dens)):
        g = gcd(*[n for _, n in pairs])
        num, den = num * g, den * d
        work.append({j: n // g for j, n in pairs} if g > 1 else dict(pairs))
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
    return [work[i] for i in order[:len(pivots)]], pivots, (num, den)


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
    rows; each reduced row is then stored over the absolute value of its
    pivot, which is in lowest terms because the row is primitive.  The
    result is the unique RREF: pivots are 1, pivot columns are cleared above
    and below, pivot columns strictly increase down the rows.
    """
    rows, pivots, _ = _eliminate(m)
    _back_substitute(rows, pivots)
    nums = tuple([tuple([(j, row[j] if row[c] > 0 else -row[j]) for j in sorted(row)])
                  for row, c in zip(rows, pivots)])
    dens = tuple([abs(row[c]) for row, c in zip(rows, pivots)])
    pad = m.rows - len(pivots)
    return Mat(m.rows, m.cols, nums + ((),) * pad, dens + (1,) * pad), tuple(pivots)


def rank(m: Mat) -> int:
    """The number of pivots of the forward elimination."""
    return len(_eliminate(m)[1])


def det(m: Mat) -> Fraction:
    """Exact determinant: the value the forward elimination collects from
    its pivots, row scalings and swaps, or 0 when m is rank-deficient."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of %dx%d matrix" % (m.rows, m.cols))
    _, pivots, (num, den) = _eliminate(m)
    return Fraction(num, den) if len(pivots) == m.rows else _ZERO


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
        stacked = Mat(self.dim + other.dim, self.ambient_dim,
                      self.basis.nums + other.basis.nums, self.basis.dens + other.basis.dens)
        coeffs = nullspace(stacked.transpose()).basis
        # the x part of each coefficient row is its first self.dim entries
        x_parts = [_lowest([p for p in pairs if p[0] < self.dim], d)
                   for pairs, d in zip(coeffs.nums, coeffs.dens)]
        return rowspace(_stack(self.dim, x_parts) @ self.basis)


def rowspace(m: Mat) -> Subspace:
    """Canonical Subspace of Q^cols spanned by the rows of m."""
    reduced, pivots = rref(m)
    k = len(pivots)
    return Subspace(Mat(k, m.cols, reduced.nums[:k], reduced.dens[:k]))


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of {x : m x = 0}, read off one elimination.

    m is turned by 180 degrees, its rows and its columns both reversed,
    then eliminated and back-substituted.  Turned back, each reduced row is
    its pivot column p plus free columns left of p.  So free column f gives
    the kernel vector with 1 at f and, at each pivot p right of f, minus
    that row's entry in column f over its pivot entry, all over the lcm of
    those pivots and in lowest terms.  That vector leads with the 1 at f and
    is zero at every other free column, so the vectors in the order of f are
    already the kernel's RREF.  The rows turn with
    the columns because reversing the columns alone about doubles the
    row-operation work on the banded system matrix of a cycle.
    """
    last = m.cols - 1
    turned = Mat(m.rows, m.cols, tuple([tuple([(last - j, n) for j, n in reversed(pairs)])
                                        for pairs in reversed(m.nums)]), m.dens[::-1])
    rows, pivots, _ = _eliminate(turned)
    _back_substitute(rows, pivots)
    pivot_set = {last - c for c in pivots}
    # each vector as (column, numerator, denominator) entries
    vectors = {f: [(f, 1, 1)] for f in range(m.cols) if f not in pivot_set}
    # the turned rows from the last upward, so each vector grows in column order
    for row, c in zip(reversed(rows), reversed(pivots)):
        q = row[c]
        sign, q = (-1, q) if q > 0 else (1, -q)
        for j, x in row.items():
            if j != c:
                vectors[last - j].append((last - c, sign * x, q))
    return Subspace(_stack(m.cols, list(map(_over_lcm, vectors.values()))))


def colspace(m: Mat) -> Subspace:
    """Canonical basis of the column span."""
    return rowspace(m.transpose())
