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

All elimination runs through one forward pass, ``_echelon``, over
primitive integer rows: {column: numerator} dicts whose entries have gcd 1.
``_eliminate`` feeds it a Mat's numerator rows divided by their gcd.  It
has one row operation, ``_combine``, which clears a column with
p row - a prow and divides out the content, in one dict, and it touches
only the rows below each pivot and only where either row is nonzero.
``rank`` and ``det`` read the pivots of that pass and nothing more.
``rref`` adds a back substitution with the same row operation, from the
last pivot row upward, and writes each row over its pivot (``_reduced``);
``rowspace`` and ``colspace`` are views of it.  ``nullspace`` runs only
the forward pass, once, on m turned by 180 degrees, and back-solves one
int vector per free column from the echelon rows (``_turned_kernel``,
which ``cohomology`` also calls on the rows it writes already turned):
those vectors, turned back, are the kernel's RREF.  So an elimination
does the row work its output needs: a kernel of dimension k costs the
forward pass and k back-solves, not a back substitution of every pivot
row.

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
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
# one stored row: its nonzero (column, numerator) pairs in column order
Row = tuple[tuple[int, int], ...]

_ZERO = Fraction(0)
_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
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
    The literal is matched once, and the Fraction is built from the ints
    its two parts read as.
    """
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError("bad rational literal %r: decimals are not accepted, "
                         "write an integer or p/q" % (text,))
    literal = _RATIONAL_LITERAL.fullmatch(text)
    if not literal:
        raise ValueError("bad rational literal %r: write an integer or p/q" % (text,))
    p, q = literal.groups()
    digits = max(len(p.lstrip("+-")), len(q or ""))
    if digits > MAX_DIGITS:
        raise ValueError("bad rational literal %r...: %d digits; the limit is %d"
                         % (text[:12], digits, MAX_DIGITS))
    try:
        return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
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
    by comes back with it, for ``det``.  One dict is built: row is copied,
    not multiplied, when p = 1, a prow is subtracted from it in place and
    column c is deleted; it is returned as it is when its content is 1 and
    no entry cancelled, else divided by h without its zeros.
    """
    p, a = prow[c], row[c]
    acc = dict(row) if p == 1 else {j: p * x for j, x in row.items()}
    for j, y in prow.items():
        acc[j] = acc[j] - a * y if j in acc else -a * y
    del acc[c]
    h = gcd(*acc.values())
    if h == 1 and 0 not in acc.values():
        return acc, 1
    return {j: v // h for j, v in acc.items() if v}, h


def _eliminate(m: Mat) -> tuple[list[dict[int, int]], list[int], tuple[int, int]]:
    """``_echelon`` of the primitive rows of m: row i read as a
    {column: numerator} dict, its stored numerators divided by their gcd g.
    The determinant value starts as the product of every g over its row's
    denominator d."""
    work: list[dict[int, int]] = []
    num = den = 1
    for pairs, d in zip(m.nums, m.dens):
        g = gcd(*[n for _, n in pairs])
        num, den = num * g, den * d
        work.append({j: n // g for j, n in pairs} if g > 1 else dict(pairs))
    return _echelon(work, m.cols, num, den)


def _echelon(work: list[dict[int, int]], cols: int, num: int = 1,
             den: int = 1) -> tuple[list[dict[int, int]], list[int], tuple[int, int]]:
    """Forward elimination over the integers of primitive rows, given as
    {column: numerator} dicts with columns below cols; the dicts are
    replaced, never changed.

    Returns the echelon rows, one per pivot, the pivot columns, and the
    (numerator, denominator) of a value that is det(m) when m is square and
    of full rank and num / den is the scale ``_eliminate`` read its rows
    at.  Row i holds pivot i in column pivots[i], is zero in every earlier
    column, and is primitive: the gcd of its entries is 1.

    At each pivot, every lower row with a nonzero in the pivot column is
    replaced by its ``_combine`` with the pivot row, over the union of the
    two rows' nonzeros.  Up to sign, a primitive row is the one integer
    vector in the span of the rows used so far that vanishes on the earlier
    pivot columns, so its entries stay bounded by minors of the cleared
    matrix.  The determinant value is num / den times the pivots, h / p per
    update and the sign of each row swap; it is reduced to lowest terms at
    each pivot, which keeps it about the size of a minor.

    No zero cell is visited: a row waits under the column of its first
    nonzero, and the pivot is the waiting row first in the row order.
    """
    waiting: dict[int, list[int]] = {}
    for i, row in enumerate(work):
        if row:
            waiting.setdefault(min(row), []).append(i)
    order = list(range(len(work)))  # the row at each position
    place = list(range(len(work)))  # the position of each row
    pivots: list[int] = []
    for c in range(cols):
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
    pad = [((), 1)] * (m.rows - len(pivots))
    return _stack(m.cols, _reduced(rows, pivots) + pad), tuple(pivots)


def _reduced(rows: list[dict[int, int]], pivots: list[int]) -> list[tuple[Row, int]]:
    """The nonzero RREF rows of the echelon rows: back-substituted, then
    each written over the absolute value of its pivot, which is in lowest
    terms because the row is primitive."""
    _back_substitute(rows, pivots)
    out = []
    for row, c in zip(rows, pivots):
        q = row[c]
        out.append((tuple([(j, row[j] if q > 0 else -row[j]) for j in sorted(row)]), abs(q)))
    return out


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
    """Canonical basis of {x : m x = 0}, back-solved from one forward pass.

    m is turned by 180 degrees, its rows and its columns both reversed, and
    its primitive turned rows go to ``_turned_kernel``; they come from m's
    stored rows, already checked, so no second Mat is built.  The rows turn
    with the columns because reversing the columns alone about doubles the
    row-operation work on the banded system matrix of a cycle.
    """
    last = m.cols - 1
    work = []
    for pairs in reversed(m.nums):
        g = gcd(*[n for _, n in pairs])
        work.append({last - j: n // g for j, n in reversed(pairs)})
    return Subspace(_stack(m.cols, _turned_kernel(work, m.cols)))


def _turned_kernel(work: list[dict[int, int]], cols: int) -> list[tuple[Row, int]]:
    """The RREF rows of the kernel of the matrix m whose rows, turned by
    180 degrees, are the primitive rows work: column j of work is column
    cols - 1 - j of m.

    Only the forward elimination runs on work.  Each free column f of the
    echelon rows gives one solution x: x_f = 1, every other free column 0,
    and from the last pivot row upward x_c = -(row . x) / row[c] at the
    row's pivot c.  x is kept as one int vector over one denominator: when
    row[c] does not divide the sum s, the vector and its denominator are
    first multiplied by |row[c]| / gcd(s, row[c]).  A pivot right of f only
    sees columns right of it, so it solves to 0, and only the rows that
    pivot left of f are visited.  Turned back, x leads with the 1 at f and
    is zero at every other free column, so the vectors in the order of f
    are already the RREF.
    """
    last = cols - 1
    rows, pivots, _ = _echelon(work, cols)
    pivot_set = set(pivots)
    vectors = []
    for f in range(last, -1, -1):
        if f in pivot_set:
            continue
        x, d = {f: 1}, 1
        for i in range(bisect(pivots, f) - 1, -1, -1):
            row, c = rows[i], pivots[i]
            s = 0
            for j, v in row.items():
                if j in x:
                    s += v * x[j]
            if s:
                p = row[c]
                q = abs(p) // gcd(s, p)
                if q != 1:
                    x = {j: v * q for j, v in x.items()}
                    d, s = d * q, s * q
                x[c] = -s // p
        # x holds f, then pivots leftward: turned back, in column order
        vectors.append(_lowest([(last - j, v) for j, v in x.items()], d))
    return vectors


def colspace(m: Mat) -> Subspace:
    """Canonical basis of the column span."""
    return rowspace(m.transpose())
