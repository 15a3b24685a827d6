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
``parse_rational`` reads a plain integer literal, a sign and at most
MAX_DIGITS ASCII digits, with ``int`` alone, the form of nearly every
value in a problem file or a ``--g`` list; every other literal takes the
one regular expression, so each refusal keeps its message.

The product writes each row of the right operand over its denominator, so
row i of the result is a sum of integer rows with integer coefficients over
d_i times the lcm of the right denominators it meets.  ``_products`` is
that one row loop; ``Mat.__matmul__`` puts its rows in lowest terms, and
the factorization check in ``cohomology`` compares them with A's rows.

All elimination runs through one forward pass, ``_echelon``, over integer
rows: {column: nonzero numerator} dicts, which it first divides by their
gcd.  A Mat's numerator rows, each a positive multiple of the Mat's row,
go in as they are stored; the package's other callers hand over the int
rows they write.  Its one row operation, ``_combine``, clears a column
with p row - a prow and divides out the content, in one dict, and it
touches only the rows that wait under each pivot and only where either
row is nonzero.  The pivot is the shortest waiting row.  The pass returns
the echelon rows and their pivot columns and keeps no other state.
``rank`` counts the pivots.  ``det`` runs the pass on [N | I], N the
numerators, and reads its value off the two halves of the echelon rows.
``_reduced`` is the one RREF: the pass, then a back substitution with the
same row operation, from the last pivot row upward, and each row written
over its pivot.  ``rref`` pads it to a Mat; ``rowspace`` and ``colspace``
stack its rows, and so do the inverse in ``localsystem`` and the kernel
splits in ``cohomology``.  ``_kernel`` runs only the forward pass, once,
on int rows turned by 180 degrees, and back-solves one int vector per
free column from the echelon rows: those vectors, turned back, are the
kernel's RREF.  It takes the rows in their natural order and is the only
code that turns them; ``nullspace`` hands it m's stored rows, and the
layered kernel in ``cohomology`` the rows it writes.  So an elimination
does the row work its output needs: a kernel of dimension k costs the
forward pass and k back-solves, not a back substitution of every pivot
row.  Every result is unique (a rank, an RREF, a kernel's RREF, a
determinant), so none depends on the pivot order.

A ``Subspace`` basis is the k x n matrix of the nonzero rows of the
subspace's RREF, one row per basis vector.  That basis is unique, so
subspace equality is plain value equality.

The stored form is checked once, where rows come from outside the
package: ``Mat(...)``, ``Mat.from_rows``, ``Mat.identity`` and
``Mat.zeros`` run ``_checked`` and refuse anything else with
ValueError.  The package's own writers (the product, the transpose, the
eliminations, the assemblers in ``cohomology`` and the
transitions in ``localsystem``) build through ``_mat``, which skips both
the check and the ``__init__`` of ``Value``, the base of the package's
immutable value classes: each writes its rows in column
order with zeros dropped and puts them in lowest terms with ``_lowest``,
or copies rows already stored, so checking them again would only repeat
the work that made them.  A test wraps ``_mat`` with ``_checked`` over the
whole path, so a writer that breaks the form still fails.

Stored tuples are built from lists, not generators.  CPython makes a tuple
from a generator at one size and resizes it, so freeing it moves memory
into the free list of another size; in a process that runs many documents
those lists fill up, and with few Fractions allocated the cyclic collector
that clears them rarely runs.
"""

from __future__ import annotations

import re
from bisect import bisect
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm, prod

Vector = tuple[Fraction, ...]
# one stored row: its nonzero (column, numerator) pairs in column order
Row = tuple[tuple[int, int], ...]

_ZERO = Fraction(0)
_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# the most decimal digits a numerator or denominator may have, read or written
MAX_DIGITS = 4000
# the least int with more than MAX_DIGITS digits
DIGIT_BOUND = 10 ** MAX_DIGITS
# its negative, made once: a bound test that wrote -DIGIT_BOUND would build
# a fresh 13,288-bit int each time
NEG_DIGIT_BOUND = -DIGIT_BOUND


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
    A sign and at most MAX_DIGITS ASCII digits read as ``Fraction(int(text))``
    with no match; any other literal is matched once, and the Fraction is
    built from the ints its two parts read as.
    """
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isdigit() and digits.isascii() and len(digits) <= MAX_DIGITS:
        return Fraction(int(text))
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


def check_digits(n: int, d: int) -> None:
    """Refuse n / d, in lowest terms with d > 0, with ValueError when n or d
    has more than MAX_DIGITS digits, so no document carries a longer number.
    The ints are compared with NEG_DIGIT_BOUND and DIGIT_BOUND, both made
    once at import, with no str, so the refusal does not depend on the
    interpreter's own int-to-str limit."""
    if not (NEG_DIGIT_BOUND < n < DIGIT_BOUND and d < DIGIT_BOUND):
        raise ValueError("a number in the document has a numerator or denominator "
                         "over the digit limit of %d" % MAX_DIGITS)


def render_ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, from ints: n and d divided by their
    gcd, and refused by ``check_digits`` before any str."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
    check_digits(n, d)
    return str(n) if d == 1 else "%d/%d" % (n, d)


def render_rational(x: Fraction) -> str:
    """``render_ratio`` of a Fraction."""
    return render_ratio(x.numerator, x.denominator)


def vec(values: Iterable[int | str | Fraction]) -> Vector:
    """The values as a tuple of Fractions, each read by ``rat``.  A tuple
    whose items are all exact Fractions is returned as it is, after one
    scan of their types, so a vector read once is not read again; any
    other input, a Fraction subclass among them, goes through ``rat``."""
    if type(values) is tuple and set(map(type, values)) <= {Fraction}:
        return values
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
    d > 0; zero numerators, which only a sum that cancelled leaves, are
    dropped."""
    pairs = sorted(acc.items())
    if 0 in acc.values():
        pairs = [(j, n) for j, n in pairs if n]
    return _lowest(pairs, d)


def _over_lcm(entries: Sequence[tuple[int, int, int]]) -> tuple[Row, int]:
    """The row of the entries n / d, given as (column, n, d) triples in
    column order with n nonzero and d > 0, over the lcm of the d and in
    lowest terms."""
    e = lcm(*[d for _, _, d in entries])
    return _lowest([(j, n * (e // d)) for j, n, d in entries], e)


class Value:
    """Base of the package's immutable value classes.

    A subclass names its fields once, in ``_fields``, and each instance
    keeps them in its ``__dict__``.  The constructor takes the fields in
    that order, by position or by keyword; a class that checks or
    normalizes its arguments defines its own ``__init__`` and calls this
    one first.  Two values are equal when they are of the same class with
    equal fields, a value hashes as its field tuple, its repr is
    ``Name(field=value, ...)`` in field order, and assigning or deleting
    an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if not kwargs and len(args) == len(names):
            for name, value in zip(names, args):
                _setattr(self, name, value)
            return
        if len(args) + len(kwargs) != len(names) or (
                kwargs and kwargs.keys() != set(names[len(args):])):
            raise TypeError("%s() takes the arguments %s, each once"
                            % (type(self).__name__, ", ".join(names)))
        for name, value in zip(names, args):
            _setattr(self, name, value)
        for name, value in kwargs.items():
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self._fields]))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % (name,))


_new = object.__new__
_setattr = object.__setattr__


class Mat(Value):
    """Immutable sparse matrix over Q, stored as integer rows.

    Row i is nums[i], the tuple of its nonzero (column, numerator) pairs in
    strictly increasing column order, over dens[i], its positive
    denominator: entry (i, j) is n / dens[i].  Every row is in lowest terms
    (an empty row is over 1), so two equal matrices have equal nums and
    dens, and comparing them compares ints.
    """

    _fields = ("rows", "cols", "nums", "dens")

    def __init__(self, rows: int, cols: int, nums: tuple[Row, ...],
                 dens: tuple[int, ...]) -> None:
        super().__init__(rows, cols, nums, dens)
        _checked(self)

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
        return _checked(_stack(ncols, [_over_lcm([
            (j, x.numerator, x.denominator) for j, x in enumerate(map(rat, r)) if x])
            for r in rows]))

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
        """The product: each row that ``_products`` accumulates, put in
        lowest terms."""
        if self.cols != other.rows:
            raise DimensionMismatch("multiply %dx%d by %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        return _stack(other.cols, [_reduce(acc, q) for acc, q in _products(self, other)])


def _products(left: Mat, right: Mat) -> Iterator[tuple[dict[int, int], int]]:
    """Each row of left @ right, for left.cols == right.rows, as (acc, q):
    a {column: numerator} dict over q, not in lowest terms, and holding
    the zeros of any sum that cancelled.

    Row i of left is x / d and row k of right is y_k / e_k.  Over the lcm
    e of the e_k for the k that row i stores, product row i is the integer
    row sum of x_k (e / e_k) y_k, over q = d e.
    """
    nums, dens = right.nums, right.dens
    for pairs, d in zip(left.nums, left.dens):
        e = lcm(*[dens[k] for k, _ in pairs])
        acc: dict[int, int] = {}
        for k, x in pairs:
            c = x * (e // dens[k]) if e != 1 else x
            for j, y in nums[k]:
                acc[j] = acc[j] + c * y if j in acc else c * y
        yield acc, d * e


def _checked(m: Mat) -> Mat:
    """m, once its storage is checked against the form the class docstring
    states; raises ValueError otherwise."""
    if m.cols < 0 or len(m.nums) != m.rows or len(m.dens) != m.rows:
        raise ValueError("%d stored rows over %d denominators do not make a %dx%d "
                         "matrix" % (len(m.nums), len(m.dens), m.rows, m.cols))
    for i, (pairs, d) in enumerate(zip(m.nums, m.dens)):
        last = -1
        for j, n in pairs:
            if not (last < j < m.cols and n):
                raise ValueError("row %d: numerator at column %r is zero, out of "
                                 "order or out of range" % (i, j))
            last = j
        if d != 1 and (d < 1 or gcd(d, *[n for _, n in pairs]) != 1):
            raise ValueError("row %d: denominator %r is not positive or shares a "
                             "factor with the numerators" % (i, d))
    return m


def _mat(rows: int, cols: int, nums: tuple[Row, ...], dens: tuple[int, ...]) -> Mat:
    """The Mat with these fields, unchecked and without the ``__init__`` of
    ``Mat`` or of its base ``Value``: the trusted constructor of the
    package's own writers, whose rows are already in the stored form."""
    m = _new(Mat)
    _setattr(m, "__dict__", {"rows": rows, "cols": cols, "nums": nums, "dens": dens})
    return m


def _stack(cols: int, rows: Sequence[tuple[Row, int]]) -> Mat:
    """The Mat whose row i is rows[i], a (pairs, denominator) row in lowest
    terms."""
    return _mat(len(rows), cols, tuple([pairs for pairs, _ in rows]),
                tuple([d for _, d in rows]))


def _combine(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """The primitive part of p row - a prow, with p = prow[c] and a = row[c].

    The result is zero in column c, the gcd of its entries is 1, and it is
    empty when the two rows are proportional.  One dict is built: row is
    copied, not multiplied, when p = 1, a prow is subtracted from it in
    place and column c is deleted; it is returned as it is when its content
    is 1 and no entry cancelled, else divided by its content without its
    zeros.
    """
    p, a = prow[c], row[c]
    acc = dict(row) if p == 1 else {j: p * x for j, x in row.items()}
    for j, y in prow.items():
        acc[j] = acc[j] - a * y if j in acc else -a * y
    del acc[c]
    h = gcd(*acc.values())
    if h == 1 and 0 not in acc.values():
        return acc
    return {j: v // h for j, v in acc.items() if v}


def _echelon(rows: list[dict[int, int]],
             cols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Forward elimination over the integers of rows given as
    {column: nonzero int} dicts with columns below cols; the dicts are not
    changed.

    Returns the echelon rows, one per pivot, and the pivot columns.  Row i
    holds pivot i in column pivots[i], is zero in every earlier column, and
    is primitive: the gcd of its entries is 1.  Each input row is first
    divided by its gcd.  At each pivot, every other row with a nonzero in
    the pivot column is replaced by its ``_combine`` with the pivot row,
    over the union of the two rows' nonzeros.  Up to sign, a primitive row
    is the one integer vector in the span of the rows used so far that
    vanishes on the earlier pivot columns, so its entries stay bounded by
    minors of the cleared matrix (the fraction-free pass of Bareiss).

    No zero cell is visited: a row waits under the column of its first
    nonzero.  The pivot is the shortest waiting row, the lower index
    breaking ties: a cleared row gains at most len(pivot row) - 1 new
    nonzeros, so this is Markowitz's rule within one column.
    """
    work = []
    waiting: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        g = gcd(*row.values())
        work.append({j: x // g for j, x in row.items()} if g > 1 else row)
        if row:
            waiting.setdefault(min(row), []).append(i)
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(cols):
        hits = waiting.pop(c, None)
        if hits is None:
            continue
        found = min(hits, key=lambda i: (len(work[i]), i))
        prow = work[found]
        for i in hits:
            if i != found:
                work[i] = _combine(work[i], prow, c)
                if work[i]:
                    waiting.setdefault(min(work[i]), []).append(i)
        echelon.append(prow)
        pivots.append(c)
    return echelon, pivots


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns: ``_reduced`` of m's
    numerator rows, each a positive multiple of m's row, padded with zero
    rows.  The result is the unique RREF: pivots are 1, pivot columns are
    cleared above and below, pivot columns strictly increase down the
    rows.
    """
    reduced, pivots = _reduced(list(map(dict, m.nums)), m.cols)
    pad = [((), 1)] * (m.rows - len(pivots))
    return _stack(m.cols, reduced + pad), tuple(pivots)


def _reduced(rows: list[dict[int, int]],
             cols: int) -> tuple[list[tuple[Row, int]], list[int]]:
    """The nonzero RREF rows of the int rows, {column: nonzero int} dicts
    with columns below cols, and their pivot columns.

    ``_echelon`` runs, then the echelon rows are reduced from the last
    pivot row upward: each later pivot column in a row is cleared by
    ``_combine`` with that pivot's row, already reduced, so each row ends
    zero in every pivot column but its own, and still primitive.  Each is
    then written over the absolute value of its pivot, which is in lowest
    terms because the row is primitive.  The dicts given are not changed.
    """
    rows, pivots = _echelon(rows, cols)
    pivot_row = {c: i for i, c in enumerate(pivots)}
    for i in range(len(pivots) - 1, -1, -1):
        for c in [c for c in rows[i] if c != pivots[i] and c in pivot_row]:
            rows[i] = _combine(rows[i], rows[pivot_row[c]], c)
    out = []
    for row, c in zip(rows, pivots):
        q = row[c]
        out.append((tuple([(j, row[j] if q > 0 else -row[j]) for j in sorted(row)]), abs(q)))
    return out, pivots


def rank(m: Mat) -> int:
    """The number of pivots of the forward elimination."""
    return len(_echelon(list(map(dict, m.nums)), m.cols)[1])


def det(m: Mat) -> Fraction:
    """Exact determinant, from one forward pass over [N | I], N the integer
    matrix of m's numerators: det m is det N over the product of m's row
    denominators.

    [N | I] has rank n, so the pass finds n pivots, and N is singular
    exactly when the last of them falls in the right half.  Each echelon
    row is a combination of the input rows: its right half is row i of a
    matrix G, and its left half is row i of E = G N.  The row that becomes
    pivot row i is a multiple of its own input row s(i) plus earlier pivot
    rows, so echelon row i has one identity column, n + s(i), that no
    earlier echelon row has.  So G with its columns put in the order s is
    lower triangular with the G[i, s(i)] on its diagonal, E is upper
    triangular, and det N = sign(s) prod E_ii / prod G[i, s(i)].
    """
    n = m.rows
    if n != m.cols:
        raise DimensionMismatch("determinant of %dx%d matrix" % (m.rows, m.cols))
    rows, pivots = _echelon([dict((*pairs, (n + i, 1))) for i, pairs in enumerate(m.nums)],
                            2 * n)
    if pivots and pivots[-1] >= n:
        return _ZERO
    num, den, order, taken = 1, prod(m.dens), [], set()
    for i, row in enumerate(rows):
        k = next(j for j in row if j >= n and j not in taken)
        taken.add(k)
        order.append(k - n)
        num, den = num * row[i], den * row[k]
    for i in range(n):  # the sign of s, one transposition at a time
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], j
            num = -num
    return Fraction(num, den)


class Subspace(Value):
    """A linear subspace of Q^n with a canonical basis.

    The basis matrix has one row per dimension: the nonzero rows of the
    RREF of any spanning set, so two Subspace values are equal exactly when
    they are the same subspace.
    """

    _fields = ("basis",)

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
        stacked = _mat(self.dim + other.dim, self.ambient_dim,
                       self.basis.nums + other.basis.nums, self.basis.dens + other.basis.dens)
        coeffs = nullspace(stacked.transpose()).basis
        # the x part of each coefficient row is its first self.dim entries
        x_parts = [_lowest([p for p in pairs if p[0] < self.dim], d)
                   for pairs, d in zip(coeffs.nums, coeffs.dens)]
        return rowspace(_stack(self.dim, x_parts) @ self.basis)


def rowspace(m: Mat) -> Subspace:
    """Canonical Subspace of Q^cols spanned by the rows of m."""
    return Subspace(_stack(m.cols, _reduced(list(map(dict, m.nums)), m.cols)[0]))


def nullspace(m: Mat) -> Subspace:
    """Canonical basis of {x : m x = 0}, back-solved from one forward pass
    by ``_kernel`` over m's numerator rows, each a positive multiple of m's
    row; no second Mat is built."""
    return Subspace(_stack(m.cols, _kernel(m.nums, m.cols)))


def _kernel(rows: Sequence[Iterable[tuple[int, int]]], cols: int) -> list[tuple[Row, int]]:
    """The RREF rows of the kernel of the matrix whose rows are the int
    rows given as (column, nonzero int) pairs, columns below cols, in any
    order within a row.

    The matrix is turned by 180 degrees, its rows and its columns both
    reversed, column j going to cols - 1 - j; the rows turn with the
    columns because reversing the columns alone about doubles the
    row-operation work on the banded system matrix of a cycle.  Only the
    forward elimination runs on the turned rows.  Each free column f of
    the echelon rows gives one solution x: x_f = 1, every other free
    column 0, and from the last pivot row upward x_c = -(row . x) / row[c]
    at the row's pivot c.  x is kept as one int vector over one
    denominator: when row[c] does not divide the sum s, the vector and its
    denominator are first multiplied by |row[c]| / gcd(s, row[c]).  A
    pivot right of f only sees columns right of it, so it solves to 0, and
    only the rows that pivot left of f are visited.  Turned back, x leads
    with the 1 at f and is zero at every other free column, so the vectors
    in the order of f are already the RREF.
    """
    last = cols - 1
    rows, pivots = _echelon([{last - j: n for j, n in row} for row in reversed(rows)], cols)
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
