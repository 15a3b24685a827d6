"""Drawn sparse matrices: the integer fast paths against their Fraction oracles.

The product is compared with the dense triple loop and the kernel with the
one read off the Fraction Gauss-Jordan elimination.  The drawn matrices have
zero rows and columns, rows that are combinations of earlier rows (so the
elimination cancels them to zero), products whose terms cancel exactly,
negative pivots and denominators up to 10^6, mixed within one row.

The storage itself is checked on drawn rational rows: every builder stores
the same values the same way, documents render each cell as str of its
Fraction, and the constructor refuses any row that is not in lowest terms.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

from monograph.linalg import Mat, _kernel, nullspace, rank, rref
from monograph.report import matrix_grid

from test_linalg_oracle import dense, dense_matmul, first_pivot, oracle_nullspace

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

# a fixed sequence of examples, so the coverage each test asserts is stable;
# no per-example deadline: timing on a loaded host says nothing about exactness
fixed = settings(deadline=None, max_examples=200, derandomize=True, database=None)

entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
)
scalars = st.builds(Fraction, st.integers(1, 50) | st.integers(-50, -1),
                    st.integers(1, 10 ** 6))


@st.composite
def cells(draw, rows, cols):
    """rows x cols dense cells: some rows and columns zero, and some rows
    a rational combination of two earlier rows."""
    grid = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.integers(0, 3)) == 0:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c, d = draw(scalars), draw(scalars)
            grid[i] = [c * x + d * y for x, y in zip(grid[a], grid[b])]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)) if rows else ():
        grid[i] = [Fraction(0)] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else ():
        for row in grid:
            row[j] = Fraction(0)
    return grid


sizes = st.integers(0, 6)


@st.composite
def matrices(draw):
    rows, cols = draw(sizes), draw(sizes)
    return Mat.from_rows(draw(cells(rows, cols)), cols=cols)


@st.composite
def products(draw):
    """(a, b) with a.cols == b.rows; when the shapes allow, row i of a is
    nonzero only at s and t, and b[t] is set so that
    a[i, s] b[s] + a[i, t] b[t] = 0: row i of the product cancels to zero."""
    n, k, p = draw(sizes), draw(sizes), draw(sizes)
    a, b = draw(cells(n, k)), draw(cells(k, p))
    if n and k >= 2:
        i, (s, t) = draw(st.integers(0, n - 1)), draw(st.permutations(range(k)))[:2]
        c = draw(scalars)
        b[t] = [c * x for x in b[s]]
        a[i] = [Fraction(0)] * k
        a[i][s] = draw(scalars)
        a[i][t] = -a[i][s] / c
    return Mat.from_rows(a, cols=k), Mat.from_rows(b, cols=p)


def cancelled_cells(a, b):
    """Product cells that are zero though one of their terms is not."""
    da, db = dense(a), dense(b)
    return sum(1 for i in range(a.rows) for j in range(b.cols)
               if any(da[i][k] * db[k][j] for k in range(a.cols))
               and not sum(da[i][k] * db[k][j] for k in range(a.cols)))


def features(m):
    """The hard cases m exhibits, by name."""
    columns = list(zip(*dense(m)))
    denominators = {x.denominator for pairs in m.entries for _, x in pairs}
    return {name for name, present in [
        ("zero row", any(not pairs for pairs in m.nums)),
        ("zero column", any(not any(column) for column in columns)),
        ("row cancels", all(m.nums) and rank(m) < min(m.rows, m.cols)),
        ("negative pivot", (first_pivot(m) or 0) < 0),
        ("mixed denominators", len(denominators) > 2 and max(denominators) > 10 ** 5),
    ] if present}


def test_product_matches_dense_loop():
    seen = []

    @fixed
    @given(products())
    def check(pair):
        a, b = pair
        assert a @ b == dense_matmul(a, b)
        seen.append(cancelled_cells(a, b))

    check()
    assert sum(map(bool, seen)) > 20


def test_nullspace_matches_oracle():
    """Also on a row-permuted copy: ``_kernel`` reverses the row order before
    it eliminates, and the kernel must not depend on that order.  The
    back-solve is seen to rescale its vector (a kernel row over a
    denominator other than 1) and to solve a free column left of every
    pivot."""
    seen = set()

    @fixed
    @given(matrices(), st.data())
    def check(m, data):
        basis = oracle_nullspace(m)
        assert nullspace(m).basis == basis
        order = data.draw(st.permutations(range(m.rows)))
        permuted = Mat(m.rows, m.cols, tuple(m.nums[i] for i in order),
                       tuple(m.dens[i] for i in order))
        assert nullspace(permuted).basis == basis
        seen.update(features(m))
        if any(d > 1 for d in basis.dens):
            seen.add("rescaled")
        if basis.rows and rank(m) and basis.nums[0][0][0] < rref(m)[1][0]:
            seen.add("free column left of every pivot")

    check()
    assert seen == {"zero row", "zero column", "row cancels", "negative pivot",
                    "mixed denominators", "rescaled", "free column left of every pivot"}


def test_kernel_reads_pairs_in_any_order():
    """``_kernel`` reads each row's (column, int) pairs in any order: with
    every row's pairs shuffled, it gives nullspace(m)'s rows."""
    seen = set()

    @fixed
    @given(matrices(), st.data())
    def check(m, data):
        rows = [data.draw(st.permutations(pairs)) for pairs in m.nums]
        basis = nullspace(m).basis
        assert _kernel(rows, m.cols) == list(zip(basis.nums, basis.dens))
        if any(list(row) != sorted(row) for row in rows):
            seen.add("shuffled")
        if basis.rows:
            seen.add("kernel")

    check()
    assert seen == {"shuffled", "kernel"}


def unreduced(x, k):
    """x as a 'p/q' string with numerator and denominator both times k."""
    return "%d/%d" % (x.numerator * k, x.denominator * k)


def fraction_oracle(grid, cols):
    """The Mat of a grid of Fractions, built by ``Mat(...)``: each row's
    nonzero entries times the lcm of its denominators, over that lcm."""
    nums, dens = [], []
    for row in grid:
        d = lcm(*[x.denominator for x in row])
        nums.append(tuple((j, int(x * d)) for j, x in enumerate(row) if x))
        dens.append(d)
    return Mat(len(grid), cols, tuple(nums), tuple(dens))


def test_builders_store_equal_values_equally():
    """from_rows over ints and Fractions and over unreduced strings, and
    ``Mat(...)`` over the Fraction oracle's rows give one Mat: equal, with
    equal hashes, every row in lowest terms, and with the drawn Fractions
    as its view."""
    seen = set()

    @fixed
    @given(st.integers(0, 5).flatmap(lambda cols: st.tuples(
        st.just(cols), st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                max_size=5))),
           st.integers(1, 7))
    def check(shape, k):
        cols, grid = shape
        built = [
            Mat.from_rows(grid, cols=cols),
            Mat.from_rows([[int(x) if x.denominator == 1 else x for x in row]
                           for row in grid], cols=cols),
            Mat.from_rows([[unreduced(x, k) for x in row] for row in grid], cols=cols),
            fraction_oracle(grid, cols),
        ]
        assert all(m == built[0] and hash(m) == hash(built[0]) for m in built)
        m = built[0]
        for pairs, d in zip(m.nums, m.dens):
            assert d > 0 and gcd(d, *[n for _, n in pairs]) == 1
            assert all(n and type(n) is int for _, n in pairs)
        assert dense(m) == [tuple(row) for row in grid]
        seen.update(name for name, present in [
            ("empty row", not all(m.nums)),
            ("negative entry", any(x < 0 for row in grid for x in row)),
            ("big denominator", any(d > 10 ** 5 for d in m.dens)),
            ("unreduced string", k > 1 and any(x for row in grid for x in row)),
        ] if present)

    check()
    assert seen == {"empty row", "negative entry", "big denominator", "unreduced string"}


def test_matrix_grid_is_str_of_each_fraction():
    """Rows over 1 render str of the numerator, other rows reduce each entry
    by a gcd; both must read as str(Fraction) cell by cell."""

    @fixed
    @given(st.one_of(matrices(), products().map(lambda pair: pair[0] @ pair[1])))
    def check(m):
        assert matrix_grid(m) == [list(map(str, row)) for row in dense(m)]

    check()


CORRUPTIONS = ("zero denominator", "negative denominator", "common factor",
               "zero numerator", "repeated column", "decreasing column",
               "column past end", "negative column")


@st.composite
def corrupted_rows(draw):
    """(cols, pairs, d, kind): a lowest-terms row of a drawn matrix, then
    spoiled in the way `kind` names."""
    cols = draw(st.integers(2, 6))
    row = draw(st.lists(entries, min_size=cols, max_size=cols))
    m = Mat.from_rows([row], cols=cols)
    pairs, d = list(m.nums[0]), m.dens[0]
    kind = draw(st.sampled_from(CORRUPTIONS))
    if kind == "zero denominator":
        d = 0
    elif kind == "negative denominator":
        d = -draw(st.integers(1, 10 ** 6))
    elif kind == "common factor":
        k = draw(st.integers(2, 9))
        pairs, d = [(j, n * k) for j, n in pairs], d * k
    elif kind == "zero numerator":
        free = sorted(set(range(cols)) - {j for j, _ in pairs})
        if free:
            pairs = sorted(pairs + [(draw(st.sampled_from(free)), 0)])
        else:
            pairs[0] = (pairs[0][0], 0)
    elif kind == "column past end":
        pairs.append((cols + draw(st.integers(0, 3)), 1))
    elif kind == "negative column":
        pairs.insert(0, (-draw(st.integers(1, 3)), 1))
    else:
        if not pairs:
            pairs = [(0, 1)]
        j, n = pairs[-1]
        pairs.append((j if kind == "repeated column" else j - 1, n))
    return cols, tuple(pairs), d, kind


def test_constructor_refuses_rows_not_in_lowest_terms():
    seen = set()

    @fixed
    @given(corrupted_rows())
    def check(case):
        cols, pairs, d, kind = case
        with pytest.raises(ValueError):
            Mat(1, cols, (pairs,), (d,))
        seen.add(kind)

    check()
    assert seen == set(CORRUPTIONS)
