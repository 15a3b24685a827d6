"""Drawn sparse matrices: the integer fast paths against their Fraction oracles.

The product is compared with the dense triple loop and the kernel with the
one read off the Fraction Gauss-Jordan elimination.  The drawn matrices have
zero rows and columns, rows that are combinations of earlier rows (so the
elimination cancels them to zero), products whose terms cancel exactly,
negative pivots and denominators up to 10^6, mixed within one row.
"""

from fractions import Fraction

import pytest

from monograph.linalg import Mat, nullspace, rank

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
    denominators = {x.denominator for pairs in m.nonzero for _, x in pairs}
    return {name for name, present in [
        ("zero row", any(not pairs for pairs in m.nonzero)),
        ("zero column", any(not any(column) for column in columns)),
        ("row cancels", all(m.nonzero) and rank(m) < min(m.rows, m.cols)),
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
    """Also on a row-permuted copy: nullspace reverses the row order before
    it eliminates, and the kernel must not depend on that order."""
    seen = set()

    @fixed
    @given(matrices(), st.data())
    def check(m, data):
        basis = oracle_nullspace(m)
        assert nullspace(m).basis == basis
        order = data.draw(st.permutations(range(m.rows)))
        assert nullspace(Mat(m.rows, m.cols, tuple(m.nonzero[i] for i in order))).basis \
            == basis
        seen.update(features(m))

    check()
    assert seen == {"zero row", "zero column", "row cancels", "negative pivot",
                    "mixed denominators"}
