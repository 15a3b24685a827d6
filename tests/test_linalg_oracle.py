"""The primitive-row elimination kernel and the sparse products against
slow reference implementations.

The oracles are the plain Fraction Gauss-Jordan elimination, a dense
Bareiss determinant loop, the dense triple-loop matrix product, and sympy
where it is installed.  Every comparison is exact.

Besides random dense-ish matrices, the kernel is compared on the matrices
its sparse forward pass is built for: the banded system matrices of
unipotent m-cycles with their corner blocks, those of paths with many
chords, whose cycles share their vertices, the system matrices of sampled
unipotent systems, tall and wide matrices of low rank, matrices in which
rows skip pivots or cancel to zero part way through, and empty and zero
matrices, the 24 permutation matrices of order 4, whose determinants take
their sign from the pivot order alone, and a singular matrix with permuted
rows.  On the same matrices every echelon row the forward pass returns is
checked to be nonzero and primitive, and the forward pass is checked to
return the same rows and pivots with the row operation it had before it
built one dict per operation (``parent_combine``).  The back-solved kernel is checked on its edge cases: empty and zero matrices,
free columns left of every pivot, and pivots that do not divide the sums.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
import random

import pytest

from monograph.checks import random_unipotent_systems
from monograph.cohomology import system_matrix
from monograph.graph import DualGraph, cycle_graph
from monograph import linalg
from monograph.linalg import (Mat, Subspace, _echelon, colspace, det, nullspace,
                              rank, rowspace, rref)
from monograph.localsystem import LocalSystem, _inverse

F = Fraction


def dense(m):
    """The rows of m with their zeros, as Fraction tuples.  Mat has no
    dense view; the oracles and the tests read cells through this, from
    the Fraction view of the stored entries."""
    out = []
    for pairs in m.entries:
        row = [F(0)] * m.cols
        for j, x in pairs:
            row[j] = x
        out.append(tuple(row))
    return out


def echelon(m):
    """The forward pass on m's numerator rows, read as dicts."""
    return _echelon(list(map(dict, m.nums)), m.cols)


def oracle_rref(m):
    """Gauss-Jordan over Fraction, one pivot column at a time."""
    work = [list(row) for row in dense(m)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y if y else x for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Mat.from_rows(work, cols=m.cols), tuple(pivots)


def oracle_det(m):
    """Bareiss forward elimination on the row-cleared integer matrix."""
    n = m.rows
    if n == 0:
        return F(1)
    scale = 1
    work = []
    for row in dense(m):
        d = lcm(*(x.denominator for x in row))
        scale *= d
        work.append([int(x * d) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if work[i][k] != 0), None)
            if swap is None:
                return F(0)
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[k][k] * work[i][j]
                              - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return F(sign * work[n - 1][n - 1], scale)


def oracle_span(ambient, vectors):
    """Canonical basis matrix of the span, one row per basis vector: the
    nonzero rows of the oracle rref."""
    reduced, _ = oracle_rref(Mat.from_rows([list(v) for v in vectors], cols=ambient))
    return Mat.from_rows([row for row in dense(reduced) if any(row)], cols=ambient)


def oracle_nullspace(m, reduced_pivots=None):
    """The kernel read off the oracle RREF, or off an RREF already checked
    against it."""
    reduced, pivots = reduced_pivots or oracle_rref(m)
    rows = dense(reduced)
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        vectors.append(v)
    return oracle_span(m.cols, vectors)


def oracle_inverse(m):
    n = m.rows
    augmented = [[*row, *(F(int(i == j)) for j in range(n))]
                 for i, row in enumerate(dense(m))]
    reduced, _ = oracle_rref(Mat.from_rows(augmented, cols=2 * n))
    return Mat.from_rows([row[n:] for row in dense(reduced)[:n]], cols=n)


def oracle_colspace(m):
    rows = dense(m)
    return oracle_span(m.rows, [[rows[i][j] for i in range(m.rows)]
                                for j in range(m.cols)])


def dense_matmul(a, b):
    da, db = dense(a), dense(b)
    return Mat.from_rows([[sum((da[i][k] * db[k][j] for k in range(a.cols)), F(0))
                           for j in range(b.cols)] for i in range(a.rows)], cols=b.cols)


def random_entry(rng, max_den):
    kind = rng.randrange(6)
    if kind < 2:
        return F(0)
    if kind < 4:
        return F(rng.randint(-9, 9))
    return F(rng.randint(-max_den, max_den), rng.randint(1, max_den))


def random_matrix(rng, rows, cols, max_den=10 ** 6):
    """Sparse-ish rational matrix, made rank-deficient half of the time by
    duplicating, negating or combining earlier rows."""
    out = []
    for i in range(rows):
        if i and rng.random() < 0.5:
            kind = rng.randrange(3)
            a = out[rng.randrange(i)]
            if kind == 0:
                row = list(a)
            elif kind == 1:
                c = F(rng.randint(-5, 5), rng.randint(1, 7))
                row = [-c * x for x in a]
            else:
                b = out[rng.randrange(i)]
                c = F(rng.randint(-max_den, max_den), rng.randint(1, max_den))
                row = [x + c * y for x, y in zip(a, b)]
        else:
            row = [random_entry(rng, max_den) for _ in range(cols)]
        out.append(row)
    return Mat.from_rows(out, cols=cols)


def matrices(seed, count, max_size=7):
    rng = random.Random(seed)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 5), (5, 1)]
    for rows, cols in shapes:
        yield random_matrix(rng, rows, cols)
    for _ in range(count):
        yield random_matrix(rng, rng.randint(1, max_size), rng.randint(1, max_size))


def first_pivot(m):
    """The entry the elimination pivots on first, or None for m = 0."""
    rows = dense(m)
    for j in range(m.cols):
        column = [row[j] for row in rows if row[j]]
        if column:
            return column[0]
    return None


def test_random_matrices_cover_the_hard_cases():
    """The samples have rank-deficient matrices, negative pivots and
    denominators near 10^6, so the oracle comparisons exercise them."""
    sample = list(matrices(0, 150))
    assert sum(rank(m) < min(m.rows, m.cols) for m in sample) > 30
    assert sum((first_pivot(m) or 0) < 0 for m in sample) > 30
    assert max(x.denominator for m in sample for row in dense(m) for x in row) > 10 ** 5


@pytest.mark.parametrize("seed", range(4))
def test_rref_rank_det_match_oracles(seed):
    for m in matrices(seed, 150):
        reduced, pivots = rref(m)
        assert (reduced, pivots) == oracle_rref(m)
        assert rank(m) == len(pivots)
        if m.rows == m.cols:
            assert det(m) == oracle_det(m)


@pytest.mark.parametrize("seed", range(4))
def test_square_det_and_inverse_match_oracles(seed):
    rng = random.Random(100 + seed)
    for _ in range(120):
        n = rng.randint(0, 6)
        m = random_matrix(rng, n, n)
        assert det(m) == oracle_det(m)
        if det(m) == 0:
            with pytest.raises(ValueError):
                _inverse(m)
            continue
        inv = _inverse(m)
        assert inv == oracle_inverse(m)
        assert dense_matmul(m, inv) == Mat.identity(n)


@pytest.mark.parametrize("seed", range(4))
def test_nullspace_colspace_span_match_oracles(seed):
    for m in matrices(10 + seed, 100):
        assert nullspace(m).basis == oracle_nullspace(m)
        assert colspace(m).basis == oracle_colspace(m)
        vectors = dense(m)
        assert Subspace.from_vectors(m.cols, vectors).basis == \
            oracle_span(m.cols, vectors)


@pytest.mark.parametrize("seed", range(4))
def test_row_basis_contract(seed):
    """A Subspace basis is the nonzero rows of the RREF, one row per basis
    vector; the column span is the row span of the transpose; and a vector
    of the wrong length is refused."""
    for m in matrices(10 + seed, 100):
        reduced, pivots = rref(m)
        space = rowspace(m)
        assert space.basis == Mat.from_rows(
            [row for row in dense(reduced) if any(row)], cols=m.cols)
        assert (space.dim, space.ambient_dim) == (len(pivots), m.cols)
        assert colspace(m) == rowspace(m.transpose())
        if m.rows:
            with pytest.raises(ValueError):
                Subspace.from_vectors(m.cols + 1, dense(m))
        with pytest.raises(ValueError):
            Subspace.from_vectors(m.cols, [*dense(m), [F(0)] * (m.cols + 1)])


@pytest.mark.parametrize("seed", range(3))
def test_sparse_products_match_dense_loop(seed):
    rng = random.Random(200 + seed)
    for _ in range(80):
        n, k, p = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a, b = random_matrix(rng, n, k), random_matrix(rng, k, p)
        assert a @ b == dense_matmul(a, b)
        v = tuple(random_entry(rng, 1000) for _ in range(k))
        column = Mat.from_rows([[x] for x in v], cols=1)
        assert a @ column == dense_matmul(a, column)
        da = dense(a)
        assert a.transpose() == Mat.from_rows([[da[i][j] for i in range(n)]
                                               for j in range(k)], cols=n)


def test_sympy_agrees_on_rref_rank_nullspace_det():
    sympy = pytest.importorskip("sympy")
    for m in matrices(300, 60, max_size=5):
        if not (m.rows and m.cols):
            continue
        s = to_sympy(sympy, m)
        s_reduced, s_pivots = s.rref()
        reduced, pivots = rref(m)
        assert pivots == tuple(s_pivots)
        assert [x for row in dense(reduced) for x in row] == \
            [F(int(x.p), int(x.q)) for x in s_reduced]
        assert rank(m) == s.rank()
        assert nullspace(m).dim == len(s.nullspace())
        if m.rows == m.cols:
            d = s.det()
            assert det(m) == F(int(d.p), int(d.q))


def cycle_system_matrix(m):
    """System matrix of a unipotent2 m-cycle: block-tridiagonal with two
    corner blocks, rational cocycle values, holonomy 0 for odd m."""
    rng = random.Random(m)
    gvals = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m - 1)]
    # the closing edge runs 0 -> m-1, so this closing value gives holonomy 0
    gvals.append(sum(gvals) if m % 2 else F(rng.randint(-5, 5)))
    return system_matrix(LocalSystem.unipotent_rank2(cycle_graph(m), gvals))


def path_with_chords(n, m, seed):
    """The edges of the path 0 - ... - (n-1) plus chords, which are
    rng.sample(range(n), 2) pairs from random.Random(seed) until there are
    m edges, and a unipotent2 cocycle of rng.randint(-5, 5) per edge from
    the same rng."""
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    while len(edges) < m:
        edges.append(tuple(rng.sample(range(n), 2)))
    return tuple(edges), [rng.randint(-5, 5) for _ in edges]


def chord_system_matrix(n, m):
    """System matrix of unipotent2 on a path with chords, m - n + 1
    independent cycles on n vertices."""
    edges, gvals = path_with_chords(n, m, 1000 * n + m)
    return system_matrix(LocalSystem.unipotent_rank2(DualGraph(n, edges), gvals))


def low_rank_matrix(rng, rows, cols, k):
    """A rows x cols product through Q^k, so its rank is at most k."""
    return random_matrix(rng, rows, k) @ random_matrix(rng, k, cols)


def sparse_integer_matrix(rng, rows, cols):
    """Mostly zero, so most rows skip most pivots."""
    return Mat.from_rows([[F(rng.randint(-4, 4)) if rng.random() < 0.3 else F(0)
                           for _ in range(cols)] for _ in range(rows)], cols=cols)


# Row 1 is zero in columns 0 and 1: it skips two pivots and becomes the
# pivot row of column 2 as it was read; row 3 is zero in column 0 and is
# first combined at pivot 1.
SKIPS_PIVOTS = Mat.from_rows([[2, 1, 0, 1],
                              [0, 0, 3, 1],
                              [4, 5, 1, 0],
                              [0, 7, 2, 5]])

# Row 2 is row 0 plus row 1: it survives pivot 0 and cancels to zero at
# pivot 1, where its combination is all zero and has content 0.
CANCELS = Mat.from_rows([[1, 2, 0],
                         [0, 3, 1],
                         [1, 5, 1]])


# Row 1 is row 0 plus rows 2 and 3, and the rows are out of pivot order.
PERMUTED_SINGULAR = Mat.from_rows([[0, 0, 1, 2],
                                   [1, 3, 5, 7],
                                   [0, 1, 1, 1],
                                   [1, 2, 3, 4]])


def permutation_matrix(order):
    """The matrix with a 1 at (i, order[i]) for each row i."""
    return Mat.from_rows([[int(j == k) for j in range(len(order))] for k in order])


def structured_matrices():
    rng = random.Random(400)
    yield from (system_matrix(sys) for sys in random_unipotent_systems(rng, 30))
    for _ in range(15):
        rows, cols = rng.randint(8, 14), rng.randint(1, 5)
        yield low_rank_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        yield low_rank_matrix(rng, cols, rows, rng.randint(1, min(rows, cols)))
    for _ in range(40):
        yield sparse_integer_matrix(rng, rng.randint(2, 9), rng.randint(2, 9))
    yield SKIPS_PIVOTS
    yield CANCELS
    yield from map(permutation_matrix, permutations(range(4)))
    yield PERMUTED_SINGULAR
    yield from (Mat.zeros(r, c) for r, c in [(1, 1), (3, 5), (5, 3), (0, 0),
                                             (0, 6), (6, 0)])


def assert_kernel_matches_oracles(m):
    reduced, pivots = rref(m)
    assert (reduced, pivots) == oracle_rref(m)
    assert rank(m) == len(pivots)
    assert nullspace(m).basis == oracle_nullspace(m, (reduced, pivots))
    if m.rows == m.cols:
        assert det(m) == oracle_det(m)


# the m-cycles, and two graphs with many independent cycles: m - n + 1 of
# them, where an m-cycle has one
SYSTEM_MATRICES = (
    [pytest.param(cycle_system_matrix, (m,), id=str(m)) for m in range(2, 41)]
    + [pytest.param(chord_system_matrix, (n, m), id="chords-%d-%d" % (n, m))
       for n, m in ((12, 24), (20, 40))])


@pytest.mark.parametrize("build, size", SYSTEM_MATRICES)
def test_cycle_system_matrices_match_oracles(build, size):
    a = build(*size)
    assert_kernel_matches_oracles(a)
    # shifted off the kernel, the system matrix has a nonzero determinant
    shifted = Mat.from_rows([[x + 1 if i == j else x for j, x in enumerate(row)]
                             for i, row in enumerate(dense(a))])
    assert det(shifted) == oracle_det(shifted) != 0


def test_structured_matrices_match_oracles():
    sample = list(structured_matrices())
    assert any(rank(m) < min(m.rows, m.cols) and m.rows > 2 * m.cols for m in sample)
    assert any(rank(m) < min(m.rows, m.cols) and m.cols > 2 * m.rows for m in sample)
    for m in sample:
        assert_kernel_matches_oracles(m)


def test_skipped_rows_catch_up():
    reduced, pivots = rref(SKIPS_PIVOTS)
    assert pivots == (0, 1, 2, 3) and reduced == Mat.identity(4)
    assert det(SKIPS_PIVOTS) == oracle_det(SKIPS_PIVOTS) == -176


def test_pivot_is_the_shortest_waiting_row():
    """Column 0 waits on all three rows.  Rows 1 and 2 have two nonzeros
    to row 0's four, and of the two the lower index, row 1, pivots,
    divided by its gcd."""
    m = Mat.from_rows([[1, 1, 1, 1], [2, 0, 0, 4], [1, 0, 3, 0]])
    rows, pivots = echelon(m)
    assert pivots == [0, 1, 2]
    assert rows == [{0: 1, 3: 2}, {1: 1, 2: 1, 3: -1}, {2: 3, 3: -2}]


def test_row_cancelling_to_zero():
    rows, pivots = echelon(CANCELS)
    assert pivots == [0, 1] and rows == [{0: 1, 1: 2}, {1: 3, 2: 1}]
    assert rank(CANCELS) == len(oracle_rref(CANCELS)[1]) == 2
    assert det(CANCELS) == oracle_det(CANCELS) == 0


def assert_rows_primitive(m):
    rows, pivots = echelon(m)
    assert len(rows) == len(pivots)
    for row, c in zip(rows, pivots):
        assert row and min(row) == c
        assert gcd(*row.values()) == 1


def test_forward_rows_are_primitive():
    for m in structured_matrices():
        assert_rows_primitive(m)
    for m in range(2, 41):
        assert_rows_primitive(cycle_system_matrix(m))


def test_empty_and_zero_matrices():
    for rows, cols in [(0, 0), (0, 4), (4, 0), (3, 5)]:
        z = Mat.zeros(rows, cols)
        assert rref(z) == (z, ())
        assert rank(z) == 0
        assert nullspace(z).basis == Mat.identity(cols)
    assert det(Mat.zeros(0, 0)) == 1
    assert det(Mat.zeros(3, 3)) == 0


def to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in dense(m) for x in row])


def test_sympy_agrees_on_structured_matrices():
    """Cycles up to m = 12 and the largest, m = 40: sympy takes about 0.45 s
    on that one, so the cycles between are left to the Fraction oracles."""
    sympy = pytest.importorskip("sympy")
    sample = [cycle_system_matrix(m) for m in (*range(2, 13), 40)]
    sample += [m for m in structured_matrices() if m.rows and m.cols]
    for m in sample:
        s = to_sympy(sympy, m)
        s_reduced, s_pivots = s.rref()
        reduced, pivots = rref(m)
        assert pivots == tuple(s_pivots)
        assert [x for row in dense(reduced) for x in row] == \
            [F(int(x.p), int(x.q)) for x in s_reduced]
        assert rank(m) == s.rank()
        assert nullspace(m).dim == len(s.nullspace())
        if m.rows == m.cols:
            d = s.det()
            assert det(m) == F(int(d.p), int(d.q))


def parent_combine(row, prow, c):
    """The row operation as it was before it built one dict: p row - a prow
    written into a fresh dict, then divided by its content into another."""
    p, a = prow[c], row[c]
    acc = {j: p * x for j, x in row.items()}
    for j, y in prow.items():
        acc[j] = acc.get(j, 0) - a * y
    h = gcd(*acc.values())
    return {j: v // h for j, v in acc.items() if v}


def test_eliminate_matches_the_parent_combine(monkeypatch):
    """The one-dict row operation changes no echelon row or pivot, on
    the random corpus, the structured matrices and the cycle and
    many-cycle system matrices."""
    sample = [*matrices(500, 150), *structured_matrices(),
              *(cycle_system_matrix(m) for m in range(2, 41)),
              chord_system_matrix(12, 24), chord_system_matrix(20, 40)]
    ours = [echelon(m) for m in sample]
    monkeypatch.setattr(linalg, "_combine", parent_combine)
    assert [echelon(m) for m in sample] == ours
    assert any(rows for rows, _ in ours)


BIG = 10 ** 30 + 7  # pivots this large divide none of the sums the back-solve meets

# name: a matrix whose back-solve takes that edge case
BACK_SOLVE_CASES = {
    "0x4": Mat.zeros(0, 4),
    "4x0": Mat.zeros(4, 0),
    "all zero": Mat.zeros(3, 5),
    "full rank square": Mat.from_rows([[2, 1, 0], [1, 1, 1], [0, 3, 5]]),
    "free column left of every pivot": Mat.from_rows([[0, 1, 2, 3], [0, 0, 4, 5]]),
    "free column right of every pivot": Mat.from_rows([[1, 2, 3], [0, 4, 5]]),
    "non-unit row denominators": Mat.from_rows([["1/3", "2/5", 0, "-7/2"],
                                                ["4/9", 0, "5/7", "1/6"]]),
    "pivots that divide no sum": Mat.from_rows([[BIG, 3, 5, 0, 1],
                                                [0, BIG + 2, 0, 7, -1],
                                                [2, 0, BIG * 3 + 1, 1, 0]]),
}


@pytest.mark.parametrize("name", BACK_SOLVE_CASES)
def test_back_solve_edge_cases(name):
    m = BACK_SOLVE_CASES[name]
    kernel = nullspace(m).basis
    assert kernel == oracle_nullspace(m)
    assert kernel.rows == m.cols - rank(m)
    assert m @ kernel.transpose() == Mat.zeros(m.rows, kernel.rows)
    if name == "pivots that divide no sum":
        # every kernel row is over a denominator the rescaling built
        assert min(kernel.dens) > BIG
