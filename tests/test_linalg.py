"""Exact linear algebra: examples plus randomized algebraic invariants."""

from fractions import Fraction
import random

import pytest

from monograph.linalg import (DimensionMismatch, Mat, Subspace, colspace, det,
                              nullspace, parse_rational, rank, rat, rref)

from test_linalg_oracle import dense

F = Fraction


def random_matrix(rng, rows, cols, densities=(0, 1, -1, 2, "1/2", "-2/3", 5)):
    return Mat.from_rows([[rat(rng.choice(densities)) for _ in range(cols)]
                          for _ in range(rows)], cols=cols)


# the 3-cycle rank-2 balance matrix with all cocycle values 1
CYCLE_SYSTEM_111 = Mat.from_rows([
    [2, 0, -1, -1, -1, -1],
    [0, 2, 0, -1, 0, -1],
    [-1, 1, 2, 0, -1, -1],
    [0, -1, 0, 2, 0, -1],
    [-1, 1, -1, 1, 2, 0],
    [0, -1, 0, -1, 0, 2],
])

TRIANGLE_LAPLACIAN = Mat.from_rows([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def in_span(space, v):
    """Membership: adding v to a spanning set leaves the subspace unchanged."""
    spanning = dense(space.basis)
    return Subspace.from_vectors(space.ambient_dim, [*spanning, v]) == space


class TestRationals:
    def test_parse_integer_and_fraction(self):
        assert parse_rational("3") == F(3)
        assert parse_rational("-7/2") == F(-7, 2)
        assert parse_rational("4/6") == F(2, 3)  # lowest terms

    @pytest.mark.parametrize("bad", ["1.5", "2e3", "abc", "1/0", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", ["0", "-0", "+3", "007", " -12/8 ", "+0/5", "-7/1",
                                      "10/0004", "9" * 4000 + "/" + "7" * 4000])
    def test_parse_reads_what_fraction_reads(self, text):
        value = parse_rational(text)
        assert type(value) is F and value == F(text)

    @pytest.mark.parametrize("text, shown", [("1/0", "Fraction(1, 0)"),
                                             ("-3/00", "Fraction(-3, 0)"),
                                             ("+007/0", "Fraction(7, 0)")])
    def test_zero_denominator_message(self, text, shown):
        with pytest.raises(ValueError) as caught:
            parse_rational(text)
        assert str(caught.value) == "bad rational literal %r: %s" % (text, shown)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)

    @pytest.mark.parametrize("bad", ["1.5", "2e3", "1_000", "\u0661", True],
                             ids=["decimal", "exponent", "separator",
                                  "arabic-indic-digit", "bool"])
    def test_library_reads_rationals_as_the_file_formats_do(self, bad):
        """Every value the input files reject, the library rejects too:
        strings go through parse_rational, and bool is refused like float."""
        from monograph.tate import tate_report
        error = TypeError if isinstance(bad, bool) else ValueError
        with pytest.raises(error):
            rat(bad)
        with pytest.raises(error):
            tate_report(3, (1, 2, bad))
        with pytest.raises(error):
            Mat.from_rows([[1, bad]])


class TestRref:
    def test_dependent_rows(self):
        reduced, pivots = rref(Mat.from_rows([[2, 4], [1, 2]]))
        assert reduced == Mat.from_rows([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_identity(self):
        reduced, pivots = rref(Mat.identity(3))
        assert reduced == Mat.identity(3)
        assert pivots == (0, 1, 2)

    def test_cycle_system_rank4_echelon(self):
        # hand row-reduction of the g=(1,1,1) balance matrix, frozen
        expected = Mat.from_rows([
            [1, 0, 0, 0, -1, "-4/3"],
            [0, 1, 0, 0, 0, -1],
            [0, 0, 1, 0, -1, "-2/3"],
            [0, 0, 0, 1, 0, -1],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ])
        reduced, pivots = rref(CYCLE_SYSTEM_111)
        assert reduced == expected
        assert pivots == (0, 1, 2, 3)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            reduced, _ = rref(m)
            assert rref(reduced)[0] == reduced

    def test_zero_rows_and_columns(self):
        assert rref(Mat.zeros(0, 3))[1] == ()
        assert rref(Mat.zeros(3, 0))[1] == ()


class TestRank:
    def test_zero(self):
        assert rank(Mat.zeros(2, 2)) == 0

    @pytest.mark.parametrize("gvals", [(1, 1, 1), (1, 2, 4), (6, 3, 9), (0, 0, 0)])
    def test_cycle_system_rank_4(self, gvals):
        from monograph.tate import tate_report
        assert rank(tate_report(3, gvals).system) == 4

    def test_triangle_laplacian(self):
        assert rank(TRIANGLE_LAPLACIAN) == 2

    def test_rank_nullity(self):
        rng = random.Random(5)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert rank(m) + nullspace(m).dim == m.cols


class TestNullspace:
    def test_identity_has_zero_kernel(self):
        assert nullspace(Mat.identity(3)) == Subspace.zero(3)

    def test_triangle_laplacian_kernel(self):
        assert nullspace(TRIANGLE_LAPLACIAN) == Subspace.from_vectors(3, [[1, 1, 1]])

    def test_cycle_system_kernel_generators(self):
        # g = (1, 2, 4): the kernel is spanned by the constant first-frame
        # section and the generator with unit second components
        from monograph.checks import CYCLE_KERNEL_124
        from monograph.tate import tate_report
        k_const, k_unit = CYCLE_KERNEL_124
        kernel = nullspace(tate_report(3, (1, 2, 4)).system)
        assert kernel.dim == 2
        assert kernel == Subspace.from_vectors(6, [k_const, k_unit])
        assert in_span(kernel, k_const)
        assert in_span(kernel, [rat(x) for x in k_unit])


class TestColspace:
    def test_zero(self):
        assert colspace(Mat.zeros(2, 2)) == Subspace.zero(2)

    def test_rank_one(self):
        assert colspace(Mat.from_rows([[1, 1], [0, 0]])) == \
            Subspace.from_vectors(2, [[1, 0]])

    def test_triangle_coboundary_image_is_a_plane(self):
        from monograph.cohomology import coboundary_matrix
        from monograph.graph import cycle_graph
        from monograph.localsystem import LocalSystem
        sys = LocalSystem.trivial(cycle_graph(3), 1)
        assert colspace(coboundary_matrix(sys)).dim == 2


class TestIntersect:
    def test_axes(self):
        a = Subspace.from_vectors(2, [[1, 0]])
        b = Subspace.from_vectors(2, [[0, 1]])
        assert a.intersect(b) == Subspace.zero(2)

    def test_full_space_is_neutral(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(1, 5)
            vectors = [[rat(rng.randint(-3, 3)) for _ in range(n)]
                       for _ in range(rng.randint(0, n))]
            a = Subspace.from_vectors(n, vectors)
            assert a.intersect(colspace(Mat.identity(n))) == a

    def test_commutative_and_dim_formula(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 6)
            mk = lambda: Subspace.from_vectors(
                n, [[rat(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(rng.randint(0, n))])
            a, b = mk(), mk()
            meet = a.intersect(b)
            assert meet == b.intersect(a)
            total = Subspace.from_vectors(
                n, dense(a.basis) + dense(b.basis))
            assert a.dim + b.dim == meet.dim + total.dim
            for v in dense(meet.basis):
                assert in_span(a, v) and in_span(b, v)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace.zero(2).intersect(Subspace.zero(3))


class TestContains:
    def test_coboundary_image_contains_obstruction_generator(self):
        # the nonzero kernel edge image lies in the coboundary image
        from monograph.cohomology import coboundary_image
        from monograph.tate import build_tate
        _, sys = build_tate(3, (1, 2, 4))
        assert in_span(coboundary_image(sys), ["1/3", 0, "1/3", 0, "-1/3", 0])


class TestDet:
    def test_identity(self):
        assert det(Mat.identity(4)) == 1

    @pytest.mark.parametrize("gvals", [(1, 1, 1), (1, 2, 4), ("1/2", "-3/7", 11)])
    def test_cycle_system_is_singular(self, gvals):
        from monograph.tate import tate_report
        assert tate_report(3, gvals).det == 0

    def test_two_by_two(self):
        assert det(Mat.from_rows([[2, 1], [1, 2]])) == 3

    def test_rational_entries(self):
        m = Mat.from_rows([["1/2", "1/3"], ["1/4", "1/5"]])
        assert det(m) == F(1, 10) - F(1, 12)

    def test_nonzero_iff_full_rank(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            assert (det(m) != 0) == (rank(m) == n)

    def test_matches_cofactor_expansion(self):
        # independent oracle: recursive Laplace expansion
        def laplace(rows):
            n = len(rows)
            if n == 1:
                return rows[0][0]
            total = F(0)
            for j in range(n):
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * laplace(minor)
            return total

        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n)
            assert det(m) == laplace([list(row) for row in dense(m)])

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            det(Mat.zeros(2, 3))


class TestCanonicalForm:
    def test_equal_spans_equal_values(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 5)
            vectors = [[rat(rng.randint(-4, 4)) for _ in range(n)]
                       for _ in range(rng.randint(1, n))]
            a = Subspace.from_vectors(n, vectors)
            # rescale and shuffle a spanning set of the same space
            mixed = [[3 * x for x in v] for v in vectors]
            if len(vectors) >= 2:
                mixed.append([x + y for x, y in zip(vectors[0], vectors[1])])
            rng.shuffle(mixed)
            assert Subspace.from_vectors(n, mixed) == a

    def test_exactness_of_arithmetic(self):
        # a denominator can only come from the inputs' pivots: reducing
        # [[3, 1], [0, 1]] must produce exactly 1/3, not an approximation
        reduced, _ = rref(Mat.from_rows([[3, 1], [0, 2]]))
        assert reduced == Mat.from_rows([[1, 0], [0, 1]])
        reduced, _ = rref(Mat.from_rows([[3, 1]]))
        assert dense(reduced)[0] == (F(1), F(1, 3))


class TestMat:
    def test_matmul_shapes(self):
        with pytest.raises(DimensionMismatch):
            Mat.zeros(2, 3) @ Mat.zeros(2, 3)

    def test_transpose_involution(self):
        rng = random.Random(2)
        m = random_matrix(rng, 3, 4)
        assert m.transpose().transpose() == m

    @pytest.mark.parametrize("build, args", [
        (Mat, (1, 2, (row,), (den,))) for row, den in [
            (((0, 0),), 1), (((0, 1), (0, 2)), 1), (((1, 1), (0, 2)), 1),
            (((2, 1),), 1), (((-1, 1),), 1), (((0, 1),), 0), (((0, 1),), -1),
            (((0, 2), (1, 4)), 6), ((), 2)]] + [
        (Mat.from_dicts, ([{5: 1}], 3)), (Mat.from_dicts, ([{-1: 1}], 3)),
        (Mat.from_rows, ([[1, 2], [3]],)), (Mat.from_rows, ([[1, 2]], 3)),
        (Mat.identity, (-1,)), (Mat.zeros, (-1, 3))],
        ids=["stored-zero", "repeated-column", "decreasing-column",
             "column-past-end", "negative-column", "zero-denominator",
             "negative-denominator", "common-factor", "empty-row-over-2",
             "from-dicts-past-end", "from-dicts-negative-column", "from-rows-ragged",
             "from-rows-mis-sized", "identity-negative", "zeros-negative"])
    def test_rejects_invalid_rows(self, build, args):
        """Every public builder refuses rows that are not in stored form."""
        with pytest.raises(ValueError):
            build(*args)

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            Mat(2, 2, (((0, 1),),), (1,))
        with pytest.raises(ValueError):
            Mat(1, 2, (1, 0), (1,))  # dense entries are not rows
        with pytest.raises(ValueError):
            Mat(1, 2, (((0, 1),),), (1, 1))  # one denominator per row

    def test_builders_store_nonzeros_only(self):
        m = Mat.from_rows([[0, 2, 0], [0, 0, 0]])
        assert (m.nums, m.dens) == ((((1, 2),), ()), (1, 1))
        assert m.entries == (((1, F(2)),), ())
        assert Mat.from_dicts([{2: F(0), 1: F(2)}, {0: F(0)}], 3) == m

    def test_rows_are_stored_in_lowest_terms(self):
        m = Mat.from_rows([["1/2", "2/3", 0], ["2/4", 0, "-4/2"]])
        assert m.nums == (((0, 3), (1, 4)), ((0, 1), (2, -4)))
        assert m.dens == (6, 2)
