"""The cycle workbench: golden values and the defect dichotomy."""

import random
from fractions import Fraction

import pytest

from monograph import checks, linalg, tate
from monograph.checks import random_rational
from monograph.cohomology import obstruction
from monograph.graph import GraphError, cycle_graph
from monograph.linalg import Mat, Subspace, colspace, det, rat, vec
from monograph.localsystem import LocalSystem
from monograph.tate import TateReport, build_tate, holonomy, tate_report

from test_linalg import in_span

F = Fraction

K_CONST = (1, 0, 1, 0, 1, 0)


def second_kernel_generator(g1, g2, g3):
    """The 3-cycle kernel generator with unit second components."""
    g1, g2, g3 = rat(g1), rat(g2), rat(g3)
    return (g1 / 3 + 2 * g3 / 3 + g2 / 3, F(1),
            -g1 / 3 + g3 / 3 + 2 * g2 / 3, F(1), F(0), F(1))


def obstruction_pattern(g1, g2, g3):
    """Edge image of the second generator: +-h/3 with h the holonomy."""
    h = rat(g1) + rat(g2) - rat(g3)
    return (-h / 3, F(0), -h / 3, F(0), h / 3, F(0))


class TestBuildTate:
    def test_triangle_configuration(self):
        g, sys = build_tate(3, (1, 2, 4))
        assert g.edges == ((0, 1), (1, 2), (0, 2))
        assert sys.rank == 2
        assert sys.transitions[1] == Mat.from_rows([[1, 2], [0, 1]])

    def test_two_cycle(self):
        g, sys = build_tate(2, (1, 0))
        assert g.m == 2 and sys.rank == 2

    def test_one_cycle_rejected(self):
        with pytest.raises(GraphError):
            build_tate(1, (1,))

    def test_wrong_value_count(self):
        with pytest.raises(ValueError):
            build_tate(3, (1, 2))

    def test_document_path_coerces_once(self, monkeypatch):
        # tate_report reads each cocycle value once; build_tate and
        # unipotent_rank2 still read ints and strings for library callers
        gvals = (1, "-2", "4/6")
        calls = []

        def spy(value, real=linalg.rat):
            calls.append(value)
            return real(value)
        monkeypatch.setattr(linalg, "rat", spy)
        report = tate_report(3, gvals)
        assert calls == list(gvals)
        assert report.gvals == (F(1), F(-2), F(2, 3))
        assert build_tate(3, gvals)[1] == LocalSystem.unipotent_rank2(cycle_graph(3), gvals)
        assert calls == list(gvals) * 3


class TestHolonomy:
    def test_triangle_sign(self):
        assert holonomy(vec([1, 2, 4])) == -1
        assert holonomy(vec([6, 3, 9])) == 0

    def test_two_cycle(self):
        assert holonomy(vec([5, 5])) == 0
        assert holonomy(vec([5, 3])) == 2

    def test_empty_cocycle_refused(self):
        with pytest.raises(ValueError, match="length 0"):
            holonomy(())

    def test_matches_the_fraction_sum(self):
        rng = random.Random(24)
        for m in range(2, 40):
            gvals = vec([random_rational(rng) for _ in range(m)])
            assert holonomy(gvals) == sum(gvals[:-1], F(0)) - gvals[-1]


class TestGoldenInstances:
    def test_kernel_at_639(self):
        r = tate_report(3, (6, 3, 9))
        assert in_span(r.kernel, vec(K_CONST))
        assert in_span(r.kernel, vec([9, 1, 3, 1, 0, 1]))
        assert r.kernel == Subspace.from_vectors(6, [K_CONST, (9, 1, 3, 1, 0, 1)])
        assert second_kernel_generator(6, 3, 9) == vec([9, 1, 3, 1, 0, 1])

    def test_639_balanced(self):
        r = tate_report(3, (6, 3, 9))
        assert r.holonomy == 0
        assert r.defect == 0 and r.quotient_dim == 0
        assert r.edge_images.transpose() == Mat.zeros(6, 2)

    def test_111_defect_one(self):
        r = tate_report(3, (1, 1, 1))
        assert r.holonomy == 1
        assert r.rank == 4 and r.det == 0
        assert r.defect == 1 and r.quotient_dim == 1
        _, sys = build_tate(3, (1, 1, 1))
        image = Subspace.from_vectors(6, [obstruction_pattern(1, 1, 1)])
        assert obstruction(sys) == image

    def test_000_splits(self):
        r = tate_report(3, (0, 0, 0))
        expected = Mat.from_rows([
            [2, 0, -1, 0, -1, 0],
            [0, 2, 0, -1, 0, -1],
            [-1, 0, 2, 0, -1, 0],
            [0, -1, 0, 2, 0, -1],
            [-1, 0, -1, 0, 2, 0],
            [0, -1, 0, -1, 0, 2],
        ])
        assert r.system == expected
        assert r.defect == 0

    @pytest.mark.parametrize("gvals", [(1, 2, 4), (6, 3, 9), (-2, "1/3", 5)])
    def test_kernel_matches_closed_form(self, gvals):
        r = tate_report(3, gvals)
        expected = Subspace.from_vectors(
            6, [K_CONST, second_kernel_generator(*gvals)])
        assert r.kernel == expected

    @pytest.mark.parametrize("gvals", [(1, 2, 4), (1, 1, 1), (-2, "1/3", 5)])
    def test_obstruction_matches_closed_form(self, gvals):
        _, sys = build_tate(3, gvals)
        pattern = obstruction_pattern(*gvals)
        assert obstruction(sys) == Subspace.from_vectors(6, [pattern])


class TestEdgeImages:
    def test_constant_section_maps_to_zero(self):
        r = tate_report(3, (1, 2, 4))
        # row 0 is the image of the constant section, the first generator;
        # the transpose makes it column 0
        assert r.edge_images.transpose() @ Mat.from_rows([[1], [0]]) == Mat.zeros(6, 1)

    def test_second_image_spans_obstruction(self):
        r = tate_report(3, (1, 2, 4))
        _, sys = build_tate(3, (1, 2, 4))
        span = colspace(r.edge_images.transpose() @ Mat.from_rows([[0], [1]]))
        assert span == obstruction(sys)
        assert span == Subspace.from_vectors(6, [obstruction_pattern(1, 2, 4)])

    def test_defect_is_the_rank_of_the_images(self):
        # the report reads its defect off the images it prints; the oracle
        # intersects the coboundary image with the residue kernel.  One
        # draw in three closes the cocycle, so both verdicts are drawn
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        values = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(st.integers(2, 10).flatmap(lambda m: st.lists(
            values, min_size=m, max_size=m)), st.integers(0, 2))
        def check(drawn, closing):
            body = drawn[:-1]
            gvals = (*body, sum(body, F(0)) if closing == 0 else drawn[-1])
            r = tate_report(len(gvals), gvals)
            assert r.defect == linalg.rank(r.edge_images) == \
                obstruction(build_tate(len(gvals), gvals)[1]).dim
            seen.add(r.defect)

        check()
        assert seen == {0, 1}


class TestDichotomy:
    def test_forced_zero_holonomy(self):
        # close the cocycle so the holonomy vanishes exactly
        rng = random.Random(97)
        for m in range(2, 9):
            body = [random_rational(rng) for _ in range(m - 1)]
            gvals = tuple(body) + (sum(body, F(0)),)
            assert holonomy(vec(gvals)) == 0
            r = tate_report(m, gvals)
            assert r.defect == 0 and r.quotient_dim == 0

    def test_registry_sweep_reaches_zero_holonomy(self, monkeypatch):
        # a report that always claims a quotient line is caught only on a
        # closed cocycle, so the sweep at the acceptance seed must draw one
        def forced(m, gvals):
            return TateReport(**dict(vars(tate_report(m, gvals)), quotient_dim=1))

        monkeypatch.setattr(checks, "tate_report", forced)
        entry = next(c for c in checks.CHECKS if c.name == "cycle defect dichotomy")
        assert any("quotient dim != defect" in detail
                   for detail in entry.failures(20240, 63))


class TestDeterminant:
    def test_det_equals_elimination_det(self):
        # the report skips the determinant's own elimination when the
        # kernel is nonzero; the skipped value must be the real one
        rng = random.Random(101)
        for draw in range(28):
            m = 2 + draw % 7
            gvals = tuple(random_rational(rng) for _ in range(m))
            r = tate_report(m, gvals)
            assert r.kernel.dim > 0
            assert r.det == det(r.system) == 0

    def test_obstruction_is_span_of_edge_images(self):
        rng = random.Random(103)
        for draw in range(28):
            m = 2 + draw % 7
            gvals = tuple(random_rational(rng) for _ in range(m))
            r = tate_report(m, gvals)
            _, sys = build_tate(m, gvals)
            span = colspace(r.edge_images.transpose())
            assert span == obstruction(sys)
            assert r.defect == span.dim
            assert r.quotient_dim == min(span.dim, 1)
