"""Acceptance gate: one test per criterion, one printed line per criterion.

Every identity that `monograph check` runs is a registry entry of
``monograph.checks``; the criteria below run those same entries at their
own seeds and counts and require that they yield no failure.  All
arithmetic is exact, so every comparison is equality at zero tolerance.
Run with `pytest tests/test_acceptance.py -s` to see the table.
"""

import random

from monograph.checks import (CHECKS, CYCLE_KERNEL_124, CYCLE_OBSTRUCTION_124,
                              CYCLE_SYSTEM_124, random_connected_multigraph,
                              random_rational, random_unipotent_system,
                              random_unipotent_systems)
from monograph.cohomology import (coboundary_matrix, invariant_cycles_report,
                                  obstruction, system_matrix)
from monograph.linalg import Mat, Subspace, colspace, det, nullspace, rank, vec
from monograph.localsystem import EdgeCochain, LocalSystem
from monograph.tate import build_tate, tate_report

from test_linalg_oracle import dense
from test_localsystem import reorient_system

REGISTRY = {check.name: check for check in CHECKS}


def _report(number: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print("[criterion %d] FAIL  %s" % (number, label))
        raise
    print("[criterion %d] PASS  %s" % (number, label))


def _passes(name: str, seed: int, instances: int | None = None) -> None:
    assert list(REGISTRY[name].failures(seed, instances)) == []


def _cycle_system(gvals):
    return build_tate(len(gvals), gvals)[1]


def _column(values):
    return Mat.from_rows([[x] for x in values], cols=1)


def test_criterion_1_golden_matrix():
    """3-cycle, g = (1, 2, 4): the balance matrix, its determinant and rank,
    and the registry's golden values through the cycle workbench."""

    def body():
        a = system_matrix(_cycle_system((1, 2, 4)))
        assert a == CYCLE_SYSTEM_124
        assert det(a) == 0
        assert rank(a) == 4
        _passes("3-cycle golden values", 0)

    _report(1, "golden 6x6 system matrix at g=(1,2,4), det 0, rank 4", body)


def test_criterion_2_golden_kernel():
    """Kernel generators, their edge images, and the obstruction line."""

    def body():
        sys = _cycle_system((1, 2, 4))
        cob = coboundary_matrix(sys)
        k_const, k_unit = (vec(k) for k in CYCLE_KERNEL_124)
        assert nullspace(system_matrix(sys)) == \
            Subspace.from_vectors(6, [k_const, k_unit])
        assert cob @ _column(k_const) == Mat.zeros(6, 1)
        image_line = colspace(cob @ _column(k_unit))
        assert image_line == Subspace.from_vectors(6, [CYCLE_OBSTRUCTION_124])
        assert image_line == obstruction(sys)

    _report(2, "kernel generators, zero/nonzero edge images, obstruction line",
            body)


def test_criterion_3_defect_dichotomy():
    """Defect is 1 exactly when the signed holonomy is nonzero, all lengths."""

    def body():
        _passes("cycle defect dichotomy", 20240, 63)

    _report(3, "defect = 1 iff holonomy != 0, cycles of length 2..8, 63 draws",
            body)


def test_criterion_4_trivial_coefficients_suite():
    """Trivial rank-1 coefficients on 120 random connected multigraphs."""

    def body():
        _passes("trivial coefficients sweep", 20241, 120)

    _report(4, "trivial coefficients: zero obstruction, laplacian identities, "
               "120 graphs", body)


def test_criterion_5_structural_identities():
    """Factorization, kernel route, euler characteristic, re-orientation and
    coboundary invariance on random unipotent systems of ranks 1..3."""

    def body():
        for name in ("system matrix factorization",
                     "obstruction via system kernel", "euler characteristic"):
            _passes(name, 20242, 36)
        rng = random.Random(20242)
        for sys in random_unipotent_systems(rng, 36):
            report = invariant_cycles_report(sys)
            flipped = invariant_cycles_report(
                reorient_system(sys, rng.randrange(sys.graph.m)))
            assert (report.h0_dim, report.h1_dim, report.defect) == \
                (flipped.h0_dim, flipped.h1_dim, flipped.defect)
        # shifting an extension cochain by a coboundary gives an
        # equivalent system
        for _ in range(12):
            g = random_connected_multigraph(rng, max_vertices=6)
            base = random_unipotent_system(rng, g, rng.randint(1, 2))
            values = [tuple(random_rational(rng) for _ in range(base.rank))
                      for _ in range(g.m)]
            c = EdgeCochain(base, tuple(values))
            shift = [row[0] for row in dense(coboundary_matrix(base) @ _column(
                [random_rational(rng) for _ in range(g.n * base.rank)]))]
            r = base.rank
            shifted = EdgeCochain(base, tuple(
                tuple(x + y for x, y in zip(cv, shift[e * r:(e + 1) * r]))
                for e, cv in enumerate(c.values)))
            one = invariant_cycles_report(base.extend_by_trivial(c))
            two = invariant_cycles_report(base.extend_by_trivial(shifted))
            assert (one.h0_dim, one.h1_dim, one.defect) == \
                (two.h0_dim, two.h1_dim, two.defect)

    _report(5, "factorization, kernel route, euler, re-orientation, "
               "coboundary invariance", body)


def test_criterion_6_combinatorial_coverage():
    """The analytic exactness statements live beyond desk scale; their
    combinatorial content is what criteria 3 and 4 pin down.  This check
    re-asserts both witnesses: trivial coefficients are always exact, and
    the nonzero-holonomy cycle has a one-dimensional failure."""

    def body():
        rng = random.Random(20243)
        for _ in range(10):
            g = random_connected_multigraph(rng, max_vertices=9)
            assert invariant_cycles_report(LocalSystem.trivial(g, 1)).exact
        witness = tate_report(3, (1, 1, 1))
        assert witness.defect == 1 and witness.quotient_dim == 1
        assert not invariant_cycles_report(_cycle_system((1, 1, 1))).exact

    _report(6, "exactness witnesses: trivial coefficients exact, "
               "nonzero-holonomy cycle has defect 1", body)
