"""Randomized invariant sweeps and golden-value checks.

This is the engine behind the `check` subcommand: every identity the
package is built on, run against freshly sampled graphs and coefficient
systems plus the pinned 3-cycle example.  All sampling is driven by one
seed, so a run is reproducible and the aggregated table is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import (coboundary_image, coboundary_matrix, h0, h1_dim,
                         invariant_cycles_report, obstruction,
                         residue_constraint_matrix, residue_kernel, system_matrix)
from .graph import DualGraph, incidence_matrix, laplacian
from .linalg import Mat, Subspace, nullspace, rank
from .localsystem import EdgeCochain, LocalSystem
from .tate import build_tate, holonomy, tate_report


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_rational(rng: random.Random, zero_weight: int = 1) -> Fraction:
    """Small random rational; `zero_weight` raises the chance of zero."""
    if rng.randrange(4 + zero_weight) < zero_weight:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_connected_multigraph(rng: random.Random,
                                min_vertices: int = 2,
                                max_vertices: int = 12,
                                max_parallel: int = 3) -> DualGraph:
    """Connected loop-free multigraph: a random spanning tree plus extras,
    with at most `max_parallel` edges between any two vertices."""
    n = rng.randint(min_vertices, max_vertices)
    edges: list[tuple[int, int]] = []
    multiplicity: dict[tuple[int, int], int] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
        multiplicity[(u, v)] = 1
    extra = rng.randint(0, n)
    for _ in range(extra):
        if n < 2:
            break
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if multiplicity.get(key, 0) >= max_parallel:
            continue
        multiplicity[key] = multiplicity.get(key, 0) + 1
        edges.append((u, v))
    g = DualGraph(n, tuple(edges))
    g.validate()
    return g


def random_unipotent_system(rng: random.Random, g: DualGraph,
                            target_rank: int) -> LocalSystem:
    """Iterated extensions of the trivial rank-1 system, up to target_rank."""
    sys = LocalSystem.trivial(g, 1)
    while sys.rank < target_rank:
        values = [tuple(random_rational(rng) for _ in range(sys.rank))
                  for _ in range(g.m)]
        sys = sys.extend_by_trivial(EdgeCochain.from_values(sys, values))
    return sys


def _all_ones_kernel(lap: Mat, n: int) -> bool:
    return nullspace(lap) == Subspace.from_vectors(n, [[1] * n])


def _min_propagates(g: DualGraph, kernel_vector: tuple[Fraction, ...]) -> bool:
    """The ordered-field reading of the kernel: at a vertex attaining the
    minimum value, every neighbor attains it too, hence all entries agree."""
    low = min(kernel_vector)
    for v in range(g.n):
        if kernel_vector[v] == low:
            if any(kernel_vector[w] != low for w in g.neighbors(v)):
                return False
    return len(set(kernel_vector)) == 1


def check_trivial_coefficients(seed: int, instances: int = 100) -> CheckResult:
    """Trivial rank-1 sweep: obstruction vanishes and the balance matrix is
    the graph laplacian with the expected rank and kernel."""
    rng = random.Random(seed)
    for i in range(instances):
        g = random_connected_multigraph(rng)
        d = incidence_matrix(g)
        lap = laplacian(g)
        sys = LocalSystem.trivial(g, 1)
        if any(sum(d.column_vector(e)) != 0 for e in range(g.m)):
            return CheckResult("trivial coefficients sweep", False,
                               "incidence column sum nonzero (instance %d)" % i)
        if lap != d @ d.transpose():
            return CheckResult("trivial coefficients sweep", False,
                               "laplacian != D D^t (instance %d)" % i)
        if rank(lap) != g.n - 1 or rank(d) != g.n - 1:
            return CheckResult("trivial coefficients sweep", False,
                               "rank != n-1 (instance %d)" % i)
        if not _all_ones_kernel(lap, g.n):
            return CheckResult("trivial coefficients sweep", False,
                               "kernel is not the all-ones line (instance %d)" % i)
        if any(not _min_propagates(g, k) for k in nullspace(lap).vectors()):
            return CheckResult("trivial coefficients sweep", False,
                               "minimum argument failed (instance %d)" % i)
        if system_matrix(sys) != lap:
            return CheckResult("trivial coefficients sweep", False,
                               "system matrix != laplacian (instance %d)" % i)
        if obstruction(sys).dim != 0:
            return CheckResult("trivial coefficients sweep", False,
                               "nonzero obstruction (instance %d)" % i)
    return CheckResult("trivial coefficients sweep", True,
                       "%d random connected multigraphs" % instances)


def check_factorization(seed: int, instances: int = 30) -> CheckResult:
    """system = residue-constraints o coboundary on random unipotent systems."""
    rng = random.Random(seed)
    for i in range(instances):
        g = random_connected_multigraph(rng, max_vertices=7)
        sys = random_unipotent_system(rng, g, rng.randint(1, 3))
        if residue_constraint_matrix(sys) @ coboundary_matrix(sys) != system_matrix(sys):
            return CheckResult("system matrix factorization", False,
                               "factorization failed (instance %d)" % i)
    return CheckResult("system matrix factorization", True,
                       "%d random unipotent systems" % instances)


def check_obstruction_route(seed: int, instances: int = 30) -> CheckResult:
    """The report's obstruction, defect, image and residue-kernel dims and
    system rank, from one elimination of the system matrix, agree with the
    direct route: colspace(coboundary) meet nullspace(residue)."""
    name = "obstruction via system kernel"
    rng = random.Random(seed)
    for i in range(instances):
        g = random_connected_multigraph(rng, max_vertices=7)
        sys = random_unipotent_system(rng, g, rng.randint(1, 3))
        report = invariant_cycles_report(sys)
        blocked = obstruction(sys)
        for field, got, want in (
                ("obstruction", report.obstruction, blocked),
                ("defect", report.defect, blocked.dim),
                ("coboundary image dim", report.coboundary_image_dim,
                 coboundary_image(sys).dim),
                ("residue kernel dim", report.residue_kernel_dim,
                 residue_kernel(sys).dim),
                ("system rank", report.system_rank, rank(system_matrix(sys)))):
            if got != want:
                return CheckResult(name, False,
                                   "%s disagrees with the direct route (instance %d)"
                                   % (field, i))
    return CheckResult(name, True, "%d random unipotent systems" % instances)


def check_euler_characteristic(seed: int, instances: int = 30) -> CheckResult:
    """The report's h0 basis and h1 agree with the direct route, and the
    direct route satisfies h0 - h1 = rank (n - m) on random unipotent
    systems (the report takes h1 from that identity)."""
    name = "euler characteristic"
    rng = random.Random(seed)
    for i in range(instances):
        g = random_connected_multigraph(rng, max_vertices=7)
        sys = random_unipotent_system(rng, g, rng.randint(1, 3))
        report = invariant_cycles_report(sys)
        sections, h1 = h0(sys), h1_dim(sys)
        if sections.dim - h1 != sys.rank * (g.n - g.m):
            return CheckResult(name, False, "h0 - h1 != r(n - m) (instance %d)" % i)
        if (report.h0_basis, report.h0_dim, report.h1_dim) != (sections, sections.dim, h1):
            return CheckResult(name, False,
                               "report h0/h1 disagree with the direct route "
                               "(instance %d)" % i)
    return CheckResult(name, True, "%d random unipotent systems" % instances)


# The 3-cycle golden values for cocycle g = (1, 2, 4): the balance matrix,
# its kernel generators, and the canonical obstruction generator.
_CYCLE_SYSTEM_124 = Mat.from_rows([
    [2, 0, -1, -1, -1, -4],
    [0, 2, 0, -1, 0, -1],
    [-1, 1, 2, 0, -1, -2],
    [0, -1, 0, 2, 0, -1],
    [-1, 4, -1, 2, 2, 0],
    [0, -1, 0, -1, 0, 2],
])
_CYCLE_KERNEL_124 = ((1, 0, 1, 0, 1, 0), ("11/3", 1, "7/3", 1, 0, 1))
_CYCLE_OBSTRUCTION_124 = (1, 0, 1, 0, -1, 0)


def check_cycle_golden_values() -> CheckResult:
    """The 3-cycle rank-2 example at g = (1, 2, 4) and g = (1, 2, 3)."""
    name = "3-cycle golden values"
    r = tate_report(3, (1, 2, 4))
    if r.system != _CYCLE_SYSTEM_124:
        return CheckResult(name, False, "system matrix mismatch")
    if r.det != 0 or r.rank != 4:
        return CheckResult(name, False, "det/rank mismatch")
    if r.kernel != Subspace.from_vectors(6, _CYCLE_KERNEL_124):
        return CheckResult(name, False, "kernel mismatch")
    if r.defect != 1 or r.holonomy != -1 or r.quotient_dim != 1:
        return CheckResult(name, False, "defect/holonomy mismatch")
    _, sys124 = build_tate(3, (1, 2, 4))
    if obstruction(sys124) != Subspace.from_vectors(6, [_CYCLE_OBSTRUCTION_124]):
        return CheckResult(name, False, "obstruction mismatch")
    balanced = tate_report(3, (1, 2, 3))
    if balanced.defect != 0 or balanced.holonomy != 0 or balanced.rank != 4:
        return CheckResult(name, False, "holonomy-zero case mismatch")
    return CheckResult(name, True, "matrix, kernel, obstruction and defect pinned")


def check_defect_dichotomy(seed: int, draws: int = 56) -> CheckResult:
    """On cycles of length 2..8: defect is 1 exactly when the signed
    holonomy is nonzero, and the kernel of the balance matrix is a plane."""
    rng = random.Random(seed)
    for i in range(draws):
        m = 2 + i % 7
        gvals = tuple(random_rational(rng) for _ in range(m))
        r = tate_report(m, gvals)
        expected = 1 if holonomy(gvals) != 0 else 0
        if r.defect != expected:
            return CheckResult("cycle defect dichotomy", False,
                               "defect %d, expected %d (draw %d)" % (r.defect, expected, i))
        if r.det != 0 or r.rank != 2 * m - 2 or r.kernel.dim != 2:
            return CheckResult("cycle defect dichotomy", False,
                               "det/rank/kernel shape wrong (draw %d)" % i)
    return CheckResult("cycle defect dichotomy", True,
                       "%d random cocycles on cycles of length 2..8" % draws)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """The full suite; sub-seeds keep the sweeps independent of each other."""
    return [
        check_trivial_coefficients(seed),
        check_factorization(seed + 1),
        check_obstruction_route(seed + 2),
        check_euler_characteristic(seed + 3),
        check_cycle_golden_values(),
        check_defect_dichotomy(seed + 4),
    ]
