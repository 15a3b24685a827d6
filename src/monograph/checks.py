"""The registry of invariants: randomized sweeps and golden values.

Every identity the package is built on is one ``Check`` in ``CHECKS``: a
name, a sub-seed offset, a default instance count, and a body that yields
one detail line for each instance that breaks the identity.  The `check`
subcommand runs the registry at the defaults; the acceptance tests run the
same entries at their own seeds and counts.  All sampling is driven by one
seed, so a run is reproducible and the aggregated table is deterministic.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction

from .cohomology import (coboundary_image, coboundary_matrix, h0, h1_dim,
                         invariant_cycles_report, obstruction,
                         residue_constraint_matrix, residue_kernel, system_matrix)
from .graph import DualGraph, incidence_matrix, laplacian
from .linalg import Mat, Subspace, Value, nullspace, rank
from .localsystem import LocalSystem
from .problem import SystemSpec
from .tate import build_tate, holonomy, tate_report


class CheckResult(Value):
    _fields = ("name", "passed", "detail")


class Check(Value):
    """One invariant: `body(rng, instances)` yields a detail line per
    failure; `summary`, formatted with the instance count, describes a pass."""

    _fields = ("name", "seed_offset", "instances", "summary", "body")

    def failures(self, seed: int, instances: int | None = None) -> Iterator[str]:
        """Failure details of a run seeded with `seed` itself."""
        count = self.instances if instances is None else instances
        return self.body(random.Random(seed), count)

    def run(self, seed: int) -> CheckResult:
        """The suite's run: sub-seed seed + offset, default count, and the
        first failure as the detail."""
        failure = next(self.failures(seed + self.seed_offset), None)
        if failure is not None:
            return CheckResult(self.name, False, failure)
        return CheckResult(self.name, True, self.summary.format(self.instances))


def random_rational(rng: random.Random) -> Fraction:
    """Small random rational; zero about one time in four."""
    if rng.randrange(5) == 0:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_connected_multigraph(rng: random.Random,
                                max_vertices: int = 12) -> DualGraph:
    """Connected loop-free multigraph: a random spanning tree plus extras,
    with at most 3 edges between any two vertices."""
    n = rng.randint(2, max_vertices)
    edges: list[tuple[int, int]] = []
    multiplicity: dict[tuple[int, int], int] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
        multiplicity[(u, v)] = 1
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if multiplicity.get(key, 0) >= 3:
            continue
        multiplicity[key] = multiplicity.get(key, 0) + 1
        edges.append((u, v))
    return DualGraph(n, tuple(edges))


def random_unipotent_system(rng: random.Random, g: DualGraph,
                            target_rank: int) -> LocalSystem:
    """Iterated extensions of the trivial rank-1 system, up to target_rank."""
    layers = [[random_rational(rng) for _ in range(g.m * r)]
              for r in range(1, target_rank)]
    return SystemSpec("trivial", 1, (), layers).build(g)


def random_unipotent_systems(rng: random.Random, count: int) -> Iterator[LocalSystem]:
    """`count` unipotent systems of rank 1..3 on connected multigraphs with
    at most 7 vertices, drawn one at a time."""
    for _ in range(count):
        g = random_connected_multigraph(rng, max_vertices=7)
        yield random_unipotent_system(rng, g, rng.randint(1, 3))


def _min_propagates(g: DualGraph, pairs: tuple[tuple[int, Fraction], ...]) -> bool:
    """The ordered-field reading of the kernel: at a vertex attaining the
    minimum value, every neighbor attains it too, so no edge has exactly one
    end at the minimum, hence all entries agree.  The kernel vector comes as
    its nonzero (vertex, value) pairs."""
    stored = dict(pairs)
    kernel_vector = [stored.get(v, 0) for v in range(g.n)]
    low = min(kernel_vector)
    if any((kernel_vector[s] == low) != (kernel_vector[t] == low)
           for s, t in g.edges):
        return False
    return len(set(kernel_vector)) == 1


def _trivial_coefficients(rng: random.Random, instances: int) -> Iterator[str]:
    """Trivial rank-1 sweep: obstruction vanishes and the balance matrix is
    the graph laplacian with the expected rank and kernel."""
    for i in range(instances):
        g = random_connected_multigraph(rng)
        d = incidence_matrix(g)
        lap = laplacian(g)
        kernel = nullspace(lap)
        sys = LocalSystem.trivial(g, 1)
        if any(sum(x for _, x in column) != 0 for column in d.transpose().entries):
            yield "incidence column sum nonzero (instance %d)" % i
        if lap != d @ d.transpose():
            yield "laplacian != D D^t (instance %d)" % i
        if rank(lap) != g.n - 1 or rank(d) != g.n - 1:
            yield "rank != n-1 (instance %d)" % i
        if kernel != Subspace.from_vectors(g.n, [[1] * g.n]):
            yield "kernel is not the all-ones line (instance %d)" % i
        if any(not _min_propagates(g, k) for k in kernel.basis.entries):
            yield "minimum argument failed (instance %d)" % i
        if system_matrix(sys) != lap:
            yield "system matrix != laplacian (instance %d)" % i
        if obstruction(sys) != Subspace.zero(g.m):
            yield "nonzero obstruction (instance %d)" % i


def _factorization(rng: random.Random, instances: int) -> Iterator[str]:
    """system = residue-constraints o coboundary on random unipotent systems."""
    for i, sys in enumerate(random_unipotent_systems(rng, instances)):
        if residue_constraint_matrix(sys) @ coboundary_matrix(sys) != system_matrix(sys):
            yield "factorization failed (instance %d)" % i


def _obstruction_route(rng: random.Random, instances: int) -> Iterator[str]:
    """The report's obstruction, defect, image and residue-kernel dims and
    system rank, read off ker A solved once, agree with the direct route:
    colspace(coboundary) meet nullspace(residue); and the defect is
    nullity(system) - h0."""
    for i, sys in enumerate(random_unipotent_systems(rng, instances)):
        report = invariant_cycles_report(sys)
        blocked = obstruction(sys)
        system_rank = rank(system_matrix(sys))
        for field, got, want in (
                ("obstruction", report.obstruction, blocked),
                ("defect", report.defect, blocked.dim),
                ("coboundary image dim", report.coboundary_image_dim,
                 coboundary_image(sys).dim),
                ("residue kernel dim", report.residue_kernel_dim,
                 residue_kernel(sys).dim),
                ("system rank", report.system_rank, system_rank)):
            if got != want:
                yield "%s disagrees with the direct route (instance %d)" % (field, i)
        nullity = sys.graph.n * sys.rank - system_rank
        if blocked.dim != nullity - h0(sys).dim:
            yield "defect != nullity - h0 (instance %d)" % i


def _euler_characteristic(rng: random.Random, instances: int) -> Iterator[str]:
    """The report's h0 basis and h1 agree with the direct route, and the
    direct route satisfies h0 - h1 = rank (n - m) on random unipotent
    systems (the report takes h1 from that identity)."""
    for i, sys in enumerate(random_unipotent_systems(rng, instances)):
        g = sys.graph
        report = invariant_cycles_report(sys)
        sections, h1 = h0(sys), h1_dim(sys)
        if sections.dim - h1 != sys.rank * (g.n - g.m):
            yield "h0 - h1 != r(n - m) (instance %d)" % i
        if (report.h0_basis, report.h0_dim, report.h1_dim) != (sections, sections.dim, h1):
            yield "report h0/h1 disagree with the direct route (instance %d)" % i


# The 3-cycle golden values for cocycle g = (1, 2, 4): the balance matrix,
# its kernel generators, and the canonical obstruction generator.
CYCLE_SYSTEM_124 = Mat.from_rows([
    [2, 0, -1, -1, -1, -4],
    [0, 2, 0, -1, 0, -1],
    [-1, 1, 2, 0, -1, -2],
    [0, -1, 0, 2, 0, -1],
    [-1, 4, -1, 2, 2, 0],
    [0, -1, 0, -1, 0, 2],
])
CYCLE_KERNEL_124 = ((1, 0, 1, 0, 1, 0), ("11/3", 1, "7/3", 1, 0, 1))
CYCLE_OBSTRUCTION_124 = (1, 0, 1, 0, -1, 0)


def _cycle_golden_values(rng: random.Random, instances: int) -> Iterator[str]:
    """The 3-cycle rank-2 example at g = (1, 2, 4) and g = (1, 2, 3); it
    draws nothing and runs once whatever the count."""
    r = tate_report(3, (1, 2, 4))
    if r.system != CYCLE_SYSTEM_124:
        yield "system matrix mismatch"
    if r.det != 0 or r.rank != 4:
        yield "det/rank mismatch"
    if r.kernel != Subspace.from_vectors(6, CYCLE_KERNEL_124):
        yield "kernel mismatch"
    if r.defect != 1 or r.holonomy != -1 or r.quotient_dim != 1:
        yield "defect/holonomy mismatch"
    _, sys124 = build_tate(3, (1, 2, 4))
    if obstruction(sys124) != Subspace.from_vectors(6, [CYCLE_OBSTRUCTION_124]):
        yield "obstruction mismatch"
    balanced = tate_report(3, (1, 2, 3))
    if (balanced.defect, balanced.quotient_dim, balanced.holonomy, balanced.rank) \
            != (0, 0, 0, 4):
        yield "holonomy-zero case mismatch"


def _defect_dichotomy(rng: random.Random, draws: int) -> Iterator[str]:
    """On cycles of length 2..8: defect is 1 exactly when the signed
    holonomy is nonzero, by the report and by the obstruction space itself;
    the kernel of the balance matrix is a plane.  Every third cocycle is
    closed (its last value set to make the holonomy zero), so both branches
    run at every count."""
    for i in range(draws):
        m = 2 + i % 7
        gvals = tuple(random_rational(rng) for _ in range(m))
        if i % 3 == 2:
            gvals = gvals[:-1] + (sum(gvals[:-1], Fraction(0)),)
        r = tate_report(m, gvals)
        expected = 1 if holonomy(gvals) != 0 else 0
        if r.defect != expected:
            yield "defect %d, expected %d (draw %d)" % (r.defect, expected, i)
        if r.det != 0 or r.rank != 2 * m - 2 or r.kernel.dim != 2:
            yield "det/rank/kernel shape wrong (draw %d)" % i
        if r.quotient_dim != r.defect:
            yield "quotient dim != defect (draw %d)" % i
        blocked = obstruction(build_tate(m, gvals)[1]).dim
        if blocked != expected:
            yield "obstruction dim %d, expected %d (draw %d)" % (blocked, expected, i)


CHECKS = (
    Check("trivial coefficients sweep", 0, 100,
          "{} random connected multigraphs", _trivial_coefficients),
    Check("system matrix factorization", 1, 30,
          "{} random unipotent systems", _factorization),
    Check("obstruction via system kernel", 2, 30,
          "{} random unipotent systems", _obstruction_route),
    Check("euler characteristic", 3, 30,
          "{} random unipotent systems", _euler_characteristic),
    Check("3-cycle golden values", 0, 1,
          "matrix, kernel, obstruction and defect pinned", _cycle_golden_values),
    Check("cycle defect dichotomy", 4, 56,
          "{} random cocycles on cycles of length 2..8", _defect_dichotomy),
)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """The full suite; sub-seeds keep the sweeps independent of each other."""
    return [check.run(seed) for check in CHECKS]
