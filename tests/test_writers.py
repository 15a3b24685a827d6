"""The package's own matrix writers against the full row check.

Internal writers build their matrices through ``linalg._mat``, which skips
the row check that ``Mat(...)`` and the public builders run.  This test
wraps ``_mat`` so every matrix it builds is checked too, runs the whole
path over the oracle corpus, the cycle and tate families, the graph-batch
recipes and the drawn unipotent systems, and asserts that every writer in
the package built at least one checked matrix: a writer that stores a zero,
a column out of order or a row not in lowest terms fails here.
"""

import ast
import inspect
import random
import sys

from monograph import cohomology, graph, linalg, localsystem, report, tate
from monograph.checks import (random_connected_multigraph, random_rational,
                              random_unipotent_system)
from monograph.cohomology import (coboundary_image, h0, h1_dim, invariant_cycles_report,
                                  obstruction, residue_kernel)
from monograph.linalg import colspace, det, nullspace, rank, rowspace, rref
from monograph.localsystem import LocalSystem
from monograph.problem import ProblemSpec, SystemSpec
from monograph.tate import tate_report

from test_linalg_oracle import matrices, structured_matrices

MODULES = (linalg, cohomology, graph, localsystem, tate)
# the trusted constructor and the two linalg helpers that reach it
TRUSTED = {"_mat", "_stack", "_integer_rows"}


def writers():
    """The names of the package functions that call a TRUSTED name
    themselves, not only through a function nested in them."""
    names = set()

    class Calls(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id in TRUSTED:
                names.add(self.stack[-1])
            self.generic_visit(node)

    for module in MODULES:
        Calls().visit(ast.parse(inspect.getsource(module)))
    return names - TRUSTED


def writer_of(frame):
    """The innermost caller of the trusted constructor that is neither a
    TRUSTED helper nor a comprehension."""
    while frame.f_code.co_name in TRUSTED or frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def corpus_systems():
    """The cycle-defect m-cycles, the graph-batch recipes with p/q values
    and the drawn unipotent systems, as local systems."""
    rng = random.Random(23)
    for m in range(2, 13):
        g = [rng.randint(-5, 5) for _ in range(m)]
        g[-1] = sum(g[:-1]) if m % 2 else g[-1]  # every other cycle balanced
        names = ["v%d" % i for i in range(m)]
        edges = list(zip(names, names[1:])) + [(names[0], names[-1])]
        yield ProblemSpec(names, edges, SystemSpec("unipotent2", 2, g))
    for recipe in ("trivial1", "unipotent2", "trivial1+extend", "unipotent2+extend",
                   "trivial1+extend+extend"):
        for _ in range(6):
            g = random_connected_multigraph(rng, max_vertices=8)
            base, *extends = recipe.split("+")
            r = 1 if base == "trivial1" else 2
            params = [] if r == 1 else [random_rational(rng) for _ in range(g.m)]
            layers = [[random_rational(rng) for _ in range(g.m * k)]
                      for k in range(r, r + len(extends))]
            names = ["v%d" % i for i in range(g.n)]
            yield ProblemSpec(names, [(names[s], names[t]) for s, t in g.edges],
                              SystemSpec("trivial" if r == 1 else "unipotent2", r, params,
                                         layers))
    for _ in range(30):
        g = random_connected_multigraph(rng, max_vertices=7)
        yield random_unipotent_system(rng, g, rng.randint(1, 4))


def run_matrix_path(m):
    rref(m)
    rank(m)
    rowspace(m).intersect(nullspace(m))
    colspace(m)
    gram = m @ m.transpose()
    assert gram.transpose() == gram
    if m.rows == m.cols:
        det(m)


def run_system_path(system):
    """The document path, the oracles and the re-derived inverses."""
    for analyze in (invariant_cycles_report, h0, h1_dim, coboundary_image, residue_kernel,
                    obstruction):
        analyze(system)
    graph.incidence_matrix(system.graph)
    graph.laplacian(system.graph)
    LocalSystem(system.graph, system.rank, system.transitions)


def test_every_writer_builds_checked_rows(monkeypatch):
    trusted, seen = linalg._mat, {}

    def checked(*fields):
        m = linalg._checked(trusted(*fields))
        name = writer_of(sys._getframe(1))
        seen[name] = seen.get(name, 0) + 1
        return m

    for module in MODULES:
        if getattr(module, "_mat", None) is trusted:
            monkeypatch.setattr(module, "_mat", checked)
    for m in list(matrices(0, 40)) + list(structured_matrices()):
        run_matrix_path(m)
    for system in corpus_systems():
        if isinstance(system, ProblemSpec):
            report.to_json(report.run(system, "defect"))
            system = system.local_system()
        run_system_path(system)
    for m in range(2, 13):
        tate_report(m, [1] * m)
        tate_report(m, [1] * (m - 1) + [m - 1])
    assert writers() <= set(seen), writers() - set(seen)
