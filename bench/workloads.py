"""Seeded workload inputs and the benchmark's own checks of each output.

Every workload is a ladder of slots run in a fixed order; one pass sends one
document per slot.  Each slot has a pool of VARIANTS documents, each a pure
function of its id, and the stdout of every pool document is pinned by its
sha256 in ``digests.json``.  The run seed only chooses which variant each
slot sends in each of the run's few distinct passes, so any seed yields
documents whose bytes are pinned, and the same seed yields the same
documents.  A run repeats its passes until its time is up, so every document
is timed several times, spread over the run.

The invariants in ``check_output`` are computed here from the generated
inputs, never by calling the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

VARIANTS = 8
# 1.5 to 5 s of documents per round, so a run repeats each one 6 to 20 times
DISTINCT_PASSES = {"cycle-defect": 1, "graph-batch": 1, "tate-ladder": 2}

CYCLE_LADDER = (8, 14, 20, 26, 32)
TATE_LADDER = (4, 9, 14, 19, 24)
GRAPH_SIZES = (4, 8, 12)
GRAPH_RECIPES = ("trivial1", "unipotent2", "trivial1+extend",
                 "unipotent2+extend", "trivial1+extend+extend")
GRAPH_COMMANDS = ("laplacian", "cohomology", "defect")

WORKLOADS = ("cycle-defect", "graph-batch", "tate-ladder")


@dataclass(frozen=True)
class Doc:
    """One pool document: CLI arguments, optional input file, and the facts
    the invariants need (vertices n, edges m, rank r, cycle holonomy)."""

    id: str
    args: tuple[str, ...]
    text: str | None
    suffix: str
    n: int
    m: int
    r: int
    holonomy: Fraction | None
    tate: bool = False

    @property
    def file_name(self) -> str:
        return self.id.replace("/", "_") + self.suffix

    def argv(self, input_dir: str) -> list[str]:
        if self.text is None:
            return list(self.args)
        return list(self.args) + ["--input", "%s/%s" % (input_dir, self.file_name)]


def slots(workload: str) -> tuple:
    if workload == "cycle-defect":
        return CYCLE_LADDER
    if workload == "tate-ladder":
        return TATE_LADDER
    if workload == "graph-batch":
        return tuple((n, recipe) for n in GRAPH_SIZES for recipe in GRAPH_RECIPES)
    raise ValueError("unknown workload %r" % (workload,))


def pool(workload: str) -> list[list[Doc]]:
    """All documents of a workload: pool[slot][variant]."""
    out = []
    for i, slot in enumerate(slots(workload)):
        if workload == "cycle-defect":
            out.append([_cycle_doc(slot, k) for k in range(VARIANTS)])
        elif workload == "tate-ladder":
            out.append([_tate_doc(slot, k) for k in range(VARIANTS)])
        else:
            out.append([_graph_doc(i, slot, k) for k in range(VARIANTS)])
    return out


def schedule(workload: str, seed: int) -> list[list[str]]:
    """Document ids of each of the run's distinct passes.  On the cycle
    ladders the holonomy branch alternates by pass and slot, so every pass
    has a fixed mix of both."""
    docs = pool(workload)
    rng = random.Random(seed)
    cyclic = workload != "graph-batch"
    plan = []
    for p in range(DISTINCT_PASSES[workload]):
        ids = []
        for i, variants in enumerate(docs):
            if cyclic:
                k = 2 * rng.randrange(VARIANTS // 2) + (p + i) % 2
            else:
                k = rng.randrange(VARIANTS)
            ids.append(variants[k].id)
        plan.append(ids)
    return plan


def cycle_holonomy(g: list[int]) -> int:
    """g_1 + ... + g_{m-1} - g_m: the closing edge runs 0 -> m-1."""
    return sum(g[:-1]) - g[-1]


def _cocycle(rng: random.Random, m: int, zero_holonomy: bool) -> list[int]:
    """Integers in [-5, 5]; an even variant has holonomy 0, an odd one not."""
    while True:
        g = [rng.randint(-5, 5) for _ in range(m)]
        if zero_holonomy:
            g[-1] = sum(g[:-1])
            if -5 <= g[-1] <= 5:
                return g
        elif cycle_holonomy(g) != 0:
            return g


def _cycle_doc(m: int, k: int) -> Doc:
    doc_id = "cycle-defect/%d/%d" % (m, k)
    g = _cocycle(random.Random(doc_id), m, k % 2 == 0)
    names = ["v%d" % i for i in range(m)]
    edges = [(names[i], names[i + 1]) for i in range(m - 1)] + [(names[0], names[-1])]
    text = _text_problem(names, edges, ["unipotent2 " + " ".join(map(str, g))])
    return Doc(doc_id, ("defect",), text, ".txt", m, m, 2,
               Fraction(cycle_holonomy(g)))


def _tate_doc(m: int, k: int) -> Doc:
    doc_id = "tate-ladder/%d/%d" % (m, k)
    g = _cocycle(random.Random(doc_id), m, k % 2 == 0)
    # "--g=" keeps a leading negative value from reading as an option
    args = ("tate", "--ord", str(m), "--g=" + ",".join(map(str, g)))
    return Doc(doc_id, args, None, "", m, m, 2, Fraction(cycle_holonomy(g)),
               tate=True)


def _rational(rng: random.Random) -> str:
    q = rng.choice((1, 1, 2, 3, 5))
    p = rng.randint(-5, 5)
    f = Fraction(p, q)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def _multigraph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random spanning tree plus n/4 extra edges, at most 3 per pair, so
    every variant of a slot has the same matrix shapes."""
    edges = []
    count: dict[tuple[int, int], int] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
        count[(u, v)] = 1
    while len(edges) < n - 1 + n // 4:
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        if count.get(key, 0) < 3:
            count[key] = count.get(key, 0) + 1
            edges.append((u, v))
    return edges


def _graph_doc(slot: int, size_recipe: tuple[int, str], k: int) -> Doc:
    n, recipe = size_recipe
    doc_id = "graph-batch/%d/%d" % (slot, k)
    rng = random.Random(doc_id)
    edges = _multigraph(rng, n)
    m = len(edges)
    base, *extends = recipe.split("+")
    r = 1 if base == "trivial1" else 2
    layers = [("trivial", [])] if base == "trivial1" else \
        [("unipotent2", [_rational(rng) for _ in range(m)])]
    for _ in extends:
        layers.append(("extend", [_rational(rng) for _ in range(m * r)]))
        r += 1
    names = ["n%d" % i for i in range(n)]
    named = [(names[s], names[t]) for s, t in edges]
    command = GRAPH_COMMANDS[slot % 3]
    if slot % 2 == 0:
        lines = ["trivial 1" if kind == "trivial" else
                 "%s %s" % (kind, " ".join(params)) for kind, params in layers]
        return Doc(doc_id, (command,), _text_problem(names, named, lines), ".txt",
                   n, m, r, None)
    system: dict = {"kind": "trivial", "rank": 1} if base == "trivial1" else \
        {"kind": "unipotent2", "params": [_json_value(p) for p in layers[0][1]]}
    for _, params in layers[1:]:
        system = {"kind": "extension", "params": [_json_value(p) for p in params],
                  "base": system}
    doc = {"vertices": names, "edges": [{"from": a, "to": b} for a, b in named],
           "system": system}
    return Doc(doc_id, (command,), json.dumps(doc) + "\n", ".json", n, m, r, None)


def _json_value(literal: str) -> int | str:
    return literal if "/" in literal else int(literal)


def _text_problem(names: list[str], edges: list[tuple[str, str]],
                  system_lines: list[str]) -> str:
    lines = ["VERTICES", *names, "EDGES", *("%s %s" % e for e in edges),
             "SYSTEM", *system_lines]
    return "\n".join(lines) + "\n"


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def check_output(doc: Doc, code: int, stdout: str,
                 pinned: str | None) -> tuple[list[str], dict | None]:
    """Problems found in one output (empty when it passes) and the parsed
    document.  Checks the exit code, the pinned digest and the invariants
    h0 - h1 = r(n - m), laplacian rank n - 1, defect = [holonomy != 0] on
    cycles, and det 0 with rank 2m - 2 on tate documents."""
    if code != 0:
        return ["exit code %r" % (code,)], None
    problems = []
    if digest(stdout) != pinned:
        problems.append("stdout differs from the pinned digest")
    try:
        out = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"], None
    try:
        problems.extend(_invariants(doc, out))
    except (KeyError, TypeError, ValueError) as exc:
        problems.append("malformed document: %r" % (exc,))
    return problems, out


def _invariants(doc: Doc, out: dict) -> list[str]:
    problems = []
    if doc.tate:
        t = out["tate"]
        if t["det"] != "0":
            problems.append("det %s, not 0" % t["det"])
        if t["rank"] != 2 * doc.m - 2:
            problems.append("rank %d, not 2m-2 = %d" % (t["rank"], 2 * doc.m - 2))
        if Fraction(t["holonomy"]) != doc.holonomy:
            problems.append("holonomy %s, not %s" % (t["holonomy"], doc.holonomy))
        defect = t["defect"]
    else:
        d = out["dims"]
        if (d["vertices"], d["edges"], d["rank"]) != (doc.n, doc.m, doc.r):
            problems.append("shape %s, not %s"
                            % ((d["vertices"], d["edges"], d["rank"]), (doc.n, doc.m, doc.r)))
        if d["h0"] - d["h1"] != doc.r * (doc.n - doc.m):
            problems.append("h0 - h1 = %d, not r(n - m) = %d"
                            % (d["h0"] - d["h1"], doc.r * (doc.n - doc.m)))
        if d["laplacian_rank"] != doc.n - 1:
            problems.append("laplacian rank %d, not n - 1" % d["laplacian_rank"])
        defect = d["defect"]
    if doc.holonomy is not None and defect != int(doc.holonomy != 0):
        problems.append("defect %d with holonomy %s" % (defect, doc.holonomy))
    return problems


def max_entry_bits(out: dict) -> int:
    """Largest numerator or denominator bit length in the emitted matrices
    and bases."""
    if "tate" in out:
        t = out["tate"]
        grids = [t["system"], t["kernel"], t["edge_images"]]
    else:
        grids = list(out["matrices"].values()) + list(out["bases"].values())
    bits = 0
    for grid in grids:
        for row in grid:
            for entry in row:
                p, _, q = entry.partition("/")
                bits = max(bits, abs(int(p)).bit_length(), int(q or 1).bit_length())
    return bits
