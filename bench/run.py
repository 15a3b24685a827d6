"""The monograph benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's documents from the seed, writes the input files,
and runs a closed loop with one client in this process, with no threads: it
sends each document through ``monograph.cli.main`` only after the previous
one returned, with stdout captured in memory.  Every output is checked
against its pinned sha256 digest and against invariants the benchmark
computes itself.  Each document is sent once per round, and rounds repeat
until the time is up.  A reference kernel runs between documents, and each
document's time is the median over its repetitions of its wall time over
the kernel's adjacent time, in seconds of a machine on which the kernel
takes REFERENCE_S.

With --trace 0 each round also times one fresh interpreter emitting the
workload's smallest document, for ``setup_s``, and the metrics are the
end-to-end ones.  With --trace 1 rounds alternate between untraced and
traced, where the traced rounds wrap each layer's public functions in
spans, and the metrics are the per-layer ones.  Spans are written to
bench/out/spans-WORKLOAD-SEED.json; a span's doc field indexes the file's
"docs" list.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 0 when a result was printed, 2
when the checkout has no package source or no pinned digests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# The root span of a traced document starts and ends a few microseconds
# inside the document's own timer; a larger gap means the spans miss work.
ROOT_GAP_S = 0.002
ROOT_GAP_FRAC = 0.01

# A shared machine runs all code at one of two speeds about 1.8x apart and
# switches within seconds.  Times are therefore measured against the
# benchmark's own exact elimination of a fixed matrix, which no change to
# the package can speed up, and given in seconds of a machine on which it
# takes REFERENCE_S.
REFERENCE_SIZE = 6
REFERENCE_S = 0.0005


def _reference_matrix() -> list[list[Fraction]]:
    rng = random.Random("reference")
    return [[Fraction(rng.randint(-5, 5)) for _ in range(REFERENCE_SIZE)]
            for _ in range(REFERENCE_SIZE)]


REFERENCE_MATRIX = _reference_matrix()


def reference_seconds() -> float:
    """Wall seconds of one Gauss-Jordan elimination of REFERENCE_MATRIX."""
    start = time.perf_counter()
    m = [row[:] for row in REFERENCE_MATRIX]
    r = 0
    for c in range(REFERENCE_SIZE):
        p = next((i for i in range(r, REFERENCE_SIZE) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inverse = 1 / m[r][c]
        m[r] = [x * inverse for x in m[r]]
        for i in range(REFERENCE_SIZE):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return time.perf_counter() - start


def write_inputs(pool: list[list[workloads.Doc]]) -> str:
    input_dir = OUT / "inputs"
    input_dir.mkdir(parents=True, exist_ok=True)
    for variants in pool:
        for doc in variants:
            if doc.text is not None:
                (input_dir / doc.file_name).write_text(doc.text)
    return str(input_dir)


def run_doc(main, argv: list[str]) -> tuple[int, str, float]:
    """Exit code, stdout and wall seconds of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def run_rounds(main, docs: dict, passes: list[list[str]], input_dir: str,
               pinned: dict, seconds: float,
               tracer: spans.Tracer | None = None,
               each_round=None) -> tuple[list[list], list[list]]:
    """Untraced and traced records [id, round, seconds, problems, bytes,
    digest, entry bits, reference seconds], one per document sent; the last
    is the mean of the reference kernel's time before and after it.  A new round starts only
    while time is left, and calls `each_round` first.  With a tracer, odd
    rounds are traced and the run ends after a traced round; a span's doc
    field is the index of its traced record."""
    untraced: list[list] = []
    traced: list[list] = []
    cpus = sorted(os.sched_getaffinity(0))
    rounds_per_cpu = 1 if tracer is None else 2
    start = time.perf_counter()
    for round_no in itertools.count():
        if round_no % rounds_per_cpu == 0 and time.perf_counter() - start >= seconds:
            break
        # Each CPU of a shared machine slows down on its own, so rounds
        # alternate CPUs to give each document's repetitions both chances;
        # an untraced round and the traced round after it share a CPU.
        use_cpus({cpus[round_no // rounds_per_cpu % len(cpus)]})
        if each_round is not None:
            each_round()
        trace_round = tracer is not None and round_no % 2 == 1
        records, call = untraced, main
        if trace_round:
            install_layers(tracer)
            records, call = traced, tracer.wrap("cli.main", main)
        try:
            before = reference_seconds()
            for doc_id in (i for ids in passes for i in ids):
                doc = docs[doc_id]
                if trace_round:
                    tracer.doc = len(records)
                code, stdout, took = run_doc(call, doc.argv(input_dir))
                after = reference_seconds()
                problems, out = workloads.check_output(doc, code, stdout,
                                                       pinned.get(doc_id))
                bits = workloads.max_entry_bits(out) if trace_round and not problems else 0
                records.append([doc_id, round_no, took, problems,
                                len(stdout.encode("utf-8")), workloads.digest(stdout), bits,
                                (before + after) / 2])
                before = after
        finally:
            if trace_round:
                tracer.restore()
    use_cpus(set(cpus))
    return untraced, traced


def use_cpus(cpus: set[int]) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # not permitted here: leave placement to the scheduler


def setup_sample(doc: workloads.Doc, input_dir: str, pinned: dict) -> list:
    """[seconds, problems, reference seconds] of a fresh interpreter that
    imports monograph.cli and emits `doc`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = reference_seconds()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "monograph.cli", *doc.argv(input_dir)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    took = time.perf_counter() - start
    after = reference_seconds()
    problems, _ = workloads.check_output(doc, proc.returncode, proc.stdout,
                                         pinned.get(doc.id))
    return [took, problems, (before + after) / 2]


def install_layers(tracer: spans.Tracer) -> None:
    """Wrap each layer's public functions until `tracer.restore()`."""
    from monograph import cohomology, linalg, problem, report, tate
    modules = [m for name, m in sys.modules.items()
               if name == "monograph" or name.startswith("monograph.")]
    tracer.patch("problem.load", [problem.load_problem], modules)
    tracer.patch_method("localsystem.build", problem.ProblemSpec, "local_system")
    tracer.patch("cohomology.assemble",
                 [cohomology.coboundary_matrix, cohomology.residue_constraint_matrix,
                  cohomology.system_matrix], modules)
    tracer.patch("cohomology.analyze", [cohomology.invariant_cycles_report], modules)
    tracer.patch("linalg.rref", [linalg.rref], modules)
    tracer.patch_method("linalg.matmul", linalg.Mat, "__matmul__")
    tracer.patch("linalg.det", [linalg.det], modules)
    # only report's own binding: the rank(laplacian) and rank(system) it adds
    tracer.patch("report.rank", [linalg.rank], [report])
    tracer.patch("report.to_json", [report.to_json], modules)
    tracer.patch("report.build", [report.run, report.tate_document], modules)
    tracer.patch("tate.report", [tate.tate_report], modules)


def failures(records: list[list]) -> int:
    return sum(1 for r in records if r[3])


def scaled(seconds: float, reference: float) -> float:
    """`seconds` measured while the reference kernel took `reference`, in
    seconds of a machine on which it takes REFERENCE_S."""
    return seconds / reference * REFERENCE_S


def doc_seconds(records: list[list]) -> dict[str, float]:
    """Each document's scaled time, the median over its repetitions."""
    times: dict[str, list[float]] = {}
    for r in records:
        times.setdefault(r[0], []).append(scaled(r[2], r[7]))
    return {doc_id: statistics.median(t) for doc_id, t in times.items()}


def fastest(records: list[list]) -> dict[str, int]:
    """Index of each document's fastest record: its traced repetition
    least disturbed by the machine."""
    best: dict[str, int] = {}
    for i, r in enumerate(records):
        if r[0] not in best or r[2] < records[best[r[0]]][2]:
            best[r[0]] = i
    return best


def end_to_end(records: list[list], setup_s: float, rss_mb: float) -> dict:
    times = list(doc_seconds(records).values())
    return {
        "docs_per_s": len(times) / sum(times),
        "doc_ms_p50": 1000 * statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(untraced: list[list], traced: list[list], trace: list[list]) -> dict:
    """Layer times per document, from each document's fastest traced run."""
    chosen = set(fastest(traced).values())
    n = len(chosen)
    own = spans.self_times(trace, chosen)
    total = spans.inclusive_times(trace, chosen)
    calls = [s for s in trace if s[spans.NAME] == "linalg.rref" and s[spans.DOC] in chosen]
    matmuls = [s for s in trace if s[spans.NAME] == "linalg.matmul" and s[spans.DOC] in chosen]
    return {
        "problem.load_s": total.get("problem.load", 0.0) / n,
        "localsystem.build_s": total.get("localsystem.build", 0.0) / n,
        "cohomology.assemble_s": total.get("cohomology.assemble", 0.0) / n,
        "cohomology.analyze_s": own.get("cohomology.analyze", 0.0) / n,
        "linalg.rref_calls": len(calls) / n,
        "linalg.rref_s": total.get("linalg.rref", 0.0) / n,
        "linalg.rref_max_cells": max((s[spans.CELLS] for s in calls), default=0),
        "linalg.matmul_calls": len(matmuls) / n,
        "linalg.matmul_s": total.get("linalg.matmul", 0.0) / n,
        "linalg.det_s": total.get("linalg.det", 0.0) / n,
        "linalg.max_entry_bits": max(traced[i][6] for i in chosen),
        "report.rank_s": total.get("report.rank", 0.0) / n,
        "report.build_s": own.get("report.build", 0.0) / n,
        "report.to_json_s": total.get("report.to_json", 0.0) / n,
        "report.out_bytes": sum(traced[i][4] for i in chosen) / n,
        "tate.report_s": own.get("tate.report", 0.0) / n,
        "cli.self_s": own.get("cli.main", 0.0) / n,
        "trace.overhead_frac": sum(doc_seconds(traced).values())
        / sum(doc_seconds(untraced).values()) - 1,
    }


def trace_problems(untraced: list[list], traced: list[list], trace: list[list]) -> list[str]:
    """Traced stdout must equal untraced stdout byte for byte, spans must
    nest, and each traced document must have one root ``cli.main`` span
    whose layer self times add up to the document's own timed seconds."""
    problems = []
    if {r[0]: r[5] for r in traced} != {r[0]: r[5] for r in untraced}:
        problems.append("traced stdout differs from untraced stdout")
    if spans.nesting_errors(trace):
        problems.append("%d spans do not nest" % spans.nesting_errors(trace))
    roots: dict = {}
    for span in trace:
        if span[spans.PARENT] < 0:
            roots.setdefault(span[spans.DOC], []).append(span[spans.NAME])
    if set(roots) - set(range(len(traced))):
        problems.append("spans of no traced document")
    own = spans.self_times(trace, by=spans.DOC)
    for i, record in enumerate(traced):
        if roots.get(i) != ["cli.main"]:
            problems.append("%s: root spans %s, not one cli.main" % (record[0], roots.get(i)))
            continue
        gap = record[2] - own[i]
        if not 0 <= gap <= ROOT_GAP_S + ROOT_GAP_FRAC * record[2]:
            problems.append("%s: layer self times %.6f s, document %.6f s"
                            % (record[0], own[i], record[2]))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    digest_file = ROOT / "bench" / "digests.json"
    if not (src / "monograph" / "cli.py").is_file() or not digest_file.is_file():
        print("no package source under %s or no pinned digests" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import monograph.cli
    if not Path(monograph.cli.__file__).resolve().is_relative_to(src.resolve()):
        print("monograph was not imported from %s" % src, file=sys.stderr)
        return 2

    pool = workloads.pool(args.workload)
    input_dir = write_inputs(pool)
    docs = {d.id: d for variants in pool for d in variants}
    passes = workloads.schedule(args.workload, args.seed)
    pinned = json.loads(digest_file.read_text())

    setup: list[list] = []
    problems: list[str] = []
    if args.trace:
        tracer = spans.Tracer()
        untraced, traced = run_rounds(monograph.cli.main, docs, passes, input_dir,
                                      pinned, args.seconds, tracer)
        trace = tracer.spans
        (OUT / ("spans-%s-%d.json" % (args.workload, args.seed))).write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "doc", "cells"],
            "docs": [r[0] for r in traced],
            "spans": trace,
            "self_s": spans.self_times(trace),
            "inclusive_s": spans.inclusive_times(trace),
        }))
        metrics = per_layer(untraced, traced, trace)
        units = PER_LAYER
        problems = trace_problems(untraced, traced, trace)
    else:
        untraced, traced = run_rounds(
            monograph.cli.main, docs, passes, input_dir, pinned, args.seconds,
            each_round=lambda: setup.append(setup_sample(pool[0][0], input_dir, pinned)))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(untraced, statistics.median(scaled(s[0], s[2]) for s in setup),
                             rss_mb)
        units = END_TO_END
    records = untraced + traced
    failed = failures(records) + sum(1 for s in setup if s[1])
    for r in records:
        if r[3]:
            print("%s: %s" % (r[0], "; ".join(r[3])), file=sys.stderr)
    for s in setup:
        if s[1]:
            print("set-up run: %s" % "; ".join(s[1]), file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records) + len(setup),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
