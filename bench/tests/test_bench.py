"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from run import REFERENCE_S, doc_seconds, run_doc, trace_problems  # noqa: E402


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        first = workloads.schedule(workload, 7)
        assert first == workloads.schedule(workload, 7)
        assert first != workloads.schedule(workload, 8)
        docs = {d.id: d for v in workloads.pool(workload) for d in v}
        again = {d.id: d for v in workloads.pool(workload) for d in v}
        assert all(docs[i] == again[i] for ids in first for i in ids)


def test_every_pool_document_is_pinned():
    pinned = json.loads((BENCH / "digests.json").read_text())
    ids = {d.id for w in workloads.WORKLOADS for v in workloads.pool(w) for d in v}
    assert ids == set(pinned)


def test_one_corrupted_byte_fails():
    from monograph.cli import main
    pinned = json.loads((BENCH / "digests.json").read_text())
    doc = workloads.pool("tate-ladder")[0][1]
    code, stdout, _ = run_doc(main, doc.argv(""))
    assert workloads.check_output(doc, code, stdout, pinned[doc.id])[0] == []
    corrupted = stdout[:-1] + " "  # still valid JSON with the same content
    problems, _ = workloads.check_output(doc, code, corrupted, pinned[doc.id])
    assert problems == ["stdout differs from the pinned digest"]


def test_invariants_catch_a_consistent_wrong_answer(tmp_path):
    from monograph.cli import main
    doc = workloads.pool("cycle-defect")[0][1]
    (tmp_path / doc.file_name).write_text(doc.text)
    code, stdout, _ = run_doc(main, doc.argv(str(tmp_path)))
    wrong = stdout.replace('"defect": 1', '"defect": 0')
    problems, _ = workloads.check_output(doc, code, wrong, workloads.digest(wrong))
    assert problems == ["defect 0 with holonomy %s" % doc.holonomy]


def test_self_times_add_up():
    trace = [["root", 0.0, 10.0, -1, 0, None],
             ["a", 1.0, 4.0, 0, 0, 4],
             ["b", 2.0, 3.0, 1, 0, 4],
             ["a", 5.0, 6.0, 0, 0, 9]]
    own = spans.self_times(trace)
    assert own == {"root": 6.0, "a": 3.0, "b": 1.0}
    assert spans.inclusive_times(trace) == {"root": 10.0, "a": 4.0, "b": 1.0}
    assert spans.self_times(trace, by=spans.DOC) == {0: 10.0}
    assert spans.nesting_errors(trace) == 0
    assert spans.nesting_errors(trace + [["c", 9.0, 11.0, 0, 0, None]]) == 1


def test_trace_must_cover_each_timed_document():
    def record(doc_id, took):
        return [doc_id, 1, took, [], 10, "digest-" + doc_id, 0]

    untraced = [record("a", 1.0), record("b", 2.0)]
    traced = [record("a", 1.1), record("b", 2.1)]
    trace = [["cli.main", 0.0, 1.1 - 1e-6, -1, 0, None],
             ["linalg.rref", 0.2, 0.9, 0, 0, 16],
             ["cli.main", 5.0, 7.1 - 1e-6, -1, 1, None]]
    assert trace_problems(untraced, traced, trace) == []

    missing_root = [trace[0], trace[1]]
    assert trace_problems(untraced, traced, missing_root) == \
        ["b: root spans None, not one cli.main"]
    short_root = trace[:2] + [["cli.main", 5.0, 6.5, -1, 1, None]]
    assert trace_problems(untraced, traced, short_root) == \
        ["b: layer self times 1.500000 s, document 2.100000 s"]
    two_roots = trace + [["linalg.rref", 8.0, 8.1, -1, 1, 4]]
    assert trace_problems(untraced, traced, two_roots)[0].startswith("b: root spans")
    stray = trace + [["linalg.rref", 8.0, 8.1, -1, None, 4]]
    assert "spans of no traced document" in trace_problems(untraced, traced, stray)
    changed = [record("a", 1.1), record("b", 2.1)[:5] + ["other", 0]]
    assert trace_problems(untraced, changed, trace) == \
        ["traced stdout differs from untraced stdout"]


def test_times_follow_the_reference_kernel():
    # the same wall time counts as half as long while the machine runs the
    # reference kernel at half speed; a document's time is its median
    records = [["a", 0, 0.4, [], 1, "d", 0, 2 * REFERENCE_S],
               ["a", 1, 0.2, [], 1, "d", 0, REFERENCE_S],
               ["a", 2, 0.9, [], 1, "d", 0, REFERENCE_S],
               ["b", 0, 0.3, [], 1, "d", 0, 3 * REFERENCE_S]]
    assert doc_seconds(records) == {"a": 0.2, "b": 0.1}


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "tate-ladder",
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_every_named_metric_is_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[group]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
