"""Run every workload over two sets of seeds and record the medians.

    python3 bench/baseline.py

For each workload: one untraced run per seed of each set, reporting each
end-to-end metric's median and its spread (interquartile range over median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles) per set, and
how far the second set's median is worse than the first's, as a share of the
first; then one traced run for the per-layer metrics.  Runs are as long as
BENCHMARK.json's ``run_seconds``.  The file also records the machine and the
size of the package, so entries from two commits can be compared.  Writes
bench/baseline.json; takes about 21 x (run_seconds + 5) s per workload.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import workloads
from run import ROOT, SPEC

SEED_SETS = (list(range(1, 11)), list(range(11, 21)))
TRACE_SEED = 1


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=180)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "unit": first["unit"],
                     "spread": (q3 - q1) / median, "values": values}
    return out


def worse(metric: dict, first: float, second: float) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    doc = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "seed_sets": SEED_SETS,
        "trace_seed": TRACE_SEED,
        "seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        sets = [[bench(workload, seed, 0) for seed in seeds] for seeds in SEED_SETS]
        traced = bench(workload, TRACE_SEED, 1)
        runs = [r for runs in sets for r in runs] + [traced]
        first, second = (summary(runs) for runs in sets)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": [first, second],
            "second_worse_by": {m["name"]: worse(m, first[m["name"]]["median"],
                                                 second[m["name"]]["median"])
                                for m in SPEC["end_to_end"]},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(workload, json.dumps({name: [round(first[name]["spread"], 4),
                                           round(second[name]["spread"], 4), round(w, 4)]
                                    for name, w in
                                    doc["workloads"][workload]["second_worse_by"].items()}),
              file=sys.stderr, flush=True)
    (ROOT / "bench" / "baseline.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
