"""Pin the stdout digest of every pool document of every workload.

    python3 bench/pin.py

Writes bench/digests.json.  Run it only at a commit whose output is known
good: the benchmark then counts any other stdout bytes as a failure.  A
document that exits non-zero or breaks an invariant is refused, not pinned.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from run import ROOT, run_doc, write_inputs


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from monograph.cli import main as cli_main
    pinned, bad = {}, 0
    for workload in workloads.WORKLOADS:
        pool = workloads.pool(workload)
        input_dir = write_inputs(pool)
        for variants in pool:
            for doc in variants:
                code, stdout, _ = run_doc(cli_main, doc.argv(input_dir))
                problems, _ = workloads.check_output(doc, code, stdout,
                                                     workloads.digest(stdout))
                if problems:
                    print("%s: %s" % (doc.id, "; ".join(problems)), file=sys.stderr)
                    bad += 1
                pinned[doc.id] = workloads.digest(stdout)
    if bad:
        return 1
    (ROOT / "bench" / "digests.json").write_text(json.dumps(pinned, indent=0, sort_keys=True) + "\n")
    print("pinned %d documents" % len(pinned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
