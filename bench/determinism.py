"""Run every workload twice on the same seed and diff the counts.

Usage (from the root of a checkout)::

    python3 bench/determinism.py

Per-layer ``calls`` and ``nodes``, the decomposition case counts, the
per-layer ``exact_share`` and ``stuck_share`` (traced runs) and
``exact_share`` plus ``fail_share`` (untraced runs) must repeat exactly.
Every difference is printed by metric name; the exit code is non-zero if
there is one.  Short runs suffice: the counts are per pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("analyze13", "holes", "discrepancy", "structure")
SEED = 1
SECONDS = 3
EXACT_SUFFIXES = (".calls", ".nodes", ".exact_share", ".stuck_share",
                  ".case_L1", ".case_L2", ".case_L3")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if k == "exact_share" or k.endswith(EXACT_SUFFIXES)}
    counts["fail_share"] = result["failed"] / result["attempted"]
    return counts


def main() -> int:
    differences = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            a, b = run(workload, trace), run(workload, trace)
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            differences += len(diff)
            for k in diff:
                print(f"{workload} trace={trace}: {k} {a.get(k)} != {b.get(k)}")
            print(f"{workload} trace={trace}: {len(a)} counts, {len(diff)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
