"""Show that the benchmark's correctness checks catch a wrong output.

Usage (from the root of a checkout)::

    python3 bench/selftest.py

Runs short runs (one pass, two when traced) with a deliberately wrong reference value or a corrupted
certificate and requires each to end with ``failed > 0`` and a non-zero exit
code; runs one clean pass per workload and requires it to pass.  Also checks
that the metric names the benchmark prints are those listed in
``BENCHMARK.json``.  Exits non-zero on any mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEED = 1

CASES = [  # workload, injected fault, expected to pass
    ("holes", "wrong-reference", False),
    ("holes", "bad-certificate", False),
    ("discrepancy", "wrong-reference", False),
    ("discrepancy", "bad-certificate", False),
    ("structure", "wrong-reference", False),
    ("structure", "bad-certificate", False),
    ("discrepancy", None, True),
    ("structure", None, True),
]


def run(workload: str, inject: str | None, trace: int = 0) -> tuple[int, dict]:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = []
    for workload, inject, should_pass in CASES:
        code, result = run(workload, inject)
        caught = code != 0 and result["failed"] > 0 and not result["correct"]
        ok = (code == 0 and result["failed"] == 0) if should_pass else caught
        print(f"{workload:12s} {inject or 'clean':16s} exit={code} "
              f"failed={result['failed']}/{result['attempted']} -> {'ok' if ok else 'WRONG'}")
        if not ok:
            bad.append((workload, inject))
        if inject is None and set(result["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
            bad.append((workload, "end_to_end metric names differ from BENCHMARK.json"))
    code, result = run("discrepancy", None, trace=1)
    if code != 0 or set(result["metrics"]) != {m["name"] for m in spec["per_layer"]}:
        bad.append(("discrepancy", "per_layer metric names differ from BENCHMARK.json"))
    for item in bad:
        print(f"FAILED: {item}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
