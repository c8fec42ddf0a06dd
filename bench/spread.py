"""Run one workload on several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 bench/spread.py --workload holes --seeds 1-10

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
the bounds in ``BENCHMARK.json`` are held against.  Raw results are appended
as JSON lines to ``bench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    log = os.path.join(BENCH, "out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "exit": done.returncode, **result}) + "\n")
        print(f"seed {seed}: exit {done.returncode} failed {result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{k:14s} median {med:.6g}  spread {share:.4f}  bound {bounds[k]}  "
              f"{'ok' if share < bounds[k] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
