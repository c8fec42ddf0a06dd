"""Benchmark of the stsramsey package: four seeded closed-loop workloads.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload analyze13 --seed 1 --seconds 20 --trace 0

One process, one client: each operation starts when the previous one has
returned.  Set-up generates the workload's inputs from ``--seed``; a run then
repeats the workload's fixed operation list (one *pass*) as many times as fit
in ``--seconds`` at the reference speed of ``calibration.py``.  Every output
is checked (see ``checks.py``) outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: spans around
each public function of the package, timed from this directory's
``tracer.py``; the spans are written to ``bench/out/`` when the run ends.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibration import NOMINAL_S, SpeedLog
from tracer import CASES, CLI_LAYERS, LAYERS, SEARCH_LAYERS, Tracer

# Nothing above imports the package: the set-up probe times that import.
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("analyze13", "holes", "discrepancy", "structure")
# Modules whose import a command-line user pays for.
IMPORTED = ("stsramsey", "stsramsey.cli", "stsramsey.io")

END_TO_END = {  # name: unit
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
    "op_tail_s": "s", "exact_share": "ratio", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        if layer in SEARCH_LAYERS:
            units[f"{layer}.nodes"] = "count"
            units[f"{layer}.nodes_per_s"] = "1/s"
            units[f"{layer}.exact_share"] = "ratio"
    for case in CASES:
        units[f"colorings.decompose_3coloring.case_{case}"] = "count"
    units["randomized.triangle_removal.stuck_share"] = "ratio"
    for layer in CLI_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["setup.import_s"] = "s"
    units["setup.inputs_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=("wrong-reference", "bad-certificate"), default=None,
                   help="deliberately break one reference value or certificate (self-test)")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def probe(args) -> int:
    """One set-up in this fresh process: import, then generate the inputs."""
    speed = SpeedLog()
    speed.sample()
    t0 = time.perf_counter()
    for name in IMPORTED:
        importlib.import_module(name)
    t1 = time.perf_counter()
    import checks
    from workloads import WORKLOADS
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        t2 = time.perf_counter()
        WORKLOADS[args.workload](args.seed, workdir, checks.load_reference(),
                                 Tracer(), None).make_inputs()
        t3 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    speed.sample()
    scale = speed.factor()
    print(json.dumps({"import_s": (t1 - t0) * scale, "inputs_s": (t3 - t2) * scale,
                      "raw_s": t1 - t0 + t3 - t2}))
    return 0


def measure_setup(args) -> list[dict]:
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.raw: list[float] = []          # wall clock
        self.latencies: list[float] = []    # scaled to the reference speed
        self.exact: list[bool] = []
        self.fingerprints: list[str] = []
        self.problems: list[tuple[str, list[str]]] = []
        self.layers: dict = {}
        self.counts: dict = {}

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def scale(self, factor: float) -> None:
        self.latencies = [t * factor for t in self.raw]
        for stats in self.layers.values():
            stats["busy_s"] *= factor
            stats["self_s"] *= factor


def list_time(passes: list[Pass]) -> float:
    """Time to finish the operation list once: the sum over its operations of
    each one's median latency across the passes, so a slow spell of the
    machine that hits one pass does not decide the figure."""
    return sum(statistics.median(lat) for lat in zip(*(p.latencies for p in passes)))


def run_pass(ops, tracer, speed, traced: bool, number: int) -> Pass:
    from workloads import Outcome
    result = Pass(traced)
    first_span = len(tracer.spans)
    if traced:
        tracer.reset_counters()
        tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = f"{number}.{i}"
            speed.sample_if_stale()
            error = None
            start = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # an operation failure is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            result.raw.append(time.perf_counter() - start)
            with tracer.paused():
                if error is not None:
                    outcome = Outcome([error])
                else:
                    try:
                        outcome = op.check(output)
                    except Exception as exc:  # a malformed output fails its check
                        outcome = Outcome([f"check raised {type(exc).__name__}: {exc}"])
            result.exact += outcome.exact
            result.fingerprints.append(outcome.fingerprint)
            if outcome.problems:
                result.problems.append((op.name, outcome.problems))
    finally:
        if traced:
            tracer.uninstall()
    speed.sample()
    if traced:
        result.layers = tracer.layer_stats(first_span)
        result.counts = {"nodes": dict(tracer.nodes), "exact": dict(tracer.exact),
                         "cases": dict(tracer.cases), "stuck": tracer.stuck}
    return result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def count_metrics(p: Pass) -> dict[str, float]:
    """The deterministic per-layer counts of one traced pass."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls = p.layers.get(layer, {}).get("calls", 0)
        out[f"{layer}.calls"] = calls
        if layer in SEARCH_LAYERS:
            out[f"{layer}.nodes"] = p.counts["nodes"].get(layer, 0)
            exact = p.counts["exact"].get(layer, 0)
            out[f"{layer}.exact_share"] = exact / calls if calls else 0.0
    for case in CASES:
        out[f"colorings.decompose_3coloring.case_{case}"] = p.counts["cases"].get(case, 0)
    tr_calls = out["randomized.triangle_removal.calls"]
    out["randomized.triangle_removal.stuck_share"] = (
        p.counts["stuck"] / tr_calls if tr_calls else 0.0)
    return out


def layer_metrics(traced: list[Pass], untraced: list[Pass], setup: list[dict],
                  problems: list[str]) -> dict[str, float]:
    counts = count_metrics(traced[0])
    for p in traced[1:]:
        other = count_metrics(p)
        changed = sorted(k for k in counts if counts[k] != other[k])
        if changed:
            problems.append("counts differ between traced passes: " + ", ".join(changed))
    metrics = dict(counts)

    def median_of(layer: str, key: str) -> float:
        return statistics.median(p.layers.get(layer, {}).get(key, 0.0) for p in traced)

    for layer in LAYERS:
        busy = median_of(layer, "busy_s")
        metrics[f"{layer}.busy_s"] = busy
        if layer in SEARCH_LAYERS:
            metrics[f"{layer}.nodes_per_s"] = metrics[f"{layer}.nodes"] / busy if busy else 0.0
    for layer in CLI_LAYERS:
        metrics[f"{layer}.self_s"] = median_of(layer, "self_s")
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    metrics["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setup)
    metrics["trace.overhead_s"] = list_time(traced) - list_time(untraced)
    return metrics


def print_self_times(traced: list[Pass]) -> None:
    names = sorted({name for p in traced for name in p.layers})
    print("per-layer time in one traced pass (median over traced passes):")
    print(f"  {'layer':40s} {'calls':>7s} {'busy_s':>10s} {'self_s':>10s}")
    for name in names:
        def med(key):
            return statistics.median(p.layers.get(name, {}).get(key, 0.0) for p in traced)
        print(f"  {name:40s} {int(med('calls')):7d} {med('busy_s'):10.4f} {med('self_s'):10.4f}")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stsramsey", "__init__.py")):
        print(f"error: no package source at {os.path.relpath(SRC)}/stsramsey; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.probe:
        return probe(args)

    setup = measure_setup(args)
    import checks
    from workloads import WORKLOADS

    reference = checks.load_reference()
    tracer = Tracer()
    speed = SpeedLog()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, reference, tracer, args.inject)
        workload.make_inputs()
        if args.inject == "wrong-reference":
            names = [name for name, _ in getattr(workload, "systems", [])]
            checks.inject_wrong_reference(reference, args.workload, names)
        ops = workload.ops()
        problems = [f"inputs: {p}" for p in workload.input_problems()]
        inputs_failed = bool(problems)
        # A fixed number of passes per run: as many as fit in --seconds at the
        # reference speed, so every run of a workload has the same samples.
        passes: list[Pass] = []
        count = max(int(args.seconds // workload.pass_seconds), 2 if args.trace else 1)
        while len(passes) < count:
            traced = bool(args.trace) and len(passes) % 2 == 1
            gc.collect()
            passes.append(run_pass(ops, tracer, speed, traced, len(passes)))
        factor = speed.factor()
        for p in passes:
            p.scale(factor)
        if args.trace:
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                        {"workload": args.workload, "seed": args.seed,
                         "passes": [{"traced": p.traced, "wall_s": p.wall} for p in passes]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # One attempt per operation per pass, plus the set-up check of the inputs.
    # Determinism inside the run: every pass must reproduce the first one.
    attempted = 1 + len(ops) * len(passes)
    failed_ops: set[tuple[int, int]] = set()
    first = passes[0]
    names = {op.name: i for i, op in enumerate(ops)}
    for number, p in enumerate(passes):
        for name, why in p.problems:
            failed_ops.add((number, names[name]))
            problems.append(f"pass {number} op {name}: {'; '.join(why)}")
        changed = [i for i, (a, b) in enumerate(zip(first.fingerprints, p.fingerprints)) if a != b]
        if p.exact != first.exact and not changed:
            changed = list(range(len(ops)))
        for i in changed:
            failed_ops.add((number, i))
        if changed:
            problems.append(f"pass {number} differs from pass 0 in: "
                            + ", ".join(ops[i].name for i in changed))
    failed = len(failed_ops) + inputs_failed

    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    latencies = [t for p in untraced for t in p.latencies]
    if args.trace:
        before = len(problems)
        metrics = layer_metrics(traced_passes, untraced, setup, problems)
        attempted += 1          # the traced passes' counts must agree
        failed += len(problems) > before
        units = per_layer_units()
        print_self_times(traced_passes)
    else:
        tail_value, tail_pct, tail_n = tail(latencies)
        metrics = {
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setup),
            "wall_s": list_time(untraced),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            # structure computes no parameters: vacuously all exact
            "exact_share": (sum(first.exact) / len(first.exact)) if first.exact else 1.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"op_tail_s is p{tail_pct:.1f} of {tail_n} operations")
    fail_share = failed / attempted
    correct = not problems
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(ops)} "
          f"operations ({len(traced_passes)} traced), closed loop, 1 client")
    print("operation time per pass (scaled / wall clock, t = traced): " + " ".join(
        f"{p.wall:.3f}/{sum(p.raw):.3f}{'t' if p.traced else ''}" for p in passes))
    print(f"reference loop: median {statistics.median(speed.samples) * 1e3:.2f} ms over "
          f"{len(speed.samples)} samples (nominal {NOMINAL_S * 1e3:.0f} ms); set-up wall clock "
          f"median {statistics.median(s['raw_s'] for s in setup):.4f} s")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_share = {fail_share:.6g} ratio ({failed} of {attempted})")
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
