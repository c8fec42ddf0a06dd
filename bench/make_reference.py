"""Record ``reference.json``: expected outcomes for the default seed.

Usage (from the root of a checkout)::

    python3 bench/make_reference.py [--max-nodes 20000000]

For every system of the analyze13 and holes workloads the true parameter
values are searched with a node cap far above the workloads' own; a value
the search cannot prove is stored as the interval it did prove (certificate
value up to the paper's upper bound).  Also stored: the discrepancy CSV
columns other than ``nodes`` and ``seconds``, and digests of the sampler
outputs, all for the default seed.  Run it only on a commit whose outputs
are trusted; every later run is checked against the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (DEFAULT_SEED, Analyze13, Discrepancy, Holes,  # noqa: E402
                       Structure, digest)

from stsramsey.search import (SearchBudget, alpha_star,  # noqa: E402
                              independence_number, mc_exact)


def truth_of(system, params, max_nodes: int) -> dict:
    budget = SearchBudget(max_nodes=max_nodes, max_seconds=1e9)
    n = system.n
    out = {}
    for param in params:
        if param == "alpha":
            res = independence_number(system, budget)
            bounds = (res.value, res.value if res.exact else n)
        elif param == "alpha_star3":
            res = alpha_star(system, 3, budget)
            bounds = (res.value, res.value if res.exact else n // 3 - 1)
        else:
            res = mc_exact(system, 3, budget)
            bounds = (res.value if res.exact else checks.gyarfas(n), res.value)
        out[param] = {"lower": bounds[0], "upper": bounds[1]}
        print(f"  {param}: {out[param]} after {res.budget_spent.nodes} nodes", flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--max-nodes", type=int, default=20_000_000)
    args = p.parse_args(argv)
    seed = DEFAULT_SEED
    ref = {"seed": seed, "values": {}, "discrepancy_csv": {}, "digests": {},
           "recorded_with": {"python": platform.python_version(), "max_nodes": args.max_nodes}}
    tracer = Tracer()
    with tempfile.TemporaryDirectory() as workdir:
        for cls, params in ((Analyze13, ("alpha", "alpha_star3", "mc3")),
                            (Holes, ("alpha", "alpha_star3"))):
            wl = cls(seed, workdir, ref, tracer, None)
            wl.make_inputs()
            for name, make in wl.systems:
                print(f"{cls.name}/{name}", flush=True)
                ref["values"][name] = truth_of(make(seed), params, args.max_nodes)
            for name, d in wl.digests.items():
                ref["digests"][f"{cls.name}/{name}"] = d
        wl = Discrepancy(seed, workdir, ref, tracer, None)
        wl.make_inputs()
        for op, (exp_seed, path) in zip(wl.ops(), wl.runs):
            code, _ = op.run()
            if code != 0:
                raise SystemExit(f"discrepancy run failed with exit code {code}")
            with open(path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            ref["discrepancy_csv"][str(exp_seed)] = [",".join(r.split(",")[:7]) for r in rows]
        wl = Structure(seed, workdir, ref, tracer, None)
        wl.make_inputs()
        for op in wl.ops():
            if op.name in wl.sampler_seeds:
                out = op.run()
                triples = out.system.triples if op.name == "triangle_removal99" else out.triples
                ref["digests"][f"structure/{op.name}"] = digest(triples)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
