"""Correctness checks for benchmark outputs.

Every certificate is re-verified through the package's public verifiers
(``verify_hole``, ``largest_mono_component``) or, for independent sets, by a
direct check.  Values are held against the paper's inequalities on every
seed, and against ``reference.json`` where it applies: deterministic systems
and the discrepancy experiment (whose own seeds are fixed) on every seed,
seeded inputs on the reference seed only.  An exact value must equal the
reference; an inexact one is a one-sided bound and must lie on the right side
of it.
"""

from __future__ import annotations

import json
import math
import os

import stsramsey.core as core

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
CSV_HEADER = "seed,n,model,m_or_p,sample,alpha_star3,exact,nodes,seconds"
# parameters whose certificate proves a lower bound (the rest: an upper bound)
MAXIMIZED = ("alpha", "alpha_star3")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _seeded(name: str) -> bool:
    return name.startswith("random_")


def truth(reference: dict, seed: int, name: str, param: str) -> tuple[int, int] | None:
    """Known (lower, upper) bounds on a parameter; equal when proven."""
    if _seeded(name) and seed != reference["seed"]:
        return None
    entry = reference["values"].get(name, {}).get(param)
    return None if entry is None else (entry["lower"], entry["upper"])


def gyarfas(n: int) -> int:
    return -(-2 * n // 3) + 1


def _certificate_problems(ts, param: str, value: int, cert) -> list[str]:
    n = ts.n
    if param == "alpha":
        chosen = set(cert)
        if len(chosen) != value or len(cert) != value or not all(0 <= v < n for v in chosen):
            return ["alpha: independent set has the wrong size or vertices"]
        if any(set(t) <= chosen for t in ts.triples):
            return ["alpha: independent set contains a triple"]
        return []
    if param == "alpha_star3":
        hole = core.HoleCertificate(k=cert["k"], a=cert["a"],
                                    parts=tuple(frozenset(p) for p in cert["parts"]))
        if hole.k != 3 or hole.a != value:
            return ["alpha_star3: hole certificate does not match the value"]
        try:
            ok = core.verify_hole(ts, hole)
        except core.MalformedCertificate as exc:
            return [f"alpha_star3: malformed hole ({exc})"]
        return [] if ok else ["alpha_star3: hole is crossed by a triple"]
    try:
        coloring = core.EdgeColoring(system=ts, r=cert["r"], colors=tuple(cert["colors"]))
    except ValueError as exc:
        return [f"mc3: invalid coloring ({exc})"]
    if cert["r"] != 3 or core.largest_mono_component(coloring)[0] != value:
        return ["mc3: coloring does not certify the value"]
    return []


def check_value(param: str, value: int, exact: bool, n: int,
                known: tuple[int, int] | None) -> list[str]:
    """The value against the reference and the paper's inequalities."""
    problems = []
    if known is not None:
        lo, hi = known
        if exact and not lo <= value <= hi:
            problems.append(f"{param}: exact {value} contradicts the reference [{lo}, {hi}]")
        if not exact and param in MAXIMIZED and value > hi:
            problems.append(f"{param}: lower bound {value} above the reference {hi}")
        if not exact and param not in MAXIMIZED and value < lo:
            problems.append(f"{param}: upper bound {value} below the reference {lo}")
    if param == "alpha_star3" and value > n // 3 - 1:
        problems.append(f"alpha_star3: {value} > floor(n/3) - 1")
    if param == "mc3" and value < gyarfas(n):
        problems.append(f"mc3: {value} < ceil(2n/3) + 1")
    return problems


def check_report(report: dict, name: str, ts, reference: dict, seed: int):
    """Re-verify one `analyze` report; returns (problems, exactness, fingerprint)."""
    n = ts.n
    problems = []
    if report["input"]["n"] != n or report["input"]["m"] != ts.m or not report["input"]["steiner"]:
        problems.append("report describes a different input")
    params = report["parameters"]
    exact = []
    for param in ("alpha", "alpha_star3", "mc3"):
        if param not in params:
            continue
        doc = params[param]
        exact.append(bool(doc["exact"]))
        problems += _certificate_problems(ts, param, doc["value"], doc["certificate"])
        problems += check_value(param, doc["value"], doc["exact"], n,
                                truth(reference, seed, name, param))
    hole, mc = params.get("alpha_star3"), params.get("mc3")
    if hole and mc and mc["exact"]:
        if mc["value"] > n - hole["value"]:
            problems.append("mc3 exceeds n - a for the verified hole")
        if hole["exact"] and mc["value"] < n - 2 * hole["value"]:
            problems.append("mc3 below n - 2*alpha*_3")
    problems += [f"verdict {v['name']} is false" for v in report["verdicts"] if v["pass"] is False]
    fingerprint = json.dumps({k: [v["value"], v["exact"], v["nodes"]] for k, v in params.items()},
                             sort_keys=True)
    return problems, exact, fingerprint


def check_discrepancy(summary: dict, text: str, n: int, samples: int, exp_seed: int,
                      reference: dict):
    """Check the experiment CSV row by row; returns (problems, exactness, fingerprint)."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header changed"], [], ""
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != 2 * samples or summary.get("rows") != 2 * samples:
        return [f"expected {2 * samples} CSV rows"], [], ""
    problems = []
    exact = []
    models = (("triangle_removal", round(math.comb(n, 2) / 6), n // 3),
              ("random_sts", n * (n - 1) // 6, n // 3 - 1))
    for i, row in enumerate(rows):
        model, m_or_p, bound = models[i % 2]
        ok = (len(row) == 9 and row[0] == str(exp_seed) and row[1] == str(n)
              and row[2] == model and row[3] == str(m_or_p) and row[4] == str(i // 2)
              and row[6] in ("true", "false") and row[7].isdigit() and row[8].isdigit()
              and row[5].isdigit() and int(row[5]) <= bound)
        if not ok:
            problems.append(f"CSV row {i} malformed or out of bounds: {','.join(row)}")
            continue
        exact.append(row[6] == "true")
    expected = reference["discrepancy_csv"].get(str(exp_seed))
    if expected is not None and [",".join(row[:7]) for row in rows] != expected:
        problems.append("seeded CSV columns differ from the reference")
    fingerprint = "\n".join(",".join(row[:8]) for row in rows)
    return problems, exact, fingerprint


def digest_problems(reference: dict, seed: int, workload: str, digests: dict) -> list[str]:
    if seed != reference["seed"]:
        return []
    recorded = reference["digests"]
    return [f"sampler output {name} differs from the reference"
            for name, d in digests.items() if recorded.get(f"{workload}/{name}") != d]


# ---------------------------------------------------------------------------
# Deliberate faults for the self-test
# ---------------------------------------------------------------------------

def corrupt_report(report: dict) -> None:
    """Break one certificate in an `analyze` report."""
    params = report["parameters"]
    if "alpha_star3" in params:
        parts = params["alpha_star3"]["certificate"]["parts"]
        parts[0].append(parts[1].pop())
    elif "mc3" in params:
        cert = params["mc3"]["certificate"]
        cert["colors"] = [0] * len(cert["colors"])
    else:
        cert = params["alpha"]["certificate"]
        cert.append(next(v for v in range(report["input"]["n"]) if v not in cert))


def corrupt_csv(text: str) -> str:
    """Raise one alpha*_3 value in the CSV past every bound."""
    lines = text.splitlines()
    row = lines[1].split(",")
    row[5] = str(int(row[1]))
    lines[1] = ",".join(row)
    return "\n".join(lines) + "\n"


def corrupt_decomposition(d, n: int):
    """Claim a spanning component that misses a vertex."""
    return type(d)(case="L1", role_colors=d.role_colors, component=frozenset(range(n - 1)))


def inject_wrong_reference(reference: dict, workload: str, names: list[str]) -> None:
    """Shift one recorded reference value so a correct output contradicts it."""
    if workload == "discrepancy":
        key = sorted(reference["discrepancy_csv"])[0]
        row = reference["discrepancy_csv"][key][0].split(",")
        row[5] = str(int(row[5]) + 1)
        reference["discrepancy_csv"][key][0] = ",".join(row)
        return
    if workload == "structure":
        key = next(k for k in sorted(reference["digests"]) if k.startswith("structure/"))
        reference["digests"][key] = "0" * 16
        return
    for name in names:
        for entry in reference["values"].get(name, {}).values():
            if entry["lower"] == entry["upper"]:
                entry["lower"] = entry["upper"] = entry["upper"] + 1
                return
