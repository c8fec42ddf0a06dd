"""Command-line front end.

Machine-readable payloads (JSON documents, system/coloring files when no
output path is given) go to standard output; progress notes go to standard
error.  Exit codes partition the failure classes:

* 2 - construction-level failure (bad order, or an --n that the
  construction does not have)
* 3 - a file that cannot be read or written, or an invalid input file
* 4 - scheme mismatch (a system off the Bose/Skolem layer pattern, no
  hole, no bicoloring, or a ``--hole-file`` without ``--scheme hole``), or
  a bicoloring search that ran out of budget
* 5 - parameter violation in random processes and experiments (including
  an option the process does not read), or a search budget (``--max-nodes``,
  ``--max-seconds``) that is not positive, such as 0 or NaN

JSON reports carry ``"schema": "sts-report/1"``; readers should tolerate
unknown fields.  Timing fields are rounded to whole seconds so identical
invocations produce byte-identical outputs (wall-clock-limited searches are
the documented exception: the clock may flip ``exact`` itself).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict
from typing import NoReturn

import click

from . import colorings as col
from . import constructions as cons
from . import io as sio
from . import randomized as rnd
from .core import (
    EdgeColoring,
    InvalidHole,
    MissingLabels,
    StsError,
    TripleSystem,
    is_steiner,
    largest_mono_component,
    mono_components,
)
from .search import (SearchBudget, alpha_star, bicoloring_search, independence_number,
                     mc3_by_decomposition, mc_exact)

REPORT_SCHEMA = "sts-report/1"


def _emit(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


def _fail(message: str, code: int) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write_or_exit(write, obj, path: str) -> None:
    try:
        write(obj, path)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}", 3)


@click.group()
def cli():
    """Steiner triple systems: generate, analyze, color, simulate."""


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--construction", type=click.Choice(["fano", "s9", "bose", "skolem"]),
              required=True)
@click.option("--n", "n", type=int, default=None,
              help="Vertex count: required for bose/skolem, 7 or 9 if given for fano/s9.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Output file; stdout when omitted.")
def gen(construction: str, n: int | None, output: str | None):
    """Generate a Steiner triple system and emit the system file."""
    try:
        if construction in ("fano", "s9"):
            system = cons.fano() if construction == "fano" else cons.s9()
            if n is not None and n != system.n:
                raise StsError(f"{construction} has {system.n} vertices, not --n {n}")
        elif n is None:
            raise StsError(f"--n is required for {construction}")
        else:
            system = cons.bose(n) if construction == "bose" else cons.skolem(n)
    except StsError as exc:
        _fail(str(exc), 2)
    if output:
        _write_or_exit(sio.write_system, system, output)
        click.echo(f"wrote {system.m} triples on {system.n} vertices to {output}", err=True)
    else:
        click.echo(sio.format_system(system), nl=False)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _read_system_or_exit(path: str) -> TripleSystem:
    try:
        return sio.read_system(path)
    except (OSError, sio.FormatError, StsError) as exc:
        _fail(f"cannot read system from {path}: {exc}", 3)


def _budget_or_exit(max_nodes: int, max_seconds: float) -> SearchBudget:
    try:
        return SearchBudget(max_nodes=max_nodes, max_seconds=max_seconds)
    except ValueError as exc:
        _fail(str(exc), 5)


def _result_doc(res, certificate_doc) -> dict:
    return {
        "value": res.value,
        "exact": res.exact,
        "certificate": certificate_doc,
        "nodes": res.budget_spent.nodes,
    }


def _verdict(name: str, statement: str, ok: bool | None) -> dict:
    return {"name": name, "statement": statement, "pass": ok}


@cli.command()
@click.option("-i", "--input", "in_path", type=click.Path(exists=False), required=True)
@click.option("--param", type=click.Choice(["alpha", "alpha-star3", "mc3", "all"]),
              default="all")
@click.option("--max-nodes", type=int, default=SearchBudget.max_nodes)
@click.option("--max-seconds", type=float, default=SearchBudget.max_seconds)
def analyze(in_path: str, param: str, max_nodes: int, max_seconds: float):
    """Compute Ramsey-type parameters of a system file and report JSON."""
    t_start = time.monotonic()
    budget = _budget_or_exit(max_nodes, max_seconds)
    ts = _read_system_or_exit(in_path)
    steiner = is_steiner(ts)
    construction = "bose" if ts.n % 6 == 3 else "skolem"
    layer = []
    if steiner:
        try:
            coloring = col.bose_coloring(ts) if construction == "bose" else col.skolem_coloring(ts)
            layer = [(f"{construction}_coloring", coloring)]
        except MissingLabels:
            pass
    want = {"alpha", "alpha-star3", "mc3"} if param == "all" else {param}

    parameters: dict = {}
    astar_res = None
    mc_res = None

    if "alpha" in want:
        click.echo("searching independence number...", err=True)
        alpha_res = independence_number(ts, budget)
        parameters["alpha"] = _result_doc(alpha_res, sorted(alpha_res.lower_certificate))
    if "alpha-star3" in want:
        click.echo("searching 3-partite-hole number...", err=True)
        astar_res = alpha_star(ts, 3, budget)
        hole = astar_res.lower_certificate
        parameters["alpha_star3"] = _result_doc(
            astar_res, {"k": hole.k, "a": hole.a, "parts": [sorted(p) for p in hole.parts]})
    if "mc3" in want:
        click.echo("searching monochromatic-component number...", err=True)
        if steiner:
            mc_res, upper_source = mc3_by_decomposition(ts, astar_res, budget, layer)
            lower_source = "decomposition"
        else:
            hole_cert = astar_res.lower_certificate if astar_res else None
            initial = (col.hole_coloring(ts, hole_cert)
                       if hole_cert is not None and hole_cert.a > 0 else None)
            mc_res = mc_exact(ts, 3, budget, initial=initial)
            upper_source = (
                "search" if mc_res.exact or initial is None
                or mc_res.value < largest_mono_component(initial)[0] else "hole_coloring")
            lower_source = "search"
        parameters["mc3"] = _result_doc(
            mc_res, {"r": 3, "colors": list(mc_res.lower_certificate.colors)})
        parameters["mc3"]["upper_bound_source"] = upper_source
        parameters["mc3"]["lower_bound_source"] = lower_source if mc_res.exact else None

    n = ts.n
    a_exact = astar_res.value if (astar_res and astar_res.exact) else None
    # the closed forms are theorems about Steiner systems only
    bounds = col.closed_form_bounds(n, a_exact) if steiner and n >= 3 else None

    verdicts = []
    if steiner and n > 3:
        verdicts.append(_verdict(
            "alpha_star3_upper", "alpha*_3 <= floor(n/3) - 1",
            None if a_exact is None else a_exact <= bounds.alpha_upper))
        mc_exact_val = mc_res.value if (mc_res and mc_res.exact) else None
        verdicts.append(_verdict(
            "mc3_gyarfas_lower", "mc_3 >= ceil(2n/3) + 1",
            None if mc_exact_val is None else mc_exact_val >= bounds.gyarfas))
        verdicts.append(_verdict(
            "mc3_hole_chain", "n - 2*alpha*_3 <= mc_3 <= n - alpha*_3",
            None if (a_exact is None or mc_exact_val is None)
            else (bounds.hole_lower <= mc_exact_val <= bounds.hole_upper)))
        hole_a = astar_res.lower_certificate.a if astar_res else None
        verdicts.append(_verdict(
            "mc3_le_n_minus_hole", "mc_3 <= n - a for the verified hole",
            None if (hole_a is None or hole_a == 0 or mc_exact_val is None)
            else mc_exact_val <= n - hole_a))

    report = {
        "schema": REPORT_SCHEMA,
        "input": {
            "path": in_path,
            "n": ts.n,
            "m": ts.m,
            "steiner": steiner,
            "degenerate": steiner and ts.n == 3,
            "construction": construction if layer else None,
        },
        "parameters": parameters,
        "bounds": None if bounds is None else {**asdict(bounds), "z2": round(bounds.z2, 6)},
        "verdicts": verdicts,
        "timing": {"total_seconds": round(time.monotonic() - t_start)},
    }
    _emit(report)


# ---------------------------------------------------------------------------
# color
# ---------------------------------------------------------------------------

def _coloring_summary(coloring: EdgeColoring, scheme: str, bound: int | None) -> dict:
    comps = mono_components(coloring)
    size, color, witness = largest_mono_component(coloring)
    per_color = []
    for c in range(coloring.r):
        per_color.append({
            "color": c,
            "triples": coloring.colors.count(c),
            "span": len(comps.spanned[c]),
            "component_sizes": sorted((len(x) for x in comps.components[c]), reverse=True),
        })
    return {
        "schema": REPORT_SCHEMA,
        "scheme": scheme,
        "colors": coloring.r,
        "per_color": per_color,
        "max_component": {"size": size, "color": color, "vertices": sorted(witness)},
        "guaranteed_bound": bound,
    }


@cli.command()
@click.option("-i", "--input", "in_path", required=True)
@click.option("--scheme", type=click.Choice(["hole", "bose", "skolem", "bicolor"]),
              required=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Coloring file to write.")
@click.option("--hole-file", type=click.Path(dir_okay=False), default=None,
              help="Use this hole certificate instead of searching (scheme hole).")
@click.option("--max-nodes", type=int, default=SearchBudget.max_nodes)
@click.option("--max-seconds", type=float, default=SearchBudget.max_seconds)
def color(in_path: str, scheme: str, output: str | None, hole_file: str | None,
          max_nodes: int, max_seconds: float):
    """Build one of the explicit colorings and print its span/component table."""
    budget = _budget_or_exit(max_nodes, max_seconds)
    ts = _read_system_or_exit(in_path)
    try:
        if hole_file is not None and scheme != "hole":
            raise StsError(f"--hole-file applies only to --scheme hole, not {scheme}")
        if scheme in ("bose", "skolem"):
            coloring = col.bose_coloring(ts) if scheme == "bose" else col.skolem_coloring(ts)
            # each color misses a layer of n//3 points except at its type-1
            # triples, one per cell: n//3 of them for Bose, n//6 for Skolem
            type1 = ts.n // 3 if scheme == "bose" else ts.n // 6
            bound = ts.n - ts.n // 3 + -(-type1 // 3)
        else:  # a hole, from the file, the hole search or a bicoloring
            if hole_file:
                try:
                    hole = sio.read_hole(hole_file)
                except (OSError, sio.FormatError) as exc:
                    _fail(f"cannot read hole file: {exc}", 3)
            elif scheme == "hole":
                click.echo("searching 3-partite hole...", err=True)
                hole = alpha_star(ts, 3, budget).lower_certificate
            else:  # bicolor
                click.echo("searching bicoloring...", err=True)
                bi = bicoloring_search(ts, budget)
                if bi is None:
                    raise MissingLabels("system admits no bicoloring")
                hole = col.bicoloring_to_bound(bi)[0]
            if hole.a == 0:
                raise InvalidHole("no non-trivial hole available")
            coloring = col.hole_coloring(ts, hole)
            bound = ts.n - hole.a
    except StsError as exc:
        _fail(str(exc), 4)
    if output:
        _write_or_exit(sio.write_coloring, coloring, output)
        click.echo(f"wrote coloring to {output}", err=True)
    _emit(_coloring_summary(coloring, scheme, bound))


# ---------------------------------------------------------------------------
# random processes
# ---------------------------------------------------------------------------

@cli.command("random")
@click.option("--process", type=click.Choice(
    ["triangle-removal", "binomial", "linearized", "sts"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, default=None, help="Steps for triangle-removal.")
@click.option("--p", type=float, default=None, help="Triple probability for binomial/linearized.")
@click.option("--seed", type=int, required=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def random_cmd(process: str, n: int, m: int | None, p: float | None, seed: int,
               output: str | None):
    """Run one seeded random process and emit the resulting system file."""
    try:
        doc: dict = {"schema": REPORT_SCHEMA, "process": process, "n": n, "seed": seed}
        if m is not None and process != "triangle-removal":
            raise ValueError(f"--m applies only to triangle-removal, not {process}")
        if p is not None and process not in ("binomial", "linearized"):
            raise ValueError(f"--p applies only to binomial and linearized, not {process}")
        if process == "triangle-removal":
            if m is None:
                raise ValueError("--m is required for triangle-removal")
            outcome = rnd.triangle_removal(n, m, seed)
            if outcome.stuck:
                doc.update({"stuck": True, "m": m})
                _emit(doc)
                return
            system = outcome.system
            doc.update({"stuck": False, "m": m, "triples": system.m, "linear": system.linear})
        elif process == "sts":
            system = rnd.random_sts(n, seed)
            doc.update({"triples": system.m, "steiner": True})
        else:  # binomial or linearized
            if p is None:
                raise ValueError(f"--p is required for {process}")
            system = rnd.binomial_3graph(n, p, seed)
            if process == "linearized":
                system = rnd.linearize(system)
                doc["linear"] = system.linear
            doc.update({"p": p, "triples": system.m})
    except (StsError, ValueError) as exc:
        _fail(str(exc), 5)
    if output:
        _write_or_exit(sio.write_system, system, output)
        doc["output"] = output
    else:
        doc["system"] = sio.format_system(system).splitlines()
    _emit(doc)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@cli.group()
def experiment():
    """Seeded empirical experiments."""


@experiment.command()
@click.option("--n", type=int, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), required=True)
@click.option("--max-nodes", type=int, default=SearchBudget.max_nodes)
@click.option("--max-seconds", type=float, default=SearchBudget.max_seconds)
def discrepancy(n: int, samples: int, seed: int, csv_path: str,
                max_nodes: int, max_seconds: float):
    """Measure alpha*_3 over partial and full random systems; write CSV."""
    budget = _budget_or_exit(max_nodes, max_seconds)
    try:
        rows, summary = rnd.experiment_discrepancy(n, samples, seed, budget)
    except (StsError, ValueError) as exc:
        _fail(str(exc), 5)
    _write_or_exit(rnd.write_experiment_csv, rows, csv_path)
    summary["schema"] = REPORT_SCHEMA
    summary["csv"] = csv_path
    summary["rows"] = len(rows)
    _emit(summary)


@experiment.command()
@click.option("--kmax", type=int, required=True)
def cdr(kmax: int):
    """Evaluate the bicoloring growth recursion with exact rationals."""
    try:
        terms = col.cdr_sequence(kmax)
    except ValueError as exc:
        _fail(str(exc), 5)
    # values square each step and quickly outgrow every consumer's integer
    # type, so the exact values travel as decimal strings; lift Python's own
    # int-to-decimal guard far enough to format them
    digits = max(t.n.bit_length() for t in terms) // 3 + 16
    if hasattr(sys, "set_int_max_str_digits") and digits > sys.get_int_max_str_digits():
        sys.set_int_max_str_digits(digits)
    table = [{"k": t.k, "M": str(t.m), "N": str(t.n),
              "r": f"{t.r.numerator}/{t.r.denominator}",
              "r_float": float(t.r)} for t in terms]
    _emit({"schema": REPORT_SCHEMA, "terms": table})


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
