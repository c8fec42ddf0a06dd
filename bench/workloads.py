"""The four benchmark workloads: seeded inputs, fixed operation lists, checks.

A workload is built from a seed during set-up; its operation list is fixed
for that seed and is run pass after pass.  Each operation calls the
package's public entry points and returns their outputs; the matching check
runs outside the timed region and re-verifies every output through the
public verifiers, the paper's inequalities and, where one applies, the
recorded reference (:mod:`checks`).

The package is reached through module attributes at call time (``cons.bose``
rather than a name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from typing import Callable

import checks

import stsramsey.cli as cli
import stsramsey.colorings as col
import stsramsey.constructions as cons
import stsramsey.core as core
import stsramsey.io as sio
import stsramsey.randomized as rnd

DEFAULT_SEED = 1
# Far above any run, so results depend on node caps only, never on the clock.
NO_WALL_LIMIT = "1000000"


def sub_seed(seed: int, tag: int) -> int:
    return seed * 1_000_003 + tag


def digest(triples) -> str:
    text = ";".join(f"{a},{b},{c}" for a, b, c in triples)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    exact: list[bool] = field(default_factory=list)   # one per parameter computed
    fingerprint: str = ""                              # deterministic part of the output


def invoke(tracer, layer: str, args: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and stdout."""
    out = StringIO()
    code = 0
    with tracer.span(layer), redirect_stdout(out), redirect_stderr(StringIO()):
        try:
            cli.cli.main(args=args, prog_name="stsramsey", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class Workload:
    name = ""
    cap: int | None = None
    # Seconds one pass takes at the reference speed, checks included, as
    # measured at the commit that introduced the benchmark; it fixes the
    # number of passes in a run of a given length.
    pass_seconds = 1.0

    def __init__(self, seed: int, workdir: str, reference: dict, tracer, inject: str | None):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.tracer = tracer
        self.inject = inject
        self.digests: dict[str, str] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make_inputs(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def input_problems(self) -> list[str]:
        """Sampler outputs made during set-up, against the reference digests."""
        return checks.digest_problems(self.reference, self.seed, self.name, self.digests)


# ---------------------------------------------------------------------------
# analyze13 and holes: `stsramsey analyze` on generated system files
# ---------------------------------------------------------------------------

class _AnalyzeWorkload(Workload):
    systems: list[tuple[str, Callable[[int], object]]] = []
    params: tuple[str, ...] = ()

    def make_inputs(self) -> None:
        self.files: list[tuple[str, str, object]] = []
        for name, make in self.systems:
            system = make(self.seed)
            if name.startswith("random_sts"):
                self.digests[name] = digest(system.triples)
            path = self.path(f"{name}.sts")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_plain_format(system))
            self.files.append((name, path, system.base))

    def ops(self) -> list[Op]:
        # one operation analyzes one system, one CLI call per parameter
        out = []
        for name, path, ts in self.files:
            calls = [["analyze", "-i", path, "--param", param, "--max-nodes", str(self.cap),
                      "--max-seconds", NO_WALL_LIMIT] for param in self.params]
            out.append(Op(name,
                          lambda calls=calls: [invoke(self.tracer, "cli.analyze", c) for c in calls],
                          lambda res, name=name, ts=ts: self._check(name, ts, res)))
        return out

    def _check(self, name: str, ts, results) -> Outcome:
        outcome = Outcome()
        for code, stdout in results:
            if code != 0:
                outcome.problems.append(f"exit code {code}")
                continue
            report = json.loads(stdout)
            if self.inject == "bad-certificate":
                checks.corrupt_report(report)
                self.inject = None
            problems, exact, fingerprint = checks.check_report(report, name, ts,
                                                               self.reference, self.seed)
            outcome.problems += problems
            outcome.exact += exact
            outcome.fingerprint += fingerprint
        return outcome


def _plain_format(system) -> str:
    # the benchmark's own writer, so set-up never calls the io layer
    lines = ["# sts v1", f"{system.n} {system.m}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in system.triples)
    return "\n".join(lines) + "\n"


class Analyze13(_AnalyzeWorkload):
    name = "analyze13"
    pass_seconds = 6.0
    cap = 50_000_000
    params = ("all",)
    systems = [
        ("skolem13", lambda seed: cons.skolem(13)),
        ("random_sts13_a", lambda seed: rnd.random_sts(13, sub_seed(seed, 131))),
        ("random_sts13_b", lambda seed: rnd.random_sts(13, sub_seed(seed, 132))),
        ("random_sts13_c", lambda seed: rnd.random_sts(13, sub_seed(seed, 133))),
    ]


class Holes(_AnalyzeWorkload):
    name = "holes"
    pass_seconds = 5.9
    cap = 150_000
    params = ("alpha", "alpha-star3")
    systems = [
        ("bose15", lambda seed: cons.bose(15)),
        ("skolem19", lambda seed: cons.skolem(19)),
        ("bose21", lambda seed: cons.bose(21)),
        ("skolem25", lambda seed: cons.skolem(25)),
        ("bose27", lambda seed: cons.bose(27)),
        ("random_sts19", lambda seed: rnd.random_sts(19, sub_seed(seed, 19))),
        ("random_sts21", lambda seed: rnd.random_sts(21, sub_seed(seed, 21))),
        ("random_sts25", lambda seed: rnd.random_sts(25, sub_seed(seed, 25))),
    ]


# ---------------------------------------------------------------------------
# discrepancy: `stsramsey experiment discrepancy`, CSV written and re-read
# ---------------------------------------------------------------------------

class Discrepancy(Workload):
    name = "discrepancy"
    pass_seconds = 4.3
    cap = 150_000
    n = 19
    calls = 12
    samples = 10

    def make_inputs(self) -> None:
        # The experiment's own seeds stay fixed whatever the benchmark seed:
        # the node total of a few hundred samples still swings by a fifth from
        # one sample set to the next, which would drown the timing figures.
        self.runs = [(sub_seed(DEFAULT_SEED, 1000 + i), self.path(f"discrepancy{i}.csv"))
                     for i in range(self.calls)]

    def ops(self) -> list[Op]:
        out = []
        for exp_seed, path in self.runs:
            args = ["experiment", "discrepancy", "--n", str(self.n),
                    "--samples", str(self.samples), "--seed", str(exp_seed), "--csv", path,
                    "--max-nodes", str(self.cap), "--max-seconds", NO_WALL_LIMIT]
            out.append(Op(f"discrepancy{exp_seed}",
                          lambda args=args: invoke(self.tracer, "cli.discrepancy", args),
                          lambda res, s=exp_seed, p=path: self._check(s, p, res)))
        return out

    def _check(self, exp_seed: int, path: str, res) -> Outcome:
        code, stdout = res
        if code != 0:
            return Outcome([f"exit code {code}"])
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
        if self.inject == "bad-certificate":
            text = checks.corrupt_csv(text)
            self.inject = None
        return Outcome(*checks.check_discrepancy(json.loads(stdout), text, self.n, self.samples,
                                                 exp_seed, self.reference))


# ---------------------------------------------------------------------------
# structure: constructions, io, colorings, decomposition, large samplers
# ---------------------------------------------------------------------------

ORDERS = [n for n in range(7, 100) if n % 6 in (1, 3)]


def _layer_bound(n: int) -> int:
    """Span guarantee of the Bose / Skolem layer coloring."""
    if n % 6 == 3:
        k = (n - 3) // 6
        return 4 * k + 2 + -(-(2 * k + 1) // 3)
    k = n // 6
    return -(-k // 3) + 4 * k + 1


def greedy_hole(ts, rng: random.Random) -> core.HoleCertificate:
    """A seeded 3-partite hole found greedily by the benchmark, without search."""
    tri_at: list[list] = [[] for _ in range(ts.n)]
    for t in ts.triples:
        for v in t:
            tri_at[v].append(t)
    order = list(range(ts.n))
    rng.shuffle(order)
    part = [0] * ts.n
    parts: list[list[int]] = [[], [], []]
    j = 0
    for v in order:
        part[v] = j + 1
        if any(part[x] and part[y] and part[z] and len({part[x], part[y], part[z]}) == 3
               for x, y, z in tri_at[v]):
            part[v] = 0
            continue
        parts[j].append(v)
        j = (j + 1) % 3
    a = min(len(p) for p in parts)
    return core.HoleCertificate(k=3, a=a, parts=tuple(frozenset(p[:a]) for p in parts))


def four_part_system(rng: random.Random):
    """A seeded system with a T2 partition, colored so decomposition hits L2.

    Vertices split into four parts of size 2..5; every triple lies inside two
    parts and takes the color of the part pair (the Klein-four pattern of the
    L2 case), so every vertex pair is covered and the six cross classes are
    monochromatic as L2 requires.
    """
    sizes = [rng.randint(2, 5) for _ in range(4)]
    starts = [sum(sizes[:i]) for i in range(4)]
    parts = [list(range(s, s + z)) for s, z in zip(starts, sizes)]
    roles = rng.sample(range(3), 3)
    colored: dict[tuple[int, int, int], int] = {}

    def add(t, color):
        colored.setdefault(tuple(sorted(t)), color)

    for i in range(4):
        for j in range(i + 1, 4):
            color = roles[(i ^ j) - 1]
            p, q = parts[i], parts[j]
            for x in range(len(p)):
                for y in q:
                    add((p[x], p[(x + 1) % len(p)], y), color)
            for x in range(len(p)):
                for z in range(x + 2, len(p)):
                    add((p[x], p[z], q[0]), color)
    # pairs inside the last part still need a triple; borrow the first part
    last, first = parts[3], parts[0]
    for x in range(len(last)):
        for z in range(x + 1, len(last)):
            add((last[x], last[z], first[0]), roles[(0 ^ 3) - 1])
    triples = sorted(colored)
    ts = core.build_system(sum(sizes), triples)
    return ts, core.EdgeColoring(system=ts, r=3, colors=tuple(colored[t] for t in ts.triples))


class Structure(Workload):
    name = "structure"
    pass_seconds = 4.1
    random_colorings = 16
    hole_colorings = 4
    four_part = 8
    tr_m = round(math.comb(99, 2) / 6)
    binomial_p = 0.004

    def make_inputs(self) -> None:
        rng = random.Random(sub_seed(self.seed, 7))
        self.by_order = {n: (cons.bose(n) if n % 6 == 3 else cons.skolem(n)) for n in ORDERS}
        self.colorings = {}
        self.holes = {}
        for n, s in self.by_order.items():
            self.colorings[n] = [
                core.EdgeColoring(system=s.base, r=3,
                                  colors=tuple(rng.randrange(3) for _ in range(s.m)))
                for _ in range(self.random_colorings)]
            self.holes[n] = [greedy_hole(s.base, rng) for _ in range(self.hole_colorings)]
        self.four = [four_part_system(rng) for _ in range(self.four_part)]
        self.sampler_seeds = {name: sub_seed(self.seed, 990 + i) for i, name in
                              enumerate(("random_sts99", "triangle_removal99", "linearize99"))}

    def ops(self) -> list[Op]:
        out = []
        for n in ORDERS:
            out += [Op(f"construct{n}", lambda n=n: self._construct(n),
                       lambda res, n=n: self._check_construct(n, res)),
                    Op(f"io{n}", lambda n=n: self._io(n),
                       lambda res, n=n: self._check_io(n, res)),
                    Op(f"layer{n}", lambda n=n: self._layer(n),
                       lambda res, n=n: self._check_layer(n, res)),
                    Op(f"decompose{n}", lambda n=n: self._decompose(n),
                       self._check_decompose)]
        for i, (ts, c) in enumerate(self.four):
            out.append(Op(f"fourpart{i}", lambda ts=ts, c=c: self._decompose_one(ts, c),
                          lambda res: self._check_decompose([res], expect="L2")))
        seeds = self.sampler_seeds
        out += [Op("random_sts99", lambda: rnd.random_sts(99, seeds["random_sts99"]),
                   lambda res: self._check_sampler("random_sts99", res.base, steiner=True)),
                Op("triangle_removal99",
                   lambda: rnd.triangle_removal(99, self.tr_m, seeds["triangle_removal99"]),
                   self._check_triangle_removal),
                Op("linearize99",
                   lambda: rnd.linearize(rnd.binomial_3graph(99, self.binomial_p,
                                                             seeds["linearize99"])),
                   lambda res: self._check_sampler("linearize99", res, linear=True))]
        return out

    # -- operations (timed) ------------------------------------------------

    def _construct(self, n: int):
        s = cons.bose(n) if n % 6 == 3 else cons.skolem(n)
        return s, core.validate_steiner(s.base, s.labels)

    def _io(self, n: int):
        s = self.by_order[n]
        parsed = sio.parse_system(sio.format_system(s))
        path = self.path(f"structure{n}.sts")
        sio.write_system(s, path)
        read = sio.read_system(path)
        return parsed, read, cons.infer_labels(read)

    def _layer(self, n: int):
        s = self.by_order[n]
        c = col.bose_coloring(s) if n % 6 == 3 else col.skolem_coloring(s)
        return core.mono_components(c), core.largest_mono_component(c)

    def _decompose_one(self, ts, c):
        d = col.decompose_3coloring(ts, c)
        if self.inject == "bad-certificate":
            d = checks.corrupt_decomposition(d, ts.n)
            self.inject = None
        return d.case, col.verify_decomposition(ts, c, d)

    def _decompose(self, n: int):
        s = self.by_order[n]
        out = [self._decompose_one(s, c) for c in self.colorings[n]]
        for h in self.holes[n]:
            out.append(self._decompose_one(s, col.hole_coloring(s, h)))
        return out

    # -- checks (untimed) --------------------------------------------------

    def _check_construct(self, n: int, res) -> Outcome:
        s, v = res
        problems = []
        if v.n != n or v.m != n * (n - 1) // 6 or v.labels != s.labels or v.base != s.base:
            problems.append("construction or validation output inconsistent")
        return Outcome(problems, fingerprint=digest(v.triples))

    def _check_io(self, n: int, res) -> Outcome:
        parsed, read, labeled = res
        s = self.by_order[n]
        problems = []
        if parsed != s.base or read != s.base:
            problems.append("format/parse round trip changed the system")
        if labeled.base != s.base or labeled.labels != s.labels:
            problems.append("infer_labels disagrees with the construction labels")
        return Outcome(problems, fingerprint=digest(read.triples))

    def _check_layer(self, n: int, res) -> Outcome:
        comps, (size, color, witness) = res
        bound = _layer_bound(n)
        problems = []
        spans = [len(sp) for sp in comps.spanned]
        if max(spans) > bound:
            problems.append(f"layer coloring spans {max(spans)} > guarantee {bound}")
        biggest = max(len(c) for per in comps.components for c in per)
        if size != biggest or len(witness) != size or witness not in comps.components[color]:
            problems.append("largest_mono_component disagrees with mono_components")
        if size < checks.gyarfas(n):
            problems.append(f"component {size} below the Gyarfas bound")
        return Outcome(problems, fingerprint=f"{spans}:{size}:{color}")

    def _check_decompose(self, res, expect: str | None = None) -> Outcome:
        problems = [f"{case}: {check.failed_clause}" for case, check in res if not check]
        if expect and any(case != expect for case, _ in res):
            problems.append(f"expected case {expect}")
        return Outcome(problems, fingerprint="".join(case for case, _ in res))

    def _check_sampler(self, name: str, ts, steiner: bool = False,
                       linear: bool = False) -> Outcome:
        problems = []
        if steiner and not core.is_steiner(ts):
            problems.append(f"{name} is not a Steiner system")
        if linear and not ts.linear:
            problems.append(f"{name} is not linear")
        d = digest(ts.triples)
        problems += checks.digest_problems(self.reference, self.seed, self.name, {name: d})
        return Outcome(problems, fingerprint=d)

    def _check_triangle_removal(self, outcome) -> Outcome:
        if outcome.stuck:
            return Outcome(["triangle removal stuck"])
        out = self._check_sampler("triangle_removal99", outcome.system, linear=True)
        if outcome.system.m != self.tr_m:
            out.problems.append("triangle removal returned the wrong triple count")
        return out


WORKLOADS = {w.name: w for w in (Analyze13, Holes, Discrepancy, Structure)}
