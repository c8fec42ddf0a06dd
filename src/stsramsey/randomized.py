"""Random processes on triple systems and the seeded discrepancy experiment.

Everything here is driven by explicit 64-bit seeds.  A master seed expands to
per-sample streams through a splitmix64 chain (:func:`derive_seed`), so each
sample is individually reproducible and samples are independent of worker
layout.  Identical seeds and parameters give identical outputs, including
byte-identical CSV files; the one non-reproducible quantity, wall time, is
only ever reported rounded to whole seconds.

The full-system sampler :func:`random_sts` is *approximately* random: it runs
a seeded hill climb (repeatedly resolve an uncovered pair, evicting at most
one block) rather than sampling the uniform distribution, which no known
efficient procedure achieves.  Every output is validated; the distributional
caveat travels in the experiment summary metadata.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import (
    BadM,
    BadOrder,
    RestartsExhausted,
    Triple,
    TripleSystem,
    build_system,
    pair_counts,
    validate_steiner,
)
from .search import SearchBudget, alpha_star


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *path: int) -> int:
    """Expand a master seed along an index path (sample, stage, attempt...)."""
    if any(type(x) is not int for x in (master, *path)):
        raise ValueError(f"seeds and path steps must be ints, got {(master, *path)!r}")
    x = master & _MASK
    for step in path:
        x = _splitmix64(x ^ ((step + 1) * 0xD6E8FEB86659FD93 & _MASK))
    return _splitmix64(x)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessOutcome:
    """A process result: the system built, or None when the process got stuck.

    The system lists its triples in the order the process chose them.
    """

    system: TripleSystem | None

    @property
    def stuck(self) -> bool:
        return self.system is None


def _rank_tables(n: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """Tables for the lexicographic rank of a triple a < b < c of range(n).

    ``rank = first[a] + second[b] + c``.  ``start[a]`` is the rank of the
    first triple with smallest vertex a, and ``pairs[b]`` counts the pairs
    (j, k), j < b, j < k; both are nondecreasing, so a rank is unranked by
    bisecting them.
    """
    start = [0] * (n + 1)
    pairs = [0] * (n + 1)
    for i in range(n):
        start[i + 1] = start[i] + (n - 1 - i) * (n - 2 - i) // 2
        pairs[i + 1] = pairs[i] + n - 1 - i
    first = [start[a] - pairs[a + 1] for a in range(n)]
    second = [pairs[b] - b - 1 for b in range(n)]
    return first, second, start, pairs


def triangle_removal(n: int, m: int, seed: int) -> ProcessOutcome:
    """Delete m uniformly random edge-disjoint triangles from the complete graph.

    Each step picks uniformly among the triangles still present, removes its
    three edges, and records it; the outcome is stuck if the graph runs out
    of triangles first.  Adjacency lives in n bitsets, and only triangles
    through a deleted edge are re-examined.

    The present triangles are a swap-with-last list of lexicographic ranks
    in an ``array('q')``, with a second array from rank to slot: 16 bytes
    per triangle of K_n (2.5 MB at n = 99, 21 MB at n = 199), and no tuple
    per triangle.  Only the chosen triangle is unranked.  ``affected`` stays
    a set of sorted tuples inserted edge by edge, w ascending: its iteration
    order fixes the order of the swaps, so the list evolves, and the output
    comes out, as it always has for a given seed.
    """
    if type(n) is not int or type(m) is not int:
        raise BadM(f"n and m must be ints, got n={n!r} m={m!r}")
    if n < 0 or m < 0 or m > math.comb(n, 2) // 3:
        raise BadM(f"need 0 <= m <= C(n,2)/3, got n={n} m={m}")
    rng = random.Random(derive_seed(seed))
    adj = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    first, second, start, pairs = _rank_tables(n)
    triangles = array("q", range(math.comb(n, 3)))
    slot = array("q", triangles)
    removed: list[tuple[int, int, int]] = []
    for _ in range(m):
        if not triangles:
            return ProcessOutcome(system=None)
        r = triangles[rng.randrange(len(triangles))]
        a = bisect_right(start, r, 0, n - 2) - 1
        r -= first[a]
        b = bisect_right(pairs, r, a + 1, n - 1) - 1
        c = r - second[b]
        affected: set[tuple[int, int, int]] = set()
        for (u, v) in ((a, b), (a, c), (b, c)):
            common = adj[u] & adj[v]
            while common:
                low = common & -common
                w = low.bit_length() - 1
                affected.add((w, u, v) if w < u else (u, w, v) if w < v else (u, v, w))
                common ^= low
        for (x, y, z) in affected:
            i = slot[first[x] + second[y] + z]
            last = triangles.pop()
            if i < len(triangles):
                triangles[i] = last
                slot[last] = i
        for (u, v) in ((a, b), (a, c), (b, c)):
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        removed.append((a, b, c))
    return ProcessOutcome(system=build_system(n, removed))


def binomial_3graph(n: int, p: float, seed: int) -> TripleSystem:
    """Include each of the C(n,3) triples independently with probability p.

    Triples are examined in lexicographic order, one uniform draw each, so
    the outcome is a pure function of (n, p, seed).  A non-int n, or a p
    that is not a number in [0, 1], raises ``ValueError``.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be a number in [0, 1], got {p!r}")
    rng = random.Random(derive_seed(seed))
    triples = [t for t in combinations(range(n), 3) if rng.random() < p]
    return build_system(n, triples)


def linearize(g: TripleSystem) -> TripleSystem:
    """Drop every triple sharing two or more vertices with another triple.

    Both members of a conflicting pair go; what survives is linear.  Order is
    inherited from the input.
    """
    n = g.n
    counts = pair_counts(g)
    return build_system(n, (t for t in g.triples if counts[t.a * n + t.b] == 1
                            and counts[t.a * n + t.c] == 1 and counts[t.b * n + t.c] == 1))


def _hill_climb_sts(n: int, rng: random.Random, max_iters: int) -> list[Triple] | None:
    """One seeded hill-climb attempt at a full system.

    Resolve a random uncovered pair through a random third point, evicting
    the (at most one) block that collides; the block count never decreases.

    State: ``other``, the n x n table of each covered pair's third point
    (-1 when uncovered), and the live (uncovered) pairs as ascending lists:
    ``live_at[x]`` holds x's live partners and ``live_points`` the points
    that have one.  A step draws a point and two of its partners only
    through ``rng.getrandbits``, as ``Random.choice`` and ``Random.sample``
    consume it, so the output does not depend on those stdlib methods.  The
    second draw needs two partners: n is odd, so every point with a live pair
    has at least two of them (with one, the draw would never end).
    """
    b = n * (n - 1) // 6
    other = [[-1] * n for _ in range(n)]
    live_at = [[y for y in range(n) if y != x] for x in range(n)]
    live_points = list(range(n))
    bits = rng.getrandbits
    nblocks = 0

    def below(m: int) -> int:
        k = m.bit_length()
        r = bits(k)
        while r >= m:
            r = bits(k)
        return r

    iters = 0
    while nblocks < b and iters < max_iters:
        iters += 1
        x = live_points[below(len(live_points))]
        at_x = live_at[x]
        size = len(at_x)
        j = below(size)
        y = at_x[j]
        if size <= 21:  # Random.sample's pool path: at_x[j] swapped for the last
            i = below(size - 1)
            z = at_x[size - 1 if i == j else i]
        else:  # its set path: redraw until the index differs
            i = below(size)
            while i == j:
                i = below(size)
            z = at_x[i]
        w = other[y][z]
        at_x.remove(y)
        at_x.remove(z)
        live_at[y].remove(x)
        live_at[z].remove(x)
        if w >= 0:
            # evict {y, z, w}: (y, z) passes to x, (y, w) and (z, w) go live
            other[y][w] = other[w][y] = other[z][w] = other[w][z] = -1
            insort(live_at[y], w)
            insort(live_at[z], w)
            if not live_at[w]:
                insort(live_points, w)
            insort(live_at[w], y)
            insort(live_at[w], z)
        else:
            nblocks += 1
            live_at[y].remove(z)
            live_at[z].remove(y)
        for p in (x, y, z):
            if not live_at[p]:
                live_points.remove(p)
        other[x][y] = other[y][x] = z
        other[x][z] = other[z][x] = y
        other[y][z] = other[z][y] = x
    if nblocks < b:
        return None
    # each block u < v < w once, at its pair (u, v): lexicographic order
    return [Triple(u, v, w) for u in range(n) for v in range(u + 1, n)
            if (w := other[u][v]) > v]


_MAX_RESTARTS = 1000


def random_sts(n: int, seed: int) -> TripleSystem:
    """A validated, approximately random Steiner triple system.

    Pure restart-until-complete runs of the triangle removal process have
    vanishing completion probability beyond n = 9 (measured around 2.6e-4 at
    n = 13 and effectively zero for n >= 15), so this samples with a seeded
    hill climb instead; the distribution is *not* uniform, only seeded and
    validated.  Each restart derives its own stream from (seed, attempt).
    The climb draws only through ``getrandbits``, as ``Random.choice`` and
    ``Random.sample`` do, so its bytes do not depend on those stdlib methods.
    """
    if type(n) is not int or n % 6 not in (1, 3) or n < 3:
        raise BadOrder(n)
    for attempt in range(_MAX_RESTARTS):
        rng = random.Random(derive_seed(seed, attempt))
        blocks = _hill_climb_sts(n, rng, max_iters=200 * n * n)
        if blocks is not None:
            return validate_steiner(build_system(n, blocks))
    raise RestartsExhausted(f"no complete system on n={n} within {_MAX_RESTARTS} restarts")


# ---------------------------------------------------------------------------
# Discrepancy experiment
# ---------------------------------------------------------------------------

CSV_HEADER = "seed,n,model,m_or_p,sample,alpha_star3,exact,nodes,seconds"

MODEL_PARTIAL = "triangle_removal"
MODEL_FULL = "random_sts"


@dataclass(frozen=True)
class ExperimentRow:
    seed: int
    n: int
    model: str
    m_or_p: int
    sample: int
    alpha_star3: int
    exact: bool
    nodes: int
    seconds: int

    def csv(self) -> str:
        return (f"{self.seed},{self.n},{self.model},{self.m_or_p},{self.sample},"
                f"{self.alpha_star3},{str(self.exact).lower()},{self.nodes},{self.seconds}")


def rows_to_csv(rows: Iterable[ExperimentRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


def write_experiment_csv(rows: Iterable[ExperimentRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))


def experiment_discrepancy(n: int, samples: int, seed: int,
                           budget: SearchBudget | None = None,
                           ) -> tuple[list[ExperimentRow], dict]:
    """Measure alpha*_3 on partial and full random systems.

    Per sample: one ordered partial system from the triangle removal process
    stopped at m = round(C(n,2)/6) (half of a full system's triple count) and
    one full approximately-random system; two rows each.  The summary compares
    the exact values against floor(n/3) - 1 and the display curve n^0.9.
    """
    if type(n) is not int or n % 6 not in (1, 3):
        raise BadOrder(n)
    if type(samples) is not int:
        raise ValueError(f"samples must be an int, got {samples!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    m_half = round(math.comb(n, 2) / 6)
    rows: list[ExperimentRow] = []
    for i in range(samples):
        outcome = triangle_removal(n, m_half, derive_seed(seed, i, 1))
        attempt = 0
        while outcome.stuck:
            attempt += 1
            if attempt > _MAX_RESTARTS:
                raise RestartsExhausted(f"partial process stuck {_MAX_RESTARTS} times at n={n}")
            outcome = triangle_removal(n, m_half, derive_seed(seed, i, 1, attempt))
        full = random_sts(n, derive_seed(seed, i, 2))
        for model, m_or_p, system in ((MODEL_PARTIAL, m_half, outcome.system),
                                      (MODEL_FULL, n * (n - 1) // 6, full)):
            res = alpha_star(system, 3, budget)
            rows.append(ExperimentRow(seed=seed, n=n, model=model, m_or_p=m_or_p,
                                      sample=i, alpha_star3=res.value, exact=res.exact,
                                      nodes=res.budget_spent.nodes,
                                      seconds=round(res.budget_spent.seconds)))
    summary = _summarize(n, rows)
    return rows, summary


def _summarize(n: int, rows: list[ExperimentRow]) -> dict:
    cap = n // 3 - 1
    out: dict = {
        "n": n,
        "cap_floor_n3_minus_1": cap,
        "display_curve_n_pow_0.9": round(n ** 0.9, 3),
        "sampler_note": "full systems are approximately random (seeded hill climb), not uniform",
    }
    for model in (MODEL_PARTIAL, MODEL_FULL):
        vals = [r.alpha_star3 for r in rows if r.model == model]
        exact_vals = [r.alpha_star3 for r in rows if r.model == model and r.exact]
        out[model] = {
            "samples": len(vals),
            "max": max(vals) if vals else None,
            "mean": round(sum(vals) / len(vals), 4) if vals else None,
            "exact_count": len(exact_vals),
            "max_exact": max(exact_vals) if exact_vals else None,
            "mean_exact": round(sum(exact_vals) / len(exact_vals), 4) if exact_vals else None,
        }
    return out
