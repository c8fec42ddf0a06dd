"""Exact and heuristic computation of alpha, alpha*_k, and mc_r.

All three searches return a :class:`ParamResult`.  ``exact=True`` means the
search ran to completion: the certificate proves the value from one side and
the exhausted search refutes the adjacent value from the other.  Running out
of budget is a normal outcome, not an error; the best verified bound found so
far is returned with ``exact=False``.

Search values are deterministic for a given input and node budget.  Wall-time
budgets can flip ``exact`` to False nondeterministically (the clock is not a
deterministic device); node budgets cannot.
"""

from __future__ import annotations

import random
import time
from bisect import insort
from dataclasses import dataclass

from .core import (
    BadK,
    EdgeColoring,
    HoleCertificate,
    InvalidHole,
    SteinerSystem,
    TripleSystem,
    as_triple_system,
    is_steiner,
    largest_mono_component,
    verify_hole,
)


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 100_000_000
    max_seconds: float = 60.0

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_seconds <= 0:
            raise ValueError("budget fields must be positive")


@dataclass(frozen=True)
class BudgetSpent:
    nodes: int
    seconds: float


@dataclass(frozen=True)
class ParamResult:
    value: int
    exact: bool
    lower_certificate: object | None
    budget_spent: BudgetSpent


class _OutOfBudget(Exception):
    pass


class _Meter:
    """Node and wall-time accounting shared across one search call."""

    __slots__ = ("max_nodes", "deadline", "nodes", "t0")

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.t0 = time.monotonic()
        self.deadline = self.t0 + budget.max_seconds
        self.nodes = 0

    def tick(self) -> None:
        """Count one node, or raise without counting it when the budget is spent."""
        nodes = self.nodes
        if nodes >= self.max_nodes or (nodes & 4095 == 4095
                                       and time.monotonic() > self.deadline):
            raise _OutOfBudget
        self.nodes = nodes + 1

    def spent(self) -> BudgetSpent:
        return BudgetSpent(nodes=self.nodes, seconds=time.monotonic() - self.t0)


def _triples_at(ts: TripleSystem) -> list[list[int]]:
    at: list[list[int]] = [[] for _ in range(ts.n)]
    for i, t in enumerate(ts.triples):
        for v in t:
            at[v].append(i)
    return at


# ---------------------------------------------------------------------------
# Independence number
# ---------------------------------------------------------------------------

def independence_number(s: TripleSystem | SteinerSystem,
                        budget: SearchBudget | None = None) -> ParamResult:
    """Largest vertex set containing no full triple, by branch and bound.

    Branches on vertex inclusion in index order; prunes when even taking all
    remaining vertices cannot beat the incumbent.  A greedy scan seeds the
    incumbent.
    """
    ts = as_triple_system(s)
    budget = budget or SearchBudget()
    meter = _Meter(budget)
    n = ts.n
    tri_at = _triples_at(ts)

    # Greedy seed: take vertices while no triple completes.
    chosen_count = [0] * ts.m
    greedy: list[int] = []
    for v in range(n):
        if all(chosen_count[i] < 2 for i in tri_at[v]):
            greedy.append(v)
            for i in tri_at[v]:
                chosen_count[i] += 1
    best = list(greedy)

    chosen_count = [0] * ts.m
    current: list[int] = []
    exact = True

    def extend(v: int) -> None:
        nonlocal best
        if len(current) + (n - v) <= len(best):
            return
        if v == n:
            best = list(current)
            return
        meter.tick()
        blocked = any(chosen_count[i] == 2 for i in tri_at[v])
        if not blocked:
            current.append(v)
            for i in tri_at[v]:
                chosen_count[i] += 1
            extend(v + 1)
            for i in tri_at[v]:
                chosen_count[i] -= 1
            current.pop()
        extend(v + 1)

    try:
        extend(0)
    except _OutOfBudget:
        exact = False
    return ParamResult(value=len(best), exact=exact,
                       lower_certificate=frozenset(best), budget_spent=meter.spent())


# ---------------------------------------------------------------------------
# k-partite-hole number
# ---------------------------------------------------------------------------

def _hole_feasible(ts: TripleSystem, k: int, a: int, meter: _Meter,
                   tri_at: list[list[int]]) -> tuple[frozenset[int], ...] | None:
    """Find k disjoint parts of size a with no crossing triple, or refute.

    Vertices are scanned in index order; each is left out or put in a part.
    Parts are interchangeable, so a vertex may only open the lowest-indexed
    empty part.  A branch dies when a triple has vertices in k distinct parts.
    """
    n = ts.n
    part = [0] * n            # 0 = out, 1..k
    sizes = [0] * (k + 1)
    triples = ts.triples

    def bt(v: int, used: int) -> bool:
        if sizes[1:k + 1].count(a) == k:
            return True
        if v == n:
            return False
        deficit = k * a - sum(sizes[1:k + 1])
        if n - v < deficit:
            return False
        if bt(v + 1, used):
            return True
        for j in range(1, min(used + 1, k) + 1):
            if sizes[j] >= a:
                continue
            meter.tick()
            part[v] = j
            sizes[j] += 1
            ok = True
            for ti in tri_at[v]:
                x, y, z = triples[ti]
                met = {part[x], part[y], part[z]} - {0}
                if len(met) == k:
                    ok = False
                    break
            if ok and bt(v + 1, max(used, j)):
                return True
            part[v] = 0
            sizes[j] -= 1
        return False

    if a > 0 and bt(0, 0):
        return tuple(frozenset(v for v in range(n) if part[v] == j) for j in range(1, k + 1))
    return None


def _hole_local_search(ts: TripleSystem, k: int, a: int, meter: _Meter,
                       tri_at: list[list[int]], max_moves: int,
                       restarts: int = 64) -> tuple[frozenset[int], ...] | None:
    """Swap/move hill climbing for a feasible hole of size a.

    Each restart builds a greedy assignment (vertices in random order, each
    placed in the part adding fewest crossing triples) topped up to exact
    part sizes, then swaps vertices out of violating triples, accepting
    non-worsening moves.  Seeded from (n, k, a), so outcomes depend only on
    the move budget.
    """
    n = ts.n
    if k * a > n or a == 0:
        return None
    triples = ts.triples
    rng = random.Random(0x5EED + 1_000_003 * n + 101 * k + a)
    moves = 0

    def crossing_count(part: list[int], v: int) -> int:
        cnt = 0
        for ti in tri_at[v]:
            x, y, z = triples[ti]
            met = {part[x], part[y], part[z]} - {0}
            if len(met) == k:
                cnt += 1
        return cnt

    def as_parts(part: list[int]) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(v for v in range(n) if part[v] == j)
                     for j in range(1, k + 1))

    for _ in range(restarts):
        part = [0] * n
        sizes = [0] * (k + 1)
        order = list(range(n))
        rng.shuffle(order)
        placed = 0
        for v in order:
            if placed == k * a:
                break
            open_parts = [j for j in range(1, k + 1) if sizes[j] < a]
            rng.shuffle(open_parts)
            best_j, best_viol = 0, None
            for j in open_parts:
                part[v] = j
                viol = crossing_count(part, v)
                part[v] = 0
                if best_viol is None or viol < best_viol:
                    best_viol, best_j = viol, j
                    if viol == 0:
                        break
            part[v] = best_j
            sizes[best_j] += 1
            placed += 1
        bad = {i for i, (x, y, z) in enumerate(triples)
               if len({part[x], part[y], part[z]} - {0}) == k}
        while moves < max_moves:
            if not bad:
                return as_parts(part)
            try:
                meter.tick()
            except _OutOfBudget:
                return None
            moves += 1
            ti = rng.choice(sorted(bad))
            u = rng.choice([v for v in triples[ti] if part[v] != 0])
            w = rng.choice([v for v in range(n) if part[v] != part[u]])
            part[u], part[w] = part[w], part[u]
            affected = set(tri_at[u]) | set(tri_at[w])
            before = len(bad & affected)
            after = set()
            for i in affected:
                x, y, z = triples[i]
                met = {part[x], part[y], part[z]} - {0}
                if len(met) == k:
                    after.add(i)
            if len(after) <= before:
                bad = (bad - affected) | after
            else:
                part[u], part[w] = part[w], part[u]
        if not bad:
            return as_parts(part)
        if moves >= max_moves:
            return None
    return None


def alpha_star(s: TripleSystem | SteinerSystem, k: int,
               budget: SearchBudget | None = None) -> ParamResult:
    """The k-partite-hole number with a verified certificate.

    Exact mode walks candidate sizes downward from the proven upper bound
    (floor(n/3) - 1 for 3-partite holes in a Steiner system on more than 3
    vertices, floor(n/k) otherwise), so the first feasible size is optimal.
    If the budget runs out mid-refutation the search degrades to local-search
    lower bounds and reports ``exact=False``.
    """
    if k < 2:
        raise BadK(f"need at least 2 parts, got {k}")
    ts = as_triple_system(s)
    budget = budget or SearchBudget()
    meter = _Meter(budget)
    n = ts.n
    tri_at = _triples_at(ts)
    steiner = isinstance(s, SteinerSystem) or is_steiner(ts)
    ub = n // 3 - 1 if (k == 3 and steiner and n > 3) else n // k

    def cert(parts: tuple[frozenset[int], ...]) -> HoleCertificate:
        h = HoleCertificate(k=k, a=len(parts[0]) if parts else 0, parts=parts)
        if not verify_hole(ts, h):
            raise InvalidHole("search produced a hole with a crossing triple")
        return h

    trivial = HoleCertificate(k=k, a=0, parts=tuple(frozenset() for _ in range(k)))
    a = ub
    while a >= 1:
        try:
            parts = _hole_feasible(ts, k, a, meter, tri_at)
        except _OutOfBudget:
            # Refutation interrupted: fall back to heuristic lower bounds with
            # a small fresh allotment (a tenth of the nodes, a quarter of the
            # wall time), sliced per size so a hard level cannot starve the
            # easier ones below it.
            fresh = _Meter(SearchBudget(max_nodes=max(budget.max_nodes // 10, 50_000),
                                        max_seconds=max(budget.max_seconds / 4, 0.5)))
            per_level = max(fresh.max_nodes // max(a, 1), 10_000)
            for ah in range(a, 0, -1):
                parts = _hole_local_search(ts, k, ah, fresh, tri_at, max_moves=per_level)
                if parts is not None:
                    spent = BudgetSpent(meter.nodes + fresh.nodes, meter.spent().seconds)
                    return ParamResult(ah, False, cert(parts), spent)
            spent = BudgetSpent(meter.nodes + fresh.nodes, meter.spent().seconds)
            return ParamResult(0, False, trivial, spent)
        if parts is not None:
            return ParamResult(a, True, cert(parts), meter.spent())
        a -= 1
    return ParamResult(0, True, trivial, meter.spent())


# ---------------------------------------------------------------------------
# Monochromatic-component number
# ---------------------------------------------------------------------------

def mc_exact(s: TripleSystem | SteinerSystem, r: int,
             budget: SearchBudget | None = None,
             initial: EdgeColoring | None = None) -> ParamResult:
    """Minimize the largest monochromatic component over all r-colorings.

    Depth-first color assignment with forward checking (Haralick & Elliott
    1980, "Increasing tree search efficiency for constraint satisfaction
    problems"):

    * Components are bitmasks: for each color, every vertex holds the mask of
      its component, so coloring a triple ORs three masks, and restoring the
      old masks undoes it exactly.
    * Every pending triple keeps a domain of the colors it may still take.
      When a color's component grows, each pending triple touching it loses
      that color if taking it would give a component at least as large as
      the incumbent; a triple left with no color kills the branch.
    * The next triple is the pending one with the fewest colors left; ties
      go to the one whose remaining colors would give the largest
      components in total (the nearest to losing another color), then to
      the lowest index.
    * Color symmetry is broken by offering only the used colors plus the
      lowest fresh one.  A fresh color never loses a domain bit while the
      incumbent exceeds 3, so this stays sound under the dynamic order.
    * The tree is walked with an explicit stack, so search depth is not
      limited by the interpreter's recursion limit at any number of triples.

    A node is one color tried on one triple.  The node cap is checked before
    a node is counted, so ``budget_spent.nodes`` never exceeds it.
    ``initial`` may supply any valid coloring of the same system to seed the
    incumbent.  The value is always the largest component of the returned
    coloring, and ``exact=True`` means the search below it was exhausted:
    the value never comes from a theorem such as Gyarfas's
    ``mc_3 >= ceil(2n/3) + 1``.  On budget exhaustion the incumbent is
    returned as an upper bound with ``exact=False``.
    """
    if r < 1:
        raise ValueError("need at least one color")
    ts = as_triple_system(s)
    budget = budget or SearchBudget()
    meter = _Meter(budget)
    n, m = ts.n, ts.m

    if m == 0:
        return ParamResult(0, True, EdgeColoring(system=ts, r=r, colors=()),
                           budget_spent=meter.spent())
    if initial is not None:
        if initial.system is not ts and initial.system != ts:
            raise ValueError("initial coloring colors a different system")
        if initial.r > r:
            raise ValueError("initial coloring uses more colors than allowed")
        seed_colors = initial.colors
    else:
        seed_colors = tuple([0] * m)
    seed = EdgeColoring(system=ts, r=r, colors=seed_colors)
    best = largest_mono_component(seed)[0]
    best_colors = list(seed_colors)

    tris = ts.triples
    tri_at = _triples_at(ts)
    comp = [[1 << v for v in range(n)] for _ in range(r)]
    dom = [(1 << r) - 1] * m      # colors a pending triple may still take; 0 once colored
    # reach[c][u]: size of the component that coloring pending triple u with c
    # would give, kept while c is in dom[u]
    reach = [[3] * m for _ in range(r)]
    # urgency[u] = lose * (colors dropped from dom[u]) + sum of reach over dom[u]:
    # fewest colors left first, then the triple nearest to losing another
    lose = r * n + 1
    urgency = [3 * r] * m
    color = [0] * m
    pend = list(range(m))         # pending triples in index order; ties go to the lowest
    # frame: [triple, its domain, colors left to try, largest component and
    #         used-color count before the triple, trail of its current color:
    #         (component list, reach list, old component masks, color bit,
    #         triples that lost the bit, (triple, old reach) pairs)]
    stack: list[list] = []
    exact = True
    max_nodes = meter.max_nodes
    deadline = meter.deadline
    nodes = 0
    cur_max = used = 0

    while True:
        if pend:
            t = max(pend, key=urgency.__getitem__)
            pend.remove(t)
            offered = (1 << (used + 1 if used < r else r)) - 1
            stack.append([t, dom[t], dom[t] & offered, cur_max, used, None])
            dom[t] = 0
        else:
            # every triple colored below the incumbent: a better coloring
            best = cur_max
            best_colors = list(color)
        descended = False
        while stack and not descended:
            frame = stack[-1]
            t, saved, todo, cur_max, used, trail = frame
            if trail is not None:
                cv, rc, olds, bit, dropped, grown = trail
                for old in olds:
                    rest = old
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        cv[low.bit_length() - 1] = old
                for u in dropped:
                    dom[u] |= bit
                    urgency[u] += rc[u] - lose
                for u, old in grown:
                    urgency[u] += old - rc[u]
                    rc[u] = old
                frame[5] = None
            # after a new incumbent, this path's largest component may reach
            # it, and domains filtered against the old one may be too wide
            if not todo or cur_max >= best:
                stack.pop()
                dom[t] = saved
                insort(pend, t)
                continue
            bit = todo & -todo
            frame[2] = todo ^ bit
            # the meter's check, inlined: it runs once per node
            if nodes >= max_nodes or (nodes & 4095 == 4095
                                      and time.monotonic() > deadline):
                exact = False
                break
            nodes += 1
            c = bit.bit_length() - 1
            cv = comp[c]
            x, y, z = tris[t]
            cx, cy, cz = cv[x], cv[y], cv[z]
            mask = cx | cy | cz
            size = mask.bit_count()
            if size >= best:
                continue
            color[t] = c
            if mask != cx:
                rc = reach[c]
                dropped: list[int] = []
                grown: list[tuple[int, int]] = []
                frame[5] = (cv, rc, {cx, cy, cz}, bit, dropped, grown)
                # relabel the merged component and forward-check the pending
                # triples at each relabelled vertex; a triple's other vertices
                # inside the mask still hold subsets of it, so the test is exact
                wiped = False
                rest = mask
                while rest and not wiped:
                    low = rest & -rest
                    rest ^= low
                    v = low.bit_length() - 1
                    cv[v] = mask
                    for u in tri_at[v]:
                        if dom[u] & bit:
                            p, q, w = tris[u]
                            grow = (cv[p] | cv[q] | cv[w]).bit_count()
                            if grow >= best:
                                dom[u] ^= bit
                                urgency[u] += lose - rc[u]
                                dropped.append(u)
                                if not dom[u]:
                                    wiped = True
                                    break
                            elif grow != rc[u]:
                                grown.append((u, rc[u]))
                                urgency[u] += grow - rc[u]
                                rc[u] = grow
                if wiped:
                    continue
            if size > cur_max:
                cur_max = size
            if c == used:
                used += 1
            descended = True
        if not descended:
            break

    meter.nodes = nodes
    certificate = EdgeColoring(system=ts, r=r, colors=tuple(best_colors))
    return ParamResult(value=best, exact=exact,
                       lower_certificate=certificate, budget_spent=meter.spent())


def mc_upper_from_coloring(c: EdgeColoring) -> int:
    """Any explicit coloring certifies mc_r <= its largest component."""
    return largest_mono_component(c)[0]
