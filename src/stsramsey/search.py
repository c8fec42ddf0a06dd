"""Exact computation of alpha, alpha*_k, and mc_r by budgeted search.

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

import time
from bisect import insort
from dataclasses import dataclass

from .core import (
    BadK,
    EdgeColoring,
    HoleCertificate,
    InvalidHole,
    TripleSystem,
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
    """Node and wall-time accounting shared across one search call.

    Each engine runs the meter's check inline, once per node, before
    counting it: a node is refused when ``nodes`` has reached ``max_nodes``,
    or, every 4096 nodes, when the clock has passed ``deadline``.  The
    engine writes its count back to ``nodes``.
    """

    __slots__ = ("max_nodes", "deadline", "nodes", "t0")

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.t0 = time.monotonic()
        self.deadline = self.t0 + budget.max_seconds
        self.nodes = 0

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

def independence_number(ts: TripleSystem,
                        budget: SearchBudget | None = None) -> ParamResult:
    """Largest vertex set containing no full triple, by branch and bound.

    Branches on vertex inclusion in index order, taking a vertex before
    leaving it out; prunes when even taking all remaining vertices cannot
    beat the incumbent.  A greedy scan seeds the incumbent.  The tree is
    walked with an explicit stack, so its depth is not limited by the
    interpreter's recursion limit.  A node is one vertex decided; the node
    cap is checked before a node is counted.
    """
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
    # the decisions on the current path: (vertex, taken); a taken vertex
    # still has its leave-out branch to come
    path: list[tuple[int, bool]] = []
    v = 0
    max_nodes = meter.max_nodes
    deadline = meter.deadline
    nodes = 0
    while True:
        if len(current) + (n - v) > len(best):
            if v == n:
                best = list(current)
            else:
                # the meter's check, inlined: it runs once per node
                if nodes >= max_nodes or (nodes & 4095 == 4095
                                          and time.monotonic() > deadline):
                    exact = False
                    break
                nodes += 1
                taken = all(chosen_count[i] < 2 for i in tri_at[v])
                if taken:
                    current.append(v)
                    for i in tri_at[v]:
                        chosen_count[i] += 1
                path.append((v, taken))
                v += 1
                continue
        # backtrack to the deepest vertex whose leave-out branch is open
        while path:
            u, taken = path.pop()
            if taken:
                current.pop()
                for i in tri_at[u]:
                    chosen_count[i] -= 1
                path.append((u, False))
                v = u + 1
                break
        else:
            break
    meter.nodes = nodes
    return ParamResult(value=len(best), exact=exact,
                       lower_certificate=frozenset(best), budget_spent=meter.spent())


# ---------------------------------------------------------------------------
# k-partite-hole number
# ---------------------------------------------------------------------------

def _find_hole(n: int, k: int, a: int, pairs: list[list[tuple[int, int]]],
               meter: _Meter) -> tuple[frozenset[int], ...] | None:
    """k disjoint parts of size a that no triple meets all of, or None.

    Raises _OutOfBudget when the meter refuses a node; see alpha_star.
    """
    bits = [1 << v for v in range(n)]
    rk = range(k)
    # lose[j][p + 1]: the part a vertex loses when it shares a triple with a
    # vertex just placed in part j and a vertex in part p (-1: in no part),
    # or -1; it loses one when those two meet k - 1 distinct parts
    lose = []
    for j in rk:
        row = []
        for p in range(-1, k):
            rest = [q for q in rk if q != j and q != p]
            row.append(rest[0] if len(rest) == 1 else -1)
        lose.append(row)
    out = 1 << k
    down = range(k - 1, 0, -1)
    has = [(1 << n) - 1] * k    # has[j]: undecided vertices that may still join part j
    size = [0] * k
    part = [-1] * n             # -1: undecided or left out
    placed = used = 0
    goal = k * a
    # frame: [vertex, has and size before it, placed and used before it,
    #         options left: a bit per part, then bit k for leaving it out]
    stack: list[list] = []
    nodes = meter.nodes
    max_nodes = meter.max_nodes
    deadline = meter.deadline
    while True:
        if placed == goal:
            meter.nodes = nodes
            return tuple(frozenset(v for v in range(n) if part[v] == j) for j in rk)
        # prune when a part, or all parts together, can no longer be filled
        deficit = 0
        union = 0
        for h, c in zip(has, size):
            need = a - c
            if h.bit_count() < need:
                break
            deficit += need
            union |= h
        else:
            if union.bit_count() >= deficit:
                # branch on a vertex with the fewest parts left, the lowest
                # first; cnt[m]: undecided vertices that may join more than m
                cnt = [0] * k
                for h in has:
                    for m in down:
                        cnt[m] |= cnt[m - 1] & h
                    cnt[0] |= h
                for m in range(1, k):
                    pool = cnt[m - 1] & ~cnt[m]
                    if pool:
                        break
                else:
                    pool = cnt[k - 1]
                low = pool & -pool
                dom = 0
                for j in rk:
                    if has[j] & low:
                        dom |= 1 << j
                # parts are interchangeable while empty: offer the used parts
                # and the lowest empty one
                offered = (1 << (used + 1 if used < k else k)) - 1
                stack.append([low.bit_length() - 1, tuple(has), tuple(size), placed, used,
                              (dom & offered) | out])
        while stack:
            frame = stack[-1]
            v, saved_has, saved_size, placed, used, opts = frame
            part[v] = -1
            if not opts:
                stack.pop()
                continue
            has[:] = saved_has
            size[:] = saved_size
            # the emptiest part first, the lowest on ties; leaving out last
            bit = opts & -opts
            if bit != out:
                least = size[bit.bit_length() - 1]
                rest = (opts ^ bit) & (out - 1)
                while rest:
                    low = rest & -rest
                    rest ^= low
                    c = size[low.bit_length() - 1]
                    if c < least:
                        least = c
                        bit = low
            frame[5] = opts ^ bit
            vb = bits[v]
            if bit == out:
                for j in rk:
                    if has[j] & vb:
                        has[j] ^= vb
                break
            # the meter's check, inlined: it runs once per node
            if nodes >= max_nodes or (nodes & 4095 == 4095 and time.monotonic() > deadline):
                meter.nodes = nodes
                raise _OutOfBudget
            nodes += 1
            j = bit.bit_length() - 1
            part[v] = j
            size[j] += 1
            placed += 1
            if j == used:
                used += 1
            # forward check: the undecided vertices of v's triples lose parts
            lost = [vb] * k
            row = lose[j]
            for x, y in pairs[v]:
                px = part[x]
                py = part[y]
                if py < 0:
                    r = row[px + 1]
                    if r >= 0:
                        lost[r] |= bits[y]
                if px < 0:
                    r = row[py + 1]
                    if r >= 0:
                        lost[r] |= bits[x]
            for i in rk:
                has[i] &= ~lost[i]
            if size[j] == a:
                has[j] = 0
            break
        else:
            meter.nodes = nodes
            return None


def alpha_star(ts: TripleSystem, k: int,
               budget: SearchBudget | None = None) -> ParamResult:
    """The k-partite-hole number with a verified certificate.

    A k-partite hole of size a is k disjoint parts of a vertices each that no
    triple meets all of.  The search climbs a ladder from the empty hole,
    asking at each level for a hole one vertex per part larger than the best
    found so far.  It stops at the cap, floor(n/3) - 1 for 3-partite holes
    in a Steiner system on more than 3 vertices and floor(n/k) otherwise,
    both proven bounds; or at the first refuted level.  Holes are monotone:
    dropping one vertex from each part of an (a+1)-hole leaves an a-hole, so
    once a level is refuted no higher level is feasible, and at most one
    level is ever refuted.

    Each level is a depth-first search with forward checking (Haralick &
    Elliott 1980, "Increasing tree search efficiency for constraint
    satisfaction problems"):

    * Every undecided vertex keeps a domain of the parts it may still join,
      held as one bitmask of vertices per part.  A vertex loses part j once
      the other vertices of one of its triples meet k - 1 distinct parts,
      none of them j, and every vertex loses a part once it is full.
    * A branch dies when some part, or all parts together, can no longer be
      filled from the vertices that may still join them.
    * The next vertex is one with the fewest parts left, the lowest first.
      It is placed in each of its parts, the emptiest first (balanced parts
      constrain each other early), and then left out.
    * Parts are interchangeable while empty, so only the used parts and the
      lowest empty one are offered.
    * The tree is walked with an explicit stack, so search depth is not
      limited by the interpreter's recursion limit.

    A node is one vertex placed in one part; leaving a vertex out is not a
    node.  Every level draws on the one meter of ``budget``, whose node cap
    is checked before a node is counted, so ``budget_spent.nodes`` never
    exceeds it.  ``exact=True`` means the value is the cap or the next level
    was refuted by an exhausted search.  When the budget runs out, the
    largest hole found so far is returned with ``exact=False``.  The
    certificate is re-checked by ``verify_hole``; a failure raises
    ``InvalidHole``, also under ``python -O``.
    """
    if k < 2:
        raise BadK(f"need at least 2 parts, got {k}")
    budget = budget or SearchBudget()
    meter = _Meter(budget)
    n = ts.n
    ub = n // 3 - 1 if (k == 3 and is_steiner(ts) and n > 3) else n // k
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, y, z in ts.triples:
        pairs[x].append((y, z))
        pairs[y].append((x, z))
        pairs[z].append((x, y))

    best = tuple(frozenset() for _ in range(k))
    exact = True
    while len(best[0]) < ub:
        try:
            parts = _find_hole(n, k, len(best[0]) + 1, pairs, meter)
        except _OutOfBudget:
            exact = False
            break
        if parts is None:
            break
        best = parts
    h = HoleCertificate(k=k, a=len(best[0]), parts=best)
    if not verify_hole(ts, h):
        raise InvalidHole("search produced a hole with a crossing triple")
    return ParamResult(h.a, exact, h, meter.spent())


# ---------------------------------------------------------------------------
# Monochromatic-component number
# ---------------------------------------------------------------------------

def mc_exact(ts: TripleSystem, r: int,
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
