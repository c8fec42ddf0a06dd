"""Exact computation of alpha, alpha*_k, and mc_r by budgeted search.

Every budgeted search of the package lives here and draws on one budget
meter: the three parameter searches, :func:`l2_partitions` and
:func:`bicoloring_search`.  The three parameter searches return a
:class:`ParamResult`, and so does :func:`mc3_by_decomposition`, which
derives ``mc_3`` of a Steiner system from ``alpha*_3`` and the enumeration
of :func:`l2_partitions`.  ``exact=True`` means the search ran to
completion: the certificate proves the value from one side and the
exhausted search refutes the adjacent value from the other.  Running out of
budget is a normal outcome, not an error; the best verified bound found so
far is returned with ``exact=False``.  :func:`bicoloring_search` has no
partial answer to give and raises ``BudgetExhausted`` instead.

Search values are deterministic for a given input and node budget.  Wall-time
budgets can flip ``exact`` to False nondeterministically (the clock is not a
deterministic device); node budgets cannot.
"""

from __future__ import annotations

import marshal
import math
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Callable, Iterable

from .colorings import Bicoloring, hole_coloring, l2_coloring, verify_bicoloring
from .constructions import layer_automorphisms
from .core import (
    BadK,
    BudgetExhausted,
    EdgeColoring,
    HoleCertificate,
    InvalidHole,
    TripleSystem,
    is_steiner,
    largest_mono_component,
    mask_vertices,
    verify_hole,
)


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 100_000_000
    max_seconds: float = 60.0

    def __post_init__(self):
        nodes, seconds = self.max_nodes, self.max_seconds
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
            raise ValueError("max_seconds must be an int or a float")
        # written as "not > 0" so that NaN, which compares false, is rejected
        if isinstance(nodes, (int, float)) and not (nodes > 0 and seconds > 0):
            raise ValueError("budget fields must be positive")
        # a fractional cap would let the count pass it; bool is no count
        if not isinstance(nodes, int) or isinstance(nodes, bool):
            raise ValueError("max_nodes must be an int")


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


class _Meter:
    """The budget policy of one search call: its node cap and its clock.

    Each engine keeps its own node count and tests it once per node, before
    counting the node: ``if nodes == stop and (stop := meter.ask(nodes)) <
    0`` refuses it.  ``ask`` refuses once the count has reached
    ``max_nodes``, or, at every 4096th node, once the clock has passed the
    deadline; otherwise it returns the next count at which to ask.  The
    engine hands its final count to ``spent``.
    """

    __slots__ = ("max_nodes", "deadline", "t0", "stop")

    def __init__(self, budget: SearchBudget | None):
        budget = budget or SearchBudget()
        self.max_nodes = budget.max_nodes
        self.t0 = time.monotonic()
        self.deadline = self.t0 + budget.max_seconds
        self.resume(0)

    def resume(self, nodes: int) -> None:
        """Set the stop a run at count ``nodes`` has ahead: the least
        4095 + 4096 j at or above it, capped at ``max_nodes``."""
        self.stop = min(self.max_nodes, nodes + (4095 - nodes) % 4096)

    def ask(self, nodes: int) -> int:
        """-1 to refuse the node at count ``nodes``, else the next stop."""
        if nodes >= self.max_nodes or time.monotonic() > self.deadline:
            self.stop = -1
        else:
            self.stop = min(self.max_nodes, nodes + 4096)
        return self.stop

    def spent(self, nodes: int) -> BudgetSpent:
        return BudgetSpent(nodes=nodes, seconds=time.monotonic() - self.t0)


@contextmanager
def forked_blocks(items: Iterable, run: Callable[[list], object]):
    """Yield ``run(block)`` for each block of ``items``, in block order, the
    blocks being one contiguous block per usable CPU.

    CPUs are usable where ``os.fork`` and ``os.sched_getaffinity`` exist and
    no other thread runs; with one, ``items`` is one block.  Else they are
    cut into min(CPUs, items) blocks whose sizes differ by at most one, the
    larger first, and a child forked per later block sends ``run(block)``
    through a pipe with ``marshal``.  The caller runs the first block, and
    any block whose pipe or fork failed or whose child died, raised or sent
    nothing, when it is reached.  Every child is killed and reaped on the
    way out.
    """
    safe = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    cpus = len(os.sched_getaffinity(0)) if safe and threading.active_count() == 1 else 1
    blocks = [items]
    if cpus > 1:
        items = list(items)
        cpus = min(cpus, len(items))
        size, extra = divmod(len(items), cpus)
        blocks = [items[i * size + min(i, extra):(i + 1) * size + min(i + 1, extra)]
                  for i in range(cpus)]
    children = []       # (pid, pipe) of the children of blocks 1, 2, ...
    try:
        for block in blocks[1:]:
            try:
                r, w = os.pipe()
            except OSError:
                break           # the blocks left without a child are run here
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                try:
                    with os.fdopen(w, "wb") as out:
                        marshal.dump(run(block), out)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))

        def results():
            for i, block in enumerate(blocks):
                if 0 < i <= len(children):
                    try:
                        result = marshal.load(children[i - 1][1])
                    except (EOFError, ValueError):
                        pass    # a child that sent nothing: its block is run here
                    else:
                        yield result
                        continue
                yield run(block)

        yield results()
    finally:
        for pid, file in children:
            file.close()
            os.kill(pid, 9)     # SIGKILL
            os.waitpid(pid, 0)


def _mates(ts: TripleSystem) -> list[dict[int, int]]:
    """``mate[w][u]``: the third vertices of every triple through w and u, as
    a mask, for the three engines that place vertices: the forward checks of
    :func:`_find_hole` and :func:`_l2_search` and the candidate filter of
    :func:`independence_number`.  One dict per vertex, holding only its
    neighbours, so the rows take space in proportion to the triples."""
    mate: list[dict[int, int]] = [{} for _ in range(ts.n)]
    for x, y, z in ts.triples:
        bx, by, bz = 1 << x, 1 << y, 1 << z
        row = mate[x]
        row[y] = bz
        row[z] = by
        row = mate[y]
        row[x] = bz
        row[z] = bx
        row = mate[z]
        row[x] = by
        row[y] = bx
    if sum(map(len, mate)) < 6 * ts.m:
        # a pair lies in several triples, and its entries hold only the
        # last one's third vertex: OR in every one's
        for x, y, z in ts.triples:
            bx, by, bz = 1 << x, 1 << y, 1 << z
            mate[x][y] |= bz
            mate[x][z] |= by
            mate[y][x] |= bz
            mate[y][z] |= bx
            mate[z][x] |= by
            mate[z][y] |= bx
    return mate


# ---------------------------------------------------------------------------
# Independence number
# ---------------------------------------------------------------------------

def independence_number(ts: TripleSystem,
                        budget: SearchBudget | None = None) -> ParamResult:
    """Largest vertex set containing no full triple, by Russian-doll search.

    Russian-doll search (Verfaillie, Lemaitre & Schiex 1996; Ostergard
    2002, "A fast algorithm for the maximum clique problem") solves nested
    subproblems, the dolls, from the smallest up:

    * For i = n-1 down to 0, ``rd[i]`` is the independence number of the
      system induced on {i..n-1}.  It is ``rd[i+1]`` or one more, so doll i
      asks only for a set of size ``rd[i+1] + 1`` that contains i.
    * The search adds candidate vertices in index order, holding the
      candidates as one bitmask.  Taking w removes from the candidates the
      third vertex of every triple through w and a taken vertex, read from
      a mask per pair that ORs every triple through the pair, so partial
      systems whose pairs lie in several triples are handled too.
    * A branch dies when the set plus every candidate, or the set plus
      ``rd`` of the lowest candidate, falls short of the target.
    * Warm start: doll i first tries the previous doll's set plus i, and
      searches only when that set holds a triple.
    * Early stop: a greedy scan in index order seeds the incumbent, and the
      search stops, exact, once it reaches ``(i+1) + rd[i+1]``, an upper
      bound on the whole system's value.

    A node is one vertex taken into a doll's set, the warm start's i
    included.  The node cap is checked before a node is counted.  The tree
    is walked with an explicit stack, so its depth is not limited by the
    interpreter's recursion limit.  An interrupted run returns, with
    ``exact=False``, the larger of the greedy set and the last finished
    doll's set completed greedily with the vertices below it.  The
    certificate is re-checked against every triple of ``ts``; a set
    containing a triple raises ``RuntimeError``, also under ``python -O``.
    """
    meter = _Meter(budget)
    n = ts.n
    mate = _mates(ts)
    # near[w]: the vertices that share a triple with w
    near = [reduce(or_, row.values(), 0) for row in mate]

    def blocked(v: int, chosen: int) -> int:
        """The vertices that complete a triple with v and one of ``chosen``."""
        row = mate[v]
        out = 0
        rest = chosen & near[v]
        while rest:
            low = rest & -rest
            rest ^= low
            out |= row[low.bit_length() - 1]
        return out

    def extend(chosen: int, stop: int) -> int:
        """``chosen`` plus the vertices below ``stop`` that keep it
        independent, taken greedily in index order."""
        for v in range(stop):
            if not blocked(v, chosen) & chosen:
                chosen |= 1 << v
        return chosen

    greedy = extend(0, n)
    seed = greedy.bit_count()

    rd = [0] * (n + 1)
    doll = 0                    # the last finished doll's set, as a bitmask
    exact = True
    nodes = 0
    stop = meter.stop
    for i in range(n - 1, -1, -1):
        if seed >= i + 1 + rd[i + 1]:
            break
        target = rd[i + 1] + 1
        if nodes == stop and (stop := meter.ask(nodes)) < 0:
            exact = False
            break
        nodes += 1
        bit = 1 << i
        if not blocked(i, doll) & doll:
            doll |= bit
            rd[i] = target
            continue
        rd[i] = target - 1
        # taken[d] and cands[d]: the bit of the set's d-th vertex and the
        # candidates left after it
        taken = [bit]
        cands = [((1 << n) - 1) ^ ((bit << 1) - 1)]
        chosen = bit
        while cands:
            cand = cands[-1]
            size = len(taken)
            if (size + cand.bit_count() < target
                    or size + rd[(cand & -cand).bit_length() - 1] < target):
                cands.pop()
                chosen ^= taken.pop()
                continue
            if nodes == stop and (stop := meter.ask(nodes)) < 0:
                exact = False
                break
            nodes += 1
            low = cand & -cand
            cand ^= low
            cands[-1] = cand
            # every candidate keeps the set independent
            if size + 1 == target:
                doll = chosen | low
                rd[i] = target
                break
            taken.append(low)
            cands.append(cand & ~blocked(low.bit_length() - 1, chosen))
            chosen |= low
        if not exact:
            break
    if not exact:
        doll = extend(doll, i + 1)
    best = greedy if seed >= doll.bit_count() else doll
    certificate = frozenset(v for v in range(n) if best >> v & 1)
    if any(set(t) <= certificate for t in ts.triples):
        raise RuntimeError("independent-set certificate failed re-verification")
    return ParamResult(value=len(certificate), exact=exact,
                       lower_certificate=certificate, budget_spent=meter.spent(nodes))


# ---------------------------------------------------------------------------
# k-partite-hole number
# ---------------------------------------------------------------------------

def _left_out_sets(n: int, rho: int, group: tuple[tuple[int, ...], ...]):
    """Yield one rho-subset of range(n) per orbit of ``group``, the lowest
    in lexicographic order, as a vertex mask with its setwise stabilizer in
    the group's order, so the identity comes first.  The orbits are built
    lazily, so a search that stops early never pays for the later ones."""
    seen = set()
    for rs in combinations(range(n), rho):
        mask = sum(1 << v for v in rs)
        if mask in seen:
            continue
        stab = []
        for g in group:
            image = sum(1 << g[v] for v in rs)
            if image == mask:
                stab.append(g)
            else:
                seen.add(image)
        yield mask, tuple(stab)


def _find_hole(n: int, k: int, a: int, mate: list[dict[int, int]], near: list[int],
               group: tuple[tuple[int, ...], ...], meter: _Meter,
               nodes: int, limit: float, left: int,
               ) -> tuple[tuple[frozenset[int], ...] | None, int, bool]:
    """k = 2 or 3 disjoint parts of size a that no triple meets all of, or
    None, with the running node count, which enters as ``nodes``, and
    whether the search settled the level.

    ``mate`` holds the rows of :func:`_mates`, ``near[w]`` the vertices
    that share a triple with w (read at k = 2 alone), and ``group`` is a
    group of automorphisms of the system that maps the vertex mask
    ``left``, vertices that join no part, onto itself.  The search stops
    unsettled, with None, when the count reaches ``limit`` or the meter
    refuses a node; only a refusal leaves the meter's ``stop`` negative.
    There are always three parts; at k = 2 the third is created full.  See
    alpha_star.
    """
    bits = [1 << v for v in range(n)]
    out = 1 << 3
    # has[j]: undecided vertices that may still join part j; mem[j]: the
    # vertices placed in part j, in order, whose count is the part's fill;
    # at k = 2 the third part holds a placeholders and has no candidates
    has = [((1 << n) - 1) ^ left] * k + [0] * (3 - k)
    mem = [[], [], [] if k == 3 else [-1] * a]
    m0, m1, m2 = mem
    used = 0
    # the root frame's H is the whole group, None when trivial
    top = group if len(group) > 1 else None
    # frame: [vertex, the part it is placed in (-1 while it is left out or
    #         between options), has and used before it,
    #         options left: a bit per part, then bit 3 for leaving it out,
    #         the vertex's orbit under the group H that fixes every vertex
    #         decided above it (0 once H is trivial), and the subgroup of H
    #         that also fixes the vertex (the next frame's H)]
    stack: list[list] = []
    # the next count to stop at: the meter's next question or the limit
    stop = min(meter.stop, limit)
    while True:
        placed = len(m0) + len(m1) + len(m2)
        if placed == 3 * a:
            return tuple(map(frozenset, mem[:k])), nodes, True
        # prune when a part, or all parts together, can no longer be filled:
        # each part's spare candidates, then the union's; else branch on
        # low, a vertex with the fewest parts left, the lowest first, whose
        # parts are the bits of dom; leaving it out is free when the prune
        # would not refuse it at once
        low = 0
        h0, h1, h2 = has
        e0 = h0.bit_count() - a + len(m0)
        e1 = h1.bit_count() - a + len(m1)
        e2 = h2.bit_count() - a + len(m2)
        if e0 >= 0 and e1 >= 0 and e2 >= 0:
            union = h0 | h1 | h2
            slack = union.bit_count() - 3 * a + placed
            if slack >= 0:
                # two and three: the vertices that may join at least two
                # parts and all three; the pool holds those with exactly
                # one part left, else exactly two, else three
                two = h0 & h1 | h0 & h2 | h1 & h2
                pool = union & ~two
                if not pool:
                    three = h0 & h1 & h2
                    pool = two & ~three or three
                low = pool & -pool
                dom = (1 if h0 & low else 0) | (2 if h1 & low else 0) | (4 if h2 & low else 0)
                free = (slack and (e0 or not dom & 1) and (e1 or not dom & 2)
                        and (e2 or not dom & 4))
        if low:
            # parts are interchangeable while empty: offer the used parts
            # and the lowest empty one, and leaving v out only when free
            opts = dom & ((2 << used) - 1)
            if free:
                opts |= out
            v = low.bit_length() - 1
            orbit = 0
            stab = stack[-1][6] if stack else top
            if stab is not None:
                for g in stab:
                    orbit |= bits[g[v]]
                stab = [g for g in stab if g[v] == v]
                if len(stab) == 1:
                    stab = None
            stack.append([v, -1, tuple(has), used, opts, orbit, stab])
        while stack:
            frame = stack[-1]
            v, j, saved_has, used, opts, orbit, _ = frame
            vb = bits[v]
            if j >= 0:
                mem[j].pop()        # v: later placements were undone first
                frame[1] = -1
                if orbit:
                    # orbital ban: v in part j failed, so every vertex of v's orbit
                    # fails there by symmetry, and in every empty part if j was empty
                    saved_has = tuple(h & ~orbit if i == j or j == used <= i else h
                                      for i, h in enumerate(saved_has))
                    frame[2] = saved_has
            if not opts:
                stack.pop()
                continue
            has[:] = saved_has
            # the emptiest part first, the lowest on ties; leaving out last
            bit = opts & -opts
            if bit != out:
                least = len(mem[bit.bit_length() - 1])
                rest = (opts ^ bit) & (out - 1)
                while rest:
                    low = rest & -rest
                    rest ^= low
                    c = len(mem[low.bit_length() - 1])
                    if c < least:
                        least = c
                        bit = low
            frame[4] = opts ^ bit
            if bit == out:
                h0, h1, h2 = has
                has[:] = h0 & ~vb, h1 & ~vb, h2 & ~vb
                break
            if nodes == stop:
                if nodes == limit or (stop := meter.ask(nodes)) < 0:
                    return None, nodes, False
                stop = min(stop, limit)
            nodes += 1
            j = bit.bit_length() - 1
            frame[1] = j
            mem[j].append(v)
            if j == used:
                used += 1
            # forward check: v leaves every domain, and the undecided
            # vertices of its triples lose parts
            if k == 3:
                # for each other part p, the third vertices of the triples
                # through v and a vertex of p lose the part r that is
                # neither j nor p; v goes with them
                p = 1 if j == 0 else 0
                r = 3 - j - p
                get = mate[v].get
                lost = vb
                for x in mem[p]:
                    lost |= get(x, 0)
                has[r] &= ~lost
                lost = vb
                for x in mem[r]:
                    lost |= get(x, 0)
                has[p] &= ~lost
            else:
                # every vertex sharing a triple with v loses the other part:
                # the triple's third vertex is in no part or in j, since one
                # in the other part would have taken j from v
                has[1 - j] &= ~(near[v] | vb)
            has[j] = has[j] & ~vb if len(mem[j]) < a else 0
            break
        else:
            return None, nodes, True


def _search_level(n: int, k: int, a: int, mate: list[dict[int, int]], near: list[int],
                  searches: Iterable[tuple[int, tuple[tuple[int, ...], ...]]], meter: _Meter,
                  nodes: int, limit: float,
                  ) -> tuple[tuple[frozenset[int], ...] | None, int, bool]:
    """One level of alpha_star: :func:`_find_hole` once per (left-out mask,
    group) pair of ``searches``, on one running count.  The first hole
    found, or the first search left unsettled, ends the level; it is refuted
    when every search is.  The probe's slice walks ``searches`` lazily in one
    process; a ladder level cuts them into blocks by :func:`forked_blocks`
    and folds each block's result in on the true count, as alpha_star says:
    an unsettled block ends the level inexact at the count folded so far, at
    most ``max_nodes``."""
    start = nodes

    def walk(block):
        """(hole or None, nodes spent, settled) of the searches of ``block``
        from the level's start to the first hole or unsettled search."""
        parts, count, settled = None, start, True
        for left, group in block:
            parts, count, settled = _find_hole(n, k, a, mate, near, group, meter, count, limit,
                                               left)
            if parts is not None or not settled:
                break
        return parts, count - start, settled

    blocks = forked_blocks(searches, walk) if limit == math.inf else nullcontext([walk(searches)])
    with blocks as results:
        for i, (parts, spent, settled) in enumerate(results):
            nodes += spent
            if not settled or nodes > meter.max_nodes:
                if i:
                    meter.stop = -1     # a later block ran on a count of its own
                return None, min(nodes, meter.max_nodes), False
            meter.resume(nodes)
            if parts is not None:
                return parts, nodes, True
    return None, nodes, True


def alpha_star(ts: TripleSystem, k: int,
               budget: SearchBudget | None = None) -> ParamResult:
    """The k-partite-hole number with a verified certificate.

    A k-partite hole of size a is k disjoint parts of a vertices each that no
    triple meets all of.  The cap, floor(n/3) - 1 for 3-partite holes in a
    Steiner system on more than 3 vertices and floor(n/k) otherwise, is a
    proven bound.  With k >= 4 the cap is the value: a triple meets at most
    three parts, so any k disjoint parts of floor(n/k) vertices form a hole.
    The parts {j, j + k, j + 2k, ...} are returned, exact, after 0 nodes,
    with no search.  The rest of this describes k = 2 and k = 3.  Holes are
    monotone: dropping one vertex from each part of an (a+1)-hole leaves an
    a-hole, so once a level is refuted no higher level is feasible.

    * The probe asks for a hole at the cap first, within a slice of k * n
      nodes.  A hole it finds is returned, exact.  A cap level it exhausts
      inside the slice is refuted, and the ladder stops one below it.  When
      the slice is spent, its nodes are sunk and the ladder runs as if there
      were no probe.  The slice depends on n and k alone, never on the
      budget, so a run under a node cap is a prefix of the uncapped run.
    * The ladder climbs from the empty hole, asking at each level for a hole
      one vertex per part larger than the best found so far, up to the cap
      or the first refuted level, of which it meets at most one.

    Random systems of small order mostly end at the cap, where the probe
    saves the whole climb: 1100 points with one triple reach 366 after 1,098
    nodes, where the climb took 201,483.  A system whose cap the probe
    misses pays up to k * n nodes more, and a budget below about k * n nodes
    may end inside the probe and report a smaller hole than the climb would
    have reached.

    Each level is a depth-first search with forward checking (Haralick &
    Elliott 1980, "Increasing tree search efficiency for constraint
    satisfaction problems"):

    * Every undecided vertex keeps a domain of the parts it may still join,
      held as one bitmask of vertices per part.  A vertex loses part j once
      the other vertices of one of its triples meet k - 1 distinct parts,
      none of them j, and every vertex loses a part once it is full.
    * There are always three parts, and one step per node serves both k:
      with k = 2 the third part is created full, with no candidates, so it
      has none to spare, adds nothing to the union or to any pool and is
      never offered.  The step is straight-line bit operations on the
      three domain masks: the prune's spares, the pool of vertices with
      the fewest parts left, and the branching vertex's parts.  A part's
      fill is the length of its member list.
    * The forward check reads the parts, not v's triples.  Placing v in
      part j walks, for each other part p, the vertices placed in p, and
      the third vertices of their triples with v lose the part that is
      neither j nor p; with k = 2 every vertex that shares a triple with v
      loses the other part.  The third vertices come from v's row of mate
      masks (:func:`_mates`), one sparse dict per vertex, and at k = 2 the
      vertices that share a triple with v from one mask per vertex; both
      are built once per call.
    * A branch dies when some part, or all parts together, can no longer be
      filled from the vertices that may still join them.
    * The next vertex is one with the fewest parts left, the lowest first.
      It is placed in each of its parts, the emptiest first (balanced parts
      constrain each other early), and then left out.  Leaving it out is
      not offered when the prune above would refuse it at once: when the
      parts' candidates together have no slack over the vertices still
      needed, or the vertex is a candidate of a part with none to spare.
    * Parts are interchangeable while empty, so only the used parts and the
      lowest empty one are offered.
    * Orbital branching (Ostrowski, Linderoth, Rossi & Smriglio 2011,
      "Orbital branching"; Gent & Smith 2000, "Symmetry breaking during
      search in constraint programming") on the group of
      :func:`~stsramsey.constructions.layer_automorphisms`, computed once per call.
      Each frame holds the subgroup H fixing every vertex decided on its
      path, dropped once trivial.  When the subtree "v in part p" fails,
      every vertex of v's H-orbit loses part p for the rest of the frame,
      and every part that was empty there when p was: an automorphism in H
      maps the frame's decisions and earlier bans onto themselves, so a
      hole with an orbit vertex in p would map to one with v in p.  The
      first descent, and the whole tree of a system whose group is
      trivial, are unchanged.
    * The left-out set first, one orbit representative at a time
      (Ostrowski et al. 2011), at the cap level a = floor(n/3) - 1 of a
      Steiner system whose group has at least n elements: in practice
      every Bose system, and no Skolem (order 3), random or relabelled one.
      A hole there leaves out rho = n - 3a vertices, 3 or 4.  The rho-sets
      are walked in lexicographic order, and each one not yet marked as
      the image of an earlier representative is left out of every domain
      at the root and searched with its setwise stabilizer as the group.
      Any hole maps under some element of the group to a hole whose
      left-out set is its orbit's representative, and the stabilizer maps
      that instance onto itself, so the bans stay sound inside it.  The
      probe and the ladder both search the cap this way, on one running
      count: the first hole ends the level, a spent slice or budget leaves
      it unsettled, and it is refuted when every representative's search
      is.  The orbits are built lazily, so a search stopped in the first
      costs one pass over the group.  The refutation of the cap takes
      13,826 nodes on bose(21) (15 orbits) against 76,439 for the plain
      search, and 67,438 on bose(27) (26 orbits) against 359,369.  With
      few or no symmetries nearly every rho-set is its own orbit, and the
      many small searches cost more than the one tree: finding the cap
      hole takes 67,947 nodes against 20,749 on
      ``random_sts(25, 1_000_028)``, 4,285 against 2,035 on skolem(25) and
      868 against 24 on skolem(19), so those keep the plain search.  On
      more than one usable CPU a ladder level on this route cuts its
      representatives into blocks by :func:`forked_blocks`; the probe's
      slice walks the lazily built orbits in one process.  Each block is
      walked from the level's start and folded in on the true count, so
      values, counts, certificates and the cut at the cap are the
      one-process run's, though the work over the W processes can reach W
      times the cap less the count at the start.  An unsettled block ends
      the level inexact at the count folded so far, at most ``max_nodes``;
      in the first block that is where one process would stop.
    * The tree is walked with an explicit stack, so search depth is not
      limited by the interpreter's recursion limit.

    A node is one vertex placed in one part; leaving a vertex out is not a
    node, so the leave-outs not offered change no node count, hole or
    value.  Neither is a banned option, which is never offered: a frame's
    own bans take from its vertex only parts it has tried or was never
    offered.  The probe and every level draw on the one meter of
    ``budget``, whose node cap is checked before a node is counted, so
    ``budget_spent.nodes`` never exceeds it.  ``exact=True`` means the value
    is the cap or the next level was refuted by an exhausted search.  When
    the budget runs out, the largest hole found so far is returned with
    ``exact=False``.  The certificate is re-checked by ``verify_hole``; a
    failure raises ``InvalidHole``, also under ``python -O``.  A k that is
    not an int of at least 2 raises ``BadK``.
    """
    return _alpha_star(ts, k, _Meter(budget))


def _alpha_star(ts: TripleSystem, k: int, meter: _Meter) -> ParamResult:
    """:func:`alpha_star` on the nodes and clock of ``meter``."""
    if not isinstance(k, int):
        raise BadK(f"the number of parts must be an int, got {k!r}")
    if k < 2:
        raise BadK(f"need at least 2 parts, got {k}")
    n = ts.n
    exact = True
    nodes = 0
    if k > 3:
        # a triple meets at most three parts, so any k disjoint parts of
        # floor(n/k) vertices, the cap, form a hole
        a = n // k
        best = tuple(frozenset(range(j, k * a, k)) for j in range(k))
    else:
        steiner = k == 3 and is_steiner(ts) and n > 3
        ub = n // 3 - 1 if steiner else n // k
        mate = _mates(ts)
        # near[w]: the vertices that share a triple with w, read at k = 2 alone
        near = [reduce(or_, row.values(), 0) for row in mate] if k == 2 else []
        group = layer_automorphisms(ts)
        # the level searched one left-out set per orbit, -1 for none
        by_left_out = ub if steiner and len(group) >= n else -1
        best = tuple(frozenset() for _ in range(k))
        # the probe: the cap level first, within a slice of k * n nodes
        level, limit = ub, k * n
        while len(best[0]) < ub:
            searches = (_left_out_sets(n, n - 3 * level, group) if level == by_left_out
                        else ((0, group),))
            parts, nodes, settled = _search_level(n, k, level, mate, near, searches, meter,
                                                  nodes, limit)
            if settled:
                if parts is None:
                    ub = level - 1
                else:
                    best = parts
            elif meter.stop < 0:
                exact = False
                break
            level, limit = len(best[0]) + 1, math.inf
    h = HoleCertificate(k=k, a=len(best[0]), parts=best)
    if not verify_hole(ts, h):
        raise InvalidHole("search produced a hole with a crossing triple")
    return ParamResult(h.a, exact, h, meter.spent(nodes))


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
      its component, so coloring a triple ORs three masks.
    * State is restored from a per-node snapshot: a node whose color merges
      components first saves copies of that color's component and reach
      lists and of every triple's domain and urgency, and backtracking puts
      the copies back in place of the lists the node changed.
    * Every pending triple keeps a domain of the colors it may still take.
      When a color's component grows, each pending triple touching it loses
      that color if taking it would give a component at least as large as
      the incumbent; a triple left with no color kills the branch.
    * The next triple is the pending one with the fewest colors left; ties
      go to the one whose remaining colors would give the largest
      components in total (the nearest to losing another color), then to
      the lowest index.  One urgency per triple holds this order, and the
      next triple is read straight from it: a colored triple's urgency is
      set to -1 and restored when its frame is popped.
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
    returned as an upper bound with ``exact=False``.  The certificate is
    re-checked by ``largest_mono_component``; a coloring whose largest
    component differs from the value raises ``RuntimeError``, also under
    ``python -O``.  An ``r`` that is not an int of at least 1 raises
    ``ValueError``.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"need at least one color, as an int, got {r!r}")
    meter = _Meter(budget)
    n, m = ts.n, ts.m

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
    tri_at: list[list[int]] = [[] for _ in range(n)]     # the triples through each vertex
    for i, t in enumerate(tris):
        for v in t:
            tri_at[v].append(i)
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
    # frame: [triple, its domain, colors left to try, largest component and
    #         used-color count before the triple, the state its current color
    #         changed, saved before the change: (color, its component list,
    #         its reach list, dom, urgency), its urgency]
    stack: list[list] = []
    exact = True
    nodes = 0
    stop = meter.stop
    cur_max = used = 0

    while True:
        if len(stack) < m:
            # a colored triple's urgency is -1 and a pending one's at least 3,
            # so this is the most urgent pending triple, the lowest on ties
            t = urgency.index(max(urgency))
            offered = (1 << (used + 1 if used < r else r)) - 1
            stack.append([t, dom[t], dom[t] & offered, cur_max, used, None, urgency[t]])
            dom[t] = 0
            urgency[t] = -1
        else:
            # every triple colored below the incumbent: a better coloring
            best = cur_max
            best_colors = list(color)
        descended = False
        while stack and not descended:
            frame = stack[-1]
            t, saved, todo, cur_max, used, undo, saved_urgency = frame
            if undo is not None:
                c, comp[c], reach[c], dom, urgency = undo
                frame[5] = None
            # after a new incumbent, this path's largest component may reach
            # it, and domains filtered against the old one may be too wide
            if not todo or cur_max >= best:
                stack.pop()
                dom[t] = saved
                urgency[t] = saved_urgency
                continue
            bit = todo & -todo
            frame[2] = todo ^ bit
            if nodes == stop and (stop := meter.ask(nodes)) < 0:
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
                frame[5] = (c, cv[:], rc[:], dom[:], urgency[:])
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
                                if not dom[u]:
                                    wiped = True
                                    break
                            elif grow != rc[u]:
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

    certificate = EdgeColoring(system=ts, r=r, colors=tuple(best_colors))
    if largest_mono_component(certificate)[0] != best:
        raise RuntimeError("coloring certificate failed re-verification")
    return ParamResult(value=best, exact=exact,
                       lower_certificate=certificate, budget_spent=meter.spent(nodes))


# ---------------------------------------------------------------------------
# mc_3 of a Steiner system by the decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L2Partitions:
    """Every L2 partition of a system, or those found before the budget ran
    out (``exact=False``).  Each is four vertex sets (W, X, Y, Z), ordered
    by their lowest vertices."""

    partitions: tuple[tuple[frozenset[int], ...], ...]
    exact: bool
    budget_spent: BudgetSpent


def _l2_search(ts: TripleSystem, meter: _Meter,
               nodes: int) -> tuple[list[tuple[int, ...]], int, bool]:
    """The L2 partitions of ``ts`` as four vertex masks each, the running
    node count, which enters as ``nodes``, and whether the enumeration
    finished; see :func:`l2_partitions`."""
    n = ts.n
    found: list[tuple[int, ...]] = []
    if n < 4:
        return found, nodes, True
    mate = _mates(ts)
    everyone = (1 << n) - 1
    parts4 = range(4)
    # drop[p][q]: the parts a vertex loses when it shares a triple with a
    # vertex in part p and one in part q != p
    drop = [[[j for j in parts4 if j != p and j != q] for q in parts4] for p in parts4]
    part = [-1] * n             # -1: undecided
    part[0] = 0
    has = [everyone ^ 1] * 4    # has[j]: undecided vertices that may still join part j
    inside = [1, 0, 0, 0]       # inside[j]: the vertices placed in part j
    # frame: [vertex placed by the option being searched (-1 before the
    #         first), has and inside before the frame, options left (a
    #         vertex mask for a root frame, else a bit per part), the part a
    #         root frame opens (-1 for a placement frame)]
    stack: list[list] = []
    # keep the meter's schedule; a meter that has refused is asked again
    stop = max(meter.stop, nodes)
    undecided = everyone ^ 1
    while True:
        opened = 4 if inside[3] else 3 if inside[2] else 2 if inside[1] else 1
        if not undecided:
            if opened == 4:
                found.append(tuple(inside))
        else:
            # cnt[m]: undecided vertices with more than m parts left
            cnt = [0, 0, 0, 0]
            for h in has:
                cnt[3] |= cnt[2] & h
                cnt[2] |= cnt[1] & h
                cnt[1] |= cnt[0] & h
                cnt[0] |= h
            # a vertex with one opened part left goes first, then the next
            # root; once all parts are open, one with the fewest parts left
            pool = cnt[0] & ~cnt[1] & reduce(or_, has[:opened])
            if not pool and opened == 4:
                pool = cnt[1] & ~cnt[2] or cnt[2] & ~cnt[3] or cnt[3]
            if pool:
                low = pool & -pool
                opts = sum(1 << j for j in parts4 if has[j] & low)
                stack.append([low.bit_length() - 1, tuple(has), tuple(inside), opts, -1])
            else:
                # the next part's lowest vertex lies above the last part's
                last = inside[opened - 1]
                above = everyone & -((last & -last) << 1)
                stack.append([-1, tuple(has), tuple(inside), has[opened] & above, opened])
        while stack:
            frame = stack[-1]
            v, saved_has, saved_inside, opts, opens = frame
            if v >= 0:
                part[v] = -1
            if not opts:
                stack.pop()
                continue
            has[:] = saved_has
            inside[:] = saved_inside
            low = opts & -opts
            frame[3] = opts ^ low
            if opens >= 0:
                # v opens part p as its lowest vertex: no undecided vertex
                # below v joins p or a later part
                v = low.bit_length() - 1
                p = opens
                for j in range(p, 4):
                    has[j] &= ~(low - 1)
                frame[0] = v
            else:
                p = low.bit_length() - 1
            if nodes == stop and (stop := meter.ask(nodes)) < 0:
                return found, nodes, False
            nodes += 1
            vb = 1 << v
            part[v] = p
            inside[p] |= vb
            # forward check: a triple through v and a vertex x in another
            # part keeps its third vertex in one of the two parts; has holds
            # undecided vertices alone, so a decided third loses nothing
            row = drop[p]
            for x, third in mate[v].items():
                px = part[x]
                if px >= 0 and px != p:
                    for j in row[px]:
                        has[j] &= ~third
            for j in parts4:
                has[j] &= ~vb
            undecided = everyone ^ (inside[0] | inside[1] | inside[2] | inside[3])
            if undecided & ~(has[0] | has[1] | has[2] | has[3]):
                continue
            # each unopened part still needs a lowest vertex above v
            if opens >= 0 and any(not has[j] >> v for j in range(p + 1, 4)):
                continue
            break
        else:
            return found, nodes, True


def l2_partitions(ts: TripleSystem, budget: SearchBudget | None = None) -> L2Partitions:
    """Every partition of the vertices of ``ts`` into four non-empty parts
    that no triple meets three of.

    Such a partition is the partition of an L2 coloring (see
    :func:`~stsramsey.colorings.decompose_3coloring`).  The parts are
    rooted at their lowest vertices 0 < r1 < r2 < r3: vertex 0 lies in W,
    and r1, r2 and r3 are tried in turn, each a node, as the lowest
    vertices of X, Y and Z.  Every undecided vertex keeps the parts it may
    still join, one vertex bitmask per part, with forward checking (Haralick
    & Elliott 1980): once two vertices of a triple lie in different parts,
    the third keeps only those two.  Placing r_i also takes parts i and up
    from every undecided vertex below it.  A vertex with one opened part
    left is placed before the next root is tried; once all four parts are
    open, the next vertex is one with the fewest parts left, the lowest
    first, placed in each of them in turn.  Each placement is a node.  A
    branch dies when some undecided vertex has no part left, or when an
    unopened part has no candidate lowest vertex above the newest root.

    The node cap of ``budget`` is checked before a node is counted, so
    ``budget_spent.nodes`` never exceeds it; a run that stops early returns
    the partitions found so far with ``exact=False``.  The tree is walked
    with an explicit stack, so its depth is not limited by the
    interpreter's recursion limit.
    """
    meter = _Meter(budget)
    found, nodes, finished = _l2_search(ts, meter, 0)
    return L2Partitions(
        partitions=tuple(tuple(map(mask_vertices, parts)) for parts in found),
        exact=finished, budget_spent=meter.spent(nodes))


def _two_largest(parts: tuple[int, ...]) -> int:
    sizes = sorted(m.bit_count() for m in parts)
    return sizes[2] + sizes[3]


def _least_l2_sum(n: int) -> int:
    """The least p1 + p2 over sizes p1 >= p2 >= p3 >= p4 >= 1 summing to n
    with 3(p1^2 + p2^2 + p3^2 + p4^2) >= n^2 + 2n, or n when none has it.

    For each sum s = p1 + p2, lowest first, and each p2, the sizes p3 and p4
    are taken as unbalanced as p3 <= p2 allows, which makes the sum of
    squares largest."""
    need = n * n + 2 * n
    for s in range(2, n - 1):
        rest = n - s
        for p2 in range(1, s // 2 + 1):
            p1 = s - p2
            p3 = min(p2, rest - 1)
            p4 = rest - p3
            if p4 <= p3 and 3 * (p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4) >= need:
                return s
    return n


def mc3_by_decomposition(ts: TripleSystem, hole: ParamResult | None = None,
                         budget: SearchBudget | None = None,
                         candidates: Iterable[tuple[str, EdgeColoring]] = (),
                         ) -> tuple[ParamResult, str]:
    """``mc_3`` of a Steiner triple system from ``alpha*_3`` and its L2
    partitions, with no color search.

    By the proof in :func:`~stsramsey.colorings.decompose_3coloring`, a
    3-coloring whose largest component t is below n has t >= n - alpha*_3
    (case L3) or t equal to the sum of the two largest parts of an L2
    partition (case L2).  The hole coloring reaches n - alpha*_3 (with the
    empty hole it is one color, and reaches n).  So ``mc_3`` is
    n - alpha*_3 or the best sum of two largest parts over the L2
    partitions of :func:`l2_partitions`, whichever is smaller; a system
    with no triple, n = 1, has ``mc_3`` = 0.

    The enumeration is skipped, spending no node and counting as finished,
    when the least p1 + p2 that the part-size lemma there allows
    (:func:`_least_l2_sum`) is at least n - ``hole.value``: no L2 partition
    can then lower the bound.  On every admissible n from 9 to 199 that is
    exactly when alpha*_3 is at its cap floor(n/3) - 1.

    ``hole`` is the result of ``alpha_star(ts, 3)``.  When it is None, that
    search runs here first, on the same meter, and the enumeration gets the
    nodes and seconds it left, so ``budget_spent`` covers both.  The
    certificate is the best of the L2 coloring of the best partition, the
    hole coloring and ``candidates``, (name, coloring) pairs of ``ts``, the
    first on ties; its name is returned with the result.  The result is
    exact when ``hole`` is exact and the enumeration finished or was
    skipped, and the value is then re-checked against the bound: a
    certificate whose largest component, by ``largest_mono_component``,
    differs from it raises ``RuntimeError``, also under ``python -O``.  A
    system that is not Steiner, a hole without a 3-partite
    :class:`HoleCertificate` or whose value is not its certificate's int
    size, and a candidate that is not an :class:`EdgeColoring` of ``ts`` in
    at most 3 colors raise ``ValueError``.
    """
    if not is_steiner(ts):
        raise ValueError("the decomposition needs a Steiner triple system")
    certificate = getattr(hole, "lower_certificate", None)
    if hole is not None and not (isinstance(certificate, HoleCertificate) and certificate.k == 3):
        raise ValueError("hole must be a 3-partite hole")
    if hole is not None and (type(hole.value) is not int or hole.value != certificate.a):
        raise ValueError(f"hole value {hole.value!r} is not the size of its certificate")
    candidates = tuple(candidates)
    if not all(isinstance(c, EdgeColoring) and (c.system is ts or c.system == ts) and c.r <= 3
               for _, c in candidates):
        raise ValueError("candidate colorings must 3-color this system")
    meter = _Meter(budget)
    nodes = 0
    if hole is None:
        hole = _alpha_star(ts, 3, meter)
        nodes = hole.budget_spent.nodes
    if _least_l2_sum(ts.n) >= ts.n - hole.value:
        found, finished = [], True
    else:
        found, nodes, finished = _l2_search(ts, meter, nodes)
    bound = ts.n - hole.value if ts.triples else 0
    named = []
    if found:
        parts = min(found, key=_two_largest)
        bound = min(bound, _two_largest(parts))
        named.append(("l2_coloring", l2_coloring(ts, tuple(map(mask_vertices, parts)))))
    named.append(("hole_coloring", hole_coloring(ts, hole.lower_certificate)))
    named += candidates
    sizes = [largest_mono_component(c)[0] for _, c in named]
    best = sizes.index(min(sizes))
    exact = hole.exact and finished
    if exact and sizes[best] != bound:
        raise RuntimeError("mc_3 certificate misses the decomposition bound")
    name, coloring = named[best]
    return (ParamResult(value=sizes[best], exact=exact, lower_certificate=coloring,
                        budget_spent=meter.spent(nodes)), name)


# ---------------------------------------------------------------------------
# Bicolorings
# ---------------------------------------------------------------------------

def bicoloring_search(ts: TripleSystem,
                      budget: SearchBudget | None = None) -> Bicoloring | None:
    """First bicoloring in lexicographic order, or None.

    Vertex 0 is pinned to color 1 (colors are interchangeable).  For systems
    on more than 3 vertices all three classes must be non-empty; the
    degenerate 3-vertex system is allowed an empty class.  Intended for
    n <= 15.  The tree is walked with an explicit stack, so its depth is not
    limited by the recursion limit.  A node is one vertex given one color;
    the node cap is checked before a node is counted.  Running out of budget
    raises BudgetExhausted.
    """
    meter = _Meter(budget)
    n = ts.n
    require_nonempty = n > 3
    by_max: list[list[int]] = [[] for _ in range(n)]
    for i, t in enumerate(ts.triples):
        by_max[t.c].append(i)
    # classes[v] is the color vertex v holds or last held; 0 before its first
    classes = [0] * n
    nodes = 0
    stop = meter.stop
    v = 0
    while v >= 0:
        if v == n:
            if (not require_nonempty) or all(c in classes for c in (1, 2, 3)):
                return verify_bicoloring(ts, tuple(classes))
            v -= 1
            continue
        c = classes[v] + 1
        # on arrival at v: too few vertices left for the classes still empty
        pruned = (c == 1 and require_nonempty
                  and n - v < sum(1 for x in (1, 2, 3) if x not in classes[:v]))
        if pruned or c > (1 if v == 0 else 3):
            classes[v] = 0
            v -= 1
            continue
        if nodes == stop and (stop := meter.ask(nodes)) < 0:
            raise BudgetExhausted(f"bicoloring search ran out of budget after {nodes} nodes")
        nodes += 1
        classes[v] = c
        if all(len({classes[t.a], classes[t.b], classes[t.c]}) == 2
               for t in (ts.triples[i] for i in by_max[v])):
            v += 1
    return None
