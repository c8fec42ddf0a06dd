"""Brute-force reference implementations used as independent oracles.

These deliberately share no code with the package's search engines: sets and
bitmasks only, straight enumeration.
"""

from itertools import combinations


def brute_alpha(n, triples):
    """Largest subset containing no full triple, by descending enumeration."""
    tsets = [set(t) for t in triples]
    for size in range(n, 0, -1):
        for cand in combinations(range(n), size):
            cs = set(cand)
            if not any(ts <= cs for ts in tsets):
                return size
    return 0


def alpha_by_reverse_branching(n, triples):
    """Largest subset containing no full triple, by include/exclude search.

    A second refuter for orders where enumeration is out of reach: it decides
    vertices from the highest down, taking a vertex before leaving it out,
    starts from the empty set, and prunes only when taking every undecided
    vertex cannot beat the best set found.
    """
    others = [[] for _ in range(n)]
    for t in triples:
        for v in t:
            others[v].append([u for u in t if u != v])
    chosen = set()
    best = 0

    def decide(v):
        nonlocal best
        if len(chosen) + v + 1 <= best:
            return
        if v < 0:
            best = len(chosen)
            return
        if not any(x in chosen and y in chosen for x, y in others[v]):
            chosen.add(v)
            decide(v - 1)
            chosen.remove(v)
        decide(v - 1)

    decide(n - 1)
    return best


def brute_alpha_star3(n, triples):
    """Max a admitting three disjoint size-a sets no triple crosses fully."""
    tsets = [set(t) for t in triples]
    for a in range(n // 3, 0, -1):
        verts = list(range(n))
        for x1 in combinations(verts, a):
            s1 = set(x1)
            rest1 = [v for v in verts if v not in s1]
            for x2 in combinations(rest1, a):
                s2 = set(x2)
                rest2 = [v for v in rest1 if v not in s2]
                for x3 in combinations(rest2, a):
                    s3 = set(x3)
                    if not any(s1 & t and s2 & t and s3 & t for t in tsets):
                        return a
    return 0


def max_component_size(n, triples, colors, r=3):
    """Largest monochromatic component of one coloring, via bitmask merging."""
    comps = {c: [] for c in range(r)}
    for t, c in zip(triples, colors):
        mask = 0
        for v in t:
            mask |= 1 << v
        merged = mask
        keep = []
        for existing in comps[c]:
            if existing & merged:
                merged |= existing
            else:
                keep.append(existing)
        keep.append(merged)
        comps[c] = keep
    return max((m.bit_count() for cl in comps.values() for m in cl), default=0)


def brute_mc3(n, triples):
    """Exact minimum over all 3^m colorings of the largest component.

    Precomputes the largest-component size of every triple subset, then walks
    every ordered partition of the triple set into three color classes.
    """
    m = len(triples)
    tmask = []
    for t in triples:
        mask = 0
        for v in t:
            mask |= 1 << v
        tmask.append(mask)
    f = [0] * (1 << m)
    for s in range(1, 1 << m):
        comps = []
        for i in range(m):
            if s >> i & 1:
                merged = tmask[i]
                keep = []
                for c in comps:
                    if c & merged:
                        merged |= c
                    else:
                        keep.append(c)
                keep.append(merged)
                comps = keep
        f[s] = max(c.bit_count() for c in comps)
    best = n + 1
    full = (1 << m) - 1
    count = 0
    s0 = full
    while True:
        rest = full ^ s0
        s1 = rest
        while True:
            count += 1
            v = max(f[s0], f[s1], f[rest ^ s1])
            if v < best:
                best = v
            if s1 == 0:
                break
            s1 = (s1 - 1) & rest
        if s0 == 0:
            break
        s0 = (s0 - 1) & full
    if count != 3 ** m:
        raise RuntimeError(f"walked {count} colorings, not 3^{m}")
    return best


def brute_mc2(n, triples):
    """Exact minimum over all 2^m colorings of the largest component."""
    m = len(triples)
    tmask = []
    for t in triples:
        mask = 0
        for v in t:
            mask |= 1 << v
        tmask.append(mask)

    def largest(indices):
        comps = []
        for i in indices:
            merged = tmask[i]
            keep = []
            for c in comps:
                if c & merged:
                    merged |= c
                else:
                    keep.append(c)
            keep.append(merged)
            comps = keep
        return max((c.bit_count() for c in comps), default=0)

    best = n + 1
    for s in range(1 << m):
        c0 = [i for i in range(m) if s >> i & 1]
        c1 = [i for i in range(m) if not s >> i & 1]
        best = min(best, max(largest(c0), largest(c1)))
    return best


def brute_alpha_star2(n, triples):
    """Max a admitting two disjoint size-a sets no triple meets both of."""
    tsets = [set(t) for t in triples]
    for a in range(n // 2, 0, -1):
        verts = list(range(n))
        for x1 in combinations(verts, a):
            s1 = set(x1)
            rest = [v for v in verts if v not in s1]
            for x2 in combinations(rest, a):
                s2 = set(x2)
                if not any(s1 & t and s2 & t for t in tsets):
                    return a
    return 0


def brute_l2_partitions(n, triples):
    """Every partition of range(n) into four non-empty blocks that no triple
    meets three of, as a set of frozensets of blocks.

    Restricted-growth enumeration: vertex v joins a used block or the next
    new one, and each complete 4-block labelling is tested against every
    triple.
    """
    tsets = [set(t) for t in triples]
    label = [0] * n
    out = set()

    def grow(v, used):
        if v == n:
            if used == 4:
                blocks = [{u for u in range(n) if label[u] == b} for b in range(4)]
                if all(sum(1 for b in blocks if b & t) < 3 for t in tsets):
                    out.add(frozenset(frozenset(b) for b in blocks))
            return
        for b in range(min(used + 1, 4)):
            label[v] = b
            grow(v + 1, max(used, b + 1))

    if n:
        grow(0, 0)
    return out


def brute_least_l2_sum(n):
    """The least sum of the two largest of four positive sizes summing to n,
    over the size lists whose squares sum to at least (n^2 + 2n) / 3, or n
    when none does.  Every composition of n into four parts is tried."""
    best = n
    for a in range(1, n):
        for b in range(1, n - a):
            for c in range(1, n - a - b):
                sizes = sorted((a, b, c, n - a - b - c))
                if 3 * sum(p * p for p in sizes) >= n * n + 2 * n:
                    best = min(best, sizes[2] + sizes[3])
    return best


def brute_hole_ok(n, triples, parts):
    """Direct restatement: no triple intersects all parts."""
    psets = [set(p) for p in parts]
    for t in triples:
        ts = set(t)
        if all(ts & p for p in psets):
            return False
    return True


def brute_bicolorings(n, triples):
    """All vertex maps V -> {1,2,3} where every triple sees exactly 2 colors."""
    from itertools import product

    out = []
    for phi in product((1, 2, 3), repeat=n):
        if all(len({phi[a], phi[b], phi[c]}) == 2 for a, b, c in triples):
            out.append(phi)
    return out


def brute_pair_degrees(triples):
    """Per covered vertex pair (u, v), u < v, the number of triples holding
    it, by listing the two-element subsets of every triple."""
    degrees = {}
    for t in triples:
        for pair in combinations(sorted(t), 2):
            degrees[pair] = degrees.get(pair, 0) + 1
    return degrees


def brute_pasch_count(triples):
    """Number of Pasch configurations: four triples on six points, each point
    on exactly two of them, by enumeration of all 4-subsets of triples."""
    tsets = [set(t) for t in triples]
    count = 0
    for quad in combinations(tsets, 4):
        degree = {}
        for t in quad:
            for v in t:
                degree[v] = degree.get(v, 0) + 1
        if len(degree) == 6 and all(d == 2 for d in degree.values()):
            count += 1
    return count


def brute_components(triples):
    """Components of the shadow graph of ``triples`` on the vertices they
    touch, as a set of frozensets, by breadth-first search."""
    adj = {}
    for t in triples:
        for u in t:
            adj.setdefault(u, set()).update(v for v in t if v != u)
    seen = set()
    out = set()
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        out.add(frozenset(comp))
    return out


def brute_decomposition_ok(n, triples, colors, d, r):
    """Check a claimed L1/L2/L3 decomposition of an r-coloring clause by clause.

    The role colors must be three distinct ints in range(r), none a bool.
    Builds the multicolored shadow literally, as a table from each vertex
    pair to the set of colors of the triples holding it, and tests every
    clause of the claimed case on that table with breadth-first search for
    connectivity.
    """
    table = {}
    for t, col in zip(triples, colors):
        for u, v in combinations(sorted(t), 2):
            table.setdefault((u, v), set()).add(col)

    def pair_colors(u, v):
        return table.get((min(u, v), max(u, v)), set())

    def only(A, B, col):
        return all(pair_colors(u, v) <= {col} for u in A for v in B)

    def never(A, B, col):
        return all(col not in pair_colors(u, v) for u in A for v in B)

    def connected(col, S):
        if not S:
            return False
        start = min(S)
        seen = {start}
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in S:
                if v not in seen and col in pair_colors(u, v):
                    seen.add(v)
                    queue.append(v)
        return seen == set(S)

    roles = d.role_colors
    if (len(roles) != 3 or not all(type(col) is int and 0 <= col < r for col in roles)
            or len(set(roles)) != 3):
        return False
    everything = set(range(n))
    if d.case == "L1":
        return (d.component is not None and set(d.component) == everything
                and connected(d.role_colors[0], everything))
    if d.parts is None or len(d.parts) != 4:
        return False
    W, X, Y, Z = (set(p) for p in d.parts)
    if W | X | Y | Z != everything or len(W) + len(X) + len(Y) + len(Z) != n:
        return False
    blue, red, green = d.role_colors
    if d.case == "L2":
        if not (W and X and Y and Z):
            return False
        forced = ((W, X, blue), (Y, Z, blue), (W, Y, red), (X, Z, red),
                  (W, Z, green), (X, Y, green))
        if not all(only(A, B, col) for A, B, col in forced):
            return False
        return all(sum(1 for P in (W, X, Y, Z) if set(t) & P) < 3 for t in triples)
    if d.case == "L3":
        if not (X and Y and Z):
            return False
        if not (connected(blue, W | X | Y) and connected(red, W | X | Z)
                and connected(green, W | Y | Z)):
            return False
        if not (only(X, Y, blue) and only(X, Z, red) and only(Y, Z, green)):
            return False
        return never(W, X, green) and never(W, Y, red) and never(W, Z, blue)
    return False


def stdlib_hill_climb_sts(n, rng, max_iters):
    """Stinson's hill climb for a Steiner triple system, drawn with the
    stdlib's ``rng.choice`` and ``rng.sample``.

    Each step picks a point with an uncovered pair by ``rng.choice`` from the
    ascending list of such points, two of its uncovered partners by
    ``rng.sample(..., 2)`` from their ascending list, and makes the three a
    block, evicting the block that held the partners' pair, if any.  Returns
    the blocks as sorted tuples in lexicographic order, or None when
    ``max_iters`` steps leave a pair uncovered.
    """
    third = {}  # covered pair (u, v), u < v -> the third point of its block
    uncovered = [set(range(n)) - {x} for x in range(n)]
    target = n * (n - 1) // 6
    blocks = 0
    for _ in range(max_iters):
        if blocks == target:
            break
        x = rng.choice([p for p in range(n) if uncovered[p]])
        y, z = rng.sample(sorted(uncovered[x]), 2)
        w = third.get((min(y, z), max(y, z)))
        if w is None:
            blocks += 1
        else:
            for u, v in ((y, z), (y, w), (z, w)):
                del third[min(u, v), max(u, v)]
                uncovered[u].add(v)
                uncovered[v].add(u)
        for u, v, t in ((x, y, z), (x, z, y), (y, z, x)):
            third[min(u, v), max(u, v)] = t
            uncovered[u].discard(v)
            uncovered[v].discard(u)
    if blocks < target:
        return None
    return sorted({tuple(sorted((u, v, t))) for (u, v), t in third.items()})
