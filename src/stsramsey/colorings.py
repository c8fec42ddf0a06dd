"""Explicit edge colorings, bicolorings, closed-form bounds, and the
constructive decomposition of 3-colored systems.

The decomposition operates on the 3-multicolored complete shadow of a colored
system with minimum pair degree >= 1: every vertex pair carries the set of
colors of the triples containing it.  Following the structure of maximal
monochromatic components, every 3-coloring lands in one of three cases:

* L1 - some color has a spanning component;
* L2 - a partition {W, X, Y, Z} with all parts non-empty whose six cross
  pair classes are each monochromatic in a forced pattern (and then no
  triple of the system touches three of the four parts);
* L3 - a partition {W, X, Y, Z} with X, Y, Z non-empty where W+X+Y, W+X+Z
  and W+Y+Z are connected in the three respective colors, three cross
  classes are forced, and three cross classes each exclude one color.

:func:`decompose_3coloring` builds the witness; :func:`verify_decomposition`
checks every clause of the emitted case literally and is the ground truth the
randomized tests lean on.  Both read the shadow straight off the colored
triples: a pair carries color c exactly when some c-colored triple holds both
of its vertices.  Both hold it as the per-vertex bitmasks of
:func:`core.shadow` and find components by flood fill, with no cache on the
system or the coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from .core import (
    BudgetExhausted,
    EdgeColoring,
    EmptyClass,
    HoleCertificate,
    InvalidHole,
    MalformedCertificate,
    MissingLabels,
    MonochromaticTriple,
    PairUncovered,
    RainbowTriple,
    LABEL_TYPE1,
    LABEL_TYPE2,
    LABEL_TYPE3,
    TripleSystem,
    color_class,
    flood_components,
    mask_vertices,
    reach,
    shadow,
    vertex_mask,
    verify_hole,
)
from .search import SearchBudget, _Meter


# ---------------------------------------------------------------------------
# Hole-based coloring (one color per part it avoids)
# ---------------------------------------------------------------------------

def hole_coloring(ts: TripleSystem, h: HoleCertificate) -> EdgeColoring:
    """Color each triple with the smallest part index it avoids.

    Such an index exists by the hole property, and every color-i component
    then avoids part i entirely, so no component exceeds n - a vertices.
    Ties (a triple avoiding several parts) go to the smallest index; any
    choice preserves the bound.
    """
    try:
        if not verify_hole(ts, h):
            raise InvalidHole("certificate admits a crossing triple")
    except MalformedCertificate as exc:
        raise InvalidHole(str(exc)) from exc
    if h.k < 2:
        raise InvalidHole("need at least 2 parts")
    masks = [vertex_mask(part) for part in h.parts]
    colors = []
    for a, b, c in ts.triples:
        t = (1 << a) | (1 << b) | (1 << c)
        i = 0
        while t & masks[i]:     # stops: the triple avoids some part
            i += 1
        colors.append(i)
    return EdgeColoring(system=ts, r=h.k, colors=tuple(colors))


# ---------------------------------------------------------------------------
# Construction colorings
# ---------------------------------------------------------------------------

def _layer_coloring(s: TripleSystem, off: int) -> EdgeColoring:
    """Color each triple of a labeled layered system with a layer it misses.

    Point (a, i) is vertex off + 3a + i; the Skolem extra point, vertex 0,
    lies in no layer.  A type-1 triple {(a,0), (a,1), (a,2)} gets color
    a mod 3; every other triple must meet exactly two layers and gets the
    third.  Color c meets layer c only at its type-1 triples, so it spans at
    most n - n//3 + ceil(#type-1 / 3) vertices.
    """
    colors = []
    for t, lab in zip(s.triples, s.labels):
        if lab == LABEL_TYPE1:
            colors.append(((t.a - off) // 3) % 3)
            continue
        layers = {(v - off) % 3 for v in t if v >= off}
        if len(layers) != 2:
            raise MissingLabels(
                f"triple {tuple(t)} labeled {lab} does not meet exactly two layers")
        colors.append(3 - sum(layers))  # the one of 0, 1, 2 not in layers
    return EdgeColoring(system=s, r=3, colors=tuple(colors))


def bose_coloring(s: TripleSystem) -> EdgeColoring:
    """Color a Bose-labeled system so each color avoids one point layer.

    A type-2 triple with its doubled layer i gets color (i - 1) mod 3, so
    color c touches only layers c+1 and c+2 through type-2 triples.  Type-1
    triples go round robin by their quasigroup element, which adds at most
    ceil((2k+1)/3) extra vertices per color: the span bound is
    4k + 2 + ceil((2k+1)/3).
    """
    if s.labels is None or not set(s.labels) <= {LABEL_TYPE1, LABEL_TYPE2}:
        raise MissingLabels("Bose coloring needs type1/type2 labels")
    return _layer_coloring(s, 0)


def skolem_coloring(s: TripleSystem) -> EdgeColoring:
    """Color a Skolem-labeled system with the layer its triple misses.

    Type-2 and type-3 triples use second coordinates {i, i+1} (ignoring the
    extra point), so they get color (i + 2) mod 3; type-1 triples go round
    robin.  Span bound per color: ceil(k/3) + 4k + 1.
    """
    if s.labels is None or not set(s.labels) <= {LABEL_TYPE1, LABEL_TYPE2, LABEL_TYPE3}:
        raise MissingLabels("Skolem coloring needs type1/type2/type3 labels")
    if LABEL_TYPE3 not in set(s.labels):
        raise MissingLabels("Skolem coloring needs type3 labels")
    return _layer_coloring(s, 1)


# ---------------------------------------------------------------------------
# Bicolorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bicoloring:
    """A vertex 3-coloring in which every triple sees exactly two colors."""

    system: TripleSystem
    classes: tuple[int, ...]          # per-vertex color in {1, 2, 3}
    sizes: tuple[int, ...]            # class sizes, ascending


def verify_bicoloring(ts: TripleSystem, phi) -> Bicoloring:
    """Accept phi iff no triple is monochromatic or rainbow."""
    classes = tuple(phi)
    if len(classes) != ts.n:
        raise ValueError("one class per vertex required")
    if not set(classes) <= {1, 2, 3}:
        raise ValueError("classes must be in {1, 2, 3}")
    for i, t in enumerate(ts.triples):
        distinct = len({classes[t.a], classes[t.b], classes[t.c]})
        if distinct == 1:
            raise MonochromaticTriple(i, t)
        if distinct == 3:
            raise RainbowTriple(i, t)
    sizes = tuple(sorted(classes.count(c) for c in (1, 2, 3)))
    return Bicoloring(system=ts, classes=classes, sizes=sizes)


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


def bicoloring_to_bound(bi: Bicoloring) -> tuple[HoleCertificate, int]:
    """Turn a bicoloring into a 3-part hole and the resulting mc upper bound.

    No triple sees all three classes, so truncating every class to the
    smallest class size a (keeping lowest-indexed vertices) leaves a verified
    hole; the bound is n - a, i.e. the sum of the two larger class sizes.
    """
    a = bi.sizes[0]
    if a == 0:
        raise EmptyClass("bicoloring bound needs all three classes non-empty")
    parts = tuple(frozenset([v for v, x in enumerate(bi.classes) if x == c][:a])
                  for c in (1, 2, 3))
    hole = HoleCertificate(k=3, a=a, parts=parts)
    if not verify_hole(bi.system, hole):
        raise InvalidHole("bicoloring classes do not induce a hole")
    return hole, bi.system.n - a


# ---------------------------------------------------------------------------
# Constructive decomposition of 3-colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionResult:
    case: str                                  # "L1" | "L2" | "L3"
    role_colors: tuple[int, int, int]          # colors playing (blue, red, green)
    component: frozenset[int] | None = None    # L1: the spanning component
    parts: tuple[frozenset[int], ...] | None = None   # L2/L3: (W, X, Y, Z)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failed_clause: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _select(cands: list[tuple[int, int]]) -> tuple[int, int]:
    # largest first, then lowest color, then lexicographically smallest set
    return min(cands, key=lambda item: (-item[0].bit_count(), item[1],
                                        sorted(mask_vertices(item[0]))))


def decompose_3coloring(ts: TripleSystem, c: EdgeColoring) -> DecompositionResult:
    """Decompose a 3-coloring by following maximal monochromatic components.

    Pick a containment-maximal monochromatic component B (largest, ties to
    lowest color then lexicographic).  If B spans, emit L1.  Otherwise pick a
    maximal component R in another color meeting both B and its complement U,
    and emit L2 on (B&R, B-R, U&R, U-R) when U-R is non-empty, else L3 via
    the third-color component G containing U + (B-R).  Components are
    bitmask flood fills (:func:`core.flood_components`); a spanning
    component is the largest there is, so the first color whose component
    through vertex 0 spans settles L1 before the next color is read.
    """
    n = ts.n
    if len(ts.pair_index) != n * (n - 1) // 2:
        # some pair is uncovered: name the first in lexicographic order
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in ts.pair_index:
                    raise PairUncovered(u, v)
    if c.r != 3:
        raise ValueError("decomposition needs exactly 3 colors")
    if c.system is not ts and c.system != ts:
        raise ValueError("coloring belongs to another system")
    if n <= 1:
        return DecompositionResult(case="L1", role_colors=(0, 1, 2),
                                   component=frozenset(range(n)))
    V = (1 << n) - 1
    adj = []
    for col in range(3):
        row = shadow(n, color_class(c.system.triples, c.colors, col))
        if reach(row, 1, V) == V:
            return DecompositionResult(
                case="L1", role_colors=(col, (col + 1) % 3, (col + 2) % 3),
                component=frozenset(range(n)))
        adj.append(row)
    comps_by_color = [flood_components(row, reduce(or_, row, 0)) for row in adj]
    allcomps = [(comp, col) for col in range(3) for comp in comps_by_color[col]]
    maximal = [(comp, col) for (comp, col) in allcomps
               if not any(comp != other and comp | other == other for (other, _) in allcomps)]
    B, bcol = _select(maximal)
    U = V ^ B
    crossing = [(comp, col) for (comp, col) in maximal if (comp & B) and (comp & U)]
    R, rcol = _select(crossing)
    gcol = 3 - bcol - rcol
    if U & ~R:
        parts = (B & R, B & ~R, U & R, U & ~R)
        return DecompositionResult(case="L2", role_colors=(bcol, rcol, gcol),
                                   parts=tuple(map(mask_vertices, parts)))
    seed = U | (B & ~R)
    v0 = seed & -seed
    # v0 lies on a green triple.  B-R is non-empty, else the maximal R would
    # strictly contain B.  A pair from U to B-R is covered by some triple; it
    # is not blue (U lies outside B) and not red (B-R lies outside R), so it
    # is green.
    G = reach(adj[gcol], v0, V)
    parts = (B & R & G, B & ~G, B & ~R, U)
    return DecompositionResult(case="L3", role_colors=(bcol, rcol, gcol),
                               parts=tuple(map(mask_vertices, parts)))


def verify_decomposition(ts: TripleSystem, c: EdgeColoring,
                         d: DecompositionResult) -> CheckResult:
    """Check every clause of the emitted case against the multicolored shadow.

    The shadow is read from the triples of ``ts`` with the colors of ``c``,
    as per-color bitmask adjacencies (:func:`core.shadow`); a coloring of
    another system, or a claim naming a role color outside the palette of
    ``c``, fails at once.
    """
    n = ts.n
    V = (1 << n) - 1

    def fail(clause: str) -> CheckResult:
        return CheckResult(ok=False, failed_clause=clause)

    if c.system is not ts and c.system != ts:
        return fail("coloring belongs to another system")
    if not all(col in range(c.r) for col in d.role_colors):
        return fail("role colors outside the palette")

    if d.case == "L1":
        if d.component != frozenset(range(n)):
            return fail("L1: component does not span")
        adj = shadow(n, color_class(ts.triples, c.colors, d.role_colors[0]))
        # the empty vertex set is spanned trivially
        if V and reach(adj, 1, V) != V:
            return fail("L1: component not connected in its color")
        return CheckResult(ok=True)

    if d.parts is None or len(d.parts) != 4:
        return fail("partition missing")
    W, X, Y, Z = d.parts
    blue, red, green = d.role_colors
    union = W | X | Y | Z
    if union != frozenset(range(n)) or len(W) + len(X) + len(Y) + len(Z) != n:
        return fail("parts do not partition the vertex set")
    # the parts partition range(n) from here on
    mW, mX, mY, mZ = masks = [vertex_mask(P) for P in d.parts]
    adj = [shadow(n, color_class(ts.triples, c.colors, col)) for col in range(c.r)]

    def joins(A, mB, cols) -> bool:
        # Some triple colored in cols holds a vertex of A and one of B.  A and
        # B are disjoint, so the shadow row of a vertex of A meets B only in
        # the other vertices of its triples.
        return any(adj[col][v] & mB for col in cols for v in A)

    def connected(col, S) -> bool:
        return S != 0 and reach(adj[col], S & -S, S) == S

    palette = frozenset(range(c.r))
    if d.case == "L2":
        if not (W and X and Y and Z):
            return fail("L2: all parts must be non-empty")
        for A, mB, col, name in ((W, mX, blue, "[W,X] blue"), (Y, mZ, blue, "[Y,Z] blue"),
                                 (W, mY, red, "[W,Y] red"), (X, mZ, red, "[X,Z] red"),
                                 (W, mZ, green, "[W,Z] green"), (X, mY, green, "[X,Y] green")):
            if joins(A, mB, palette - {col}):
                return fail(f"L2: {name} violated")
        for a, b, cc in ts.triples:
            t = (1 << a) | (1 << b) | (1 << cc)
            if sum(1 for m in masks if t & m) >= 3:
                return fail("L2: a triple touches three of the parts")
        return CheckResult(ok=True)

    if d.case == "L3":
        if not (X and Y and Z):
            return fail("L3: X, Y, Z must be non-empty")
        if not connected(blue, mW | mX | mY):
            return fail("L3: W+X+Y not connected in blue")
        if not connected(red, mW | mX | mZ):
            return fail("L3: W+X+Z not connected in red")
        if not connected(green, mW | mY | mZ):
            return fail("L3: W+Y+Z not connected in green")
        for A, mB, col, name in ((X, mY, blue, "[X,Y] blue"), (X, mZ, red, "[X,Z] red"),
                                 (Y, mZ, green, "[Y,Z] green")):
            if joins(A, mB, palette - {col}):
                return fail(f"L3: {name} violated")
        for A, mB, col, name in ((W, mX, green, "[W,X] has green"),
                                 (W, mY, red, "[W,Y] has red"),
                                 (W, mZ, blue, "[W,Z] has blue")):
            if joins(A, mB, {col}):
                return fail(f"L3: {name}")
        return CheckResult(ok=True)

    return fail(f"unknown case {d.case!r}")


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsRecord:
    gyarfas: int                 # ceil(2n/3) + 1, lower bound on mc_3
    alpha_upper: int             # floor(n/3) - 1, upper bound on alpha*_3
    hole_upper: int | None       # n - a
    hole_lower: int | None       # n - 2a
    z2: float                    # n/2 + (n/6) sqrt(1 + 8/n)
    z2_exceeds_gyarfas: bool     # z2 > (2n+1)/3


def closed_form_bounds(n: int, alpha_star3: int | None = None) -> BoundsRecord:
    """The desk-reference inequalities for an n-vertex system."""
    if n < 3:
        raise ValueError("bounds need n >= 3")
    z2 = n / 2 + (n / 6) * math.sqrt(1 + 8 / n)
    return BoundsRecord(
        gyarfas=-(-2 * n // 3) + 1,
        alpha_upper=n // 3 - 1,
        hole_upper=None if alpha_star3 is None else n - alpha_star3,
        hole_lower=None if alpha_star3 is None else n - 2 * alpha_star3,
        z2=z2,
        z2_exceeds_gyarfas=z2 > (2 * n + 1) / 3,
    )


def verify_z2_range(n_max: int) -> bool:
    """Check z2(n) > (2n+1)/3 for every n in [3, n_max].

    Each n is evaluated in the same float expression that
    :func:`closed_form_bounds` reports.  Over the reals the inequality
    reduces to n > 1: multiplying by 6 gives n*sqrt(1 + 8/n) > n + 2, and
    squaring gives n^2 + 8n > n^2 + 4n + 4.
    """
    sqrt = math.sqrt
    for n in range(3, n_max + 1):
        if not n / 2 + (n / 6) * sqrt(1 + 8 / n) > (2 * n + 1) / 3:
            return False
    return True


# ---------------------------------------------------------------------------
# Bicoloring growth sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CdrTerm:
    k: int
    m: int
    n: int
    r: Fraction


def cdr_sequence(k_max: int) -> list[CdrTerm]:
    """The (M_k, N_k) doubling recursion from the (24, 24, 33) base.

    M_k = M^2 + 2MN and N_k = 2M^2 + N^2 with exact integers; r_k = M_k/N_k
    is an exact rational, nondecreasing with limit 1.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    m_val, n_val = 24, 33
    out = [CdrTerm(k=0, m=m_val, n=n_val, r=Fraction(m_val, n_val))]
    for k in range(1, k_max + 1):
        m_val, n_val = m_val * m_val + 2 * m_val * n_val, 2 * m_val * m_val + n_val * n_val
        out.append(CdrTerm(k=k, m=m_val, n=n_val, r=Fraction(m_val, n_val)))
    return out
