"""Explicit edge colorings, bicolorings, closed-form bounds, and the
constructive decomposition of 3-colored systems.

The decomposition operates on the 3-multicolored complete shadow of a colored
system with minimum pair degree >= 1: every vertex pair carries the set of
colors of the triples containing it.  Following a largest monochromatic
component B and a largest component R that meets both B and its complement,
every 3-coloring lands in one of three cases:

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
system or the coloring.  :func:`l2_coloring` goes the other way, from an L2
partition to a coloring that realizes it.  The Bose and Skolem layer
colorings live in :mod:`constructions`, next to the encoding they read, and
stay importable from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, or_

from .constructions import bose_coloring, skolem_coloring  # re-exported
from .core import (
    EdgeColoring,
    EmptyClass,
    HoleCertificate,
    InvalidHole,
    MalformedCertificate,
    MonochromaticTriple,
    PairUncovered,
    RainbowTriple,
    TripleSystem,
    color_class,
    flood_components,
    mask_vertices,
    pair_counts,
    part_bits,
    reach,
    shadow,
    vertex_mask,
    verify_hole,
)


# ---------------------------------------------------------------------------
# Partition colorings: hole-based (one color per part it avoids) and L2
# ---------------------------------------------------------------------------

def hole_coloring(ts: TripleSystem, h: HoleCertificate) -> EdgeColoring:
    """Color each triple with the smallest part index it avoids: the lowest
    zero bit of the OR of its vertices' entries in :func:`core.part_bits`.

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
    part = part_bits(ts.n, h.parts)
    met = [part[a] | part[b] | part[c] for a, b, c in ts.triples]
    colors = tuple([(m ^ (m + 1)).bit_length() - 1 for m in met])     # lowest zero bits
    return EdgeColoring(system=ts, r=h.k, colors=colors)


def l2_coloring(ts: TripleSystem, parts) -> EdgeColoring:
    """Color each triple by the perfect matching of the parts it meets.

    ``parts`` is an L2 partition (W, X, Y, Z): four non-empty parts that
    partition the vertices, no triple meeting three of them.  Color 0 pairs
    W with X and Y with Z, color 1 pairs W with Y and X with Z, and color 2
    pairs W with Z and X with Y, the blue, red and green of case L2 of
    :func:`decompose_3coloring`.  A triple meeting parts i and j, the set
    bits of the OR of its entries in :func:`core.part_bits`, gets color
    (i ^ j) - 1, and one inside one part color 0.  Each color's components
    lie inside the two unions its matching names; in a Steiner system every
    cross pair is covered, so they are exactly those unions, and the largest
    component is the sum of the two largest parts.  Parts that do not
    partition the vertices into four, or a triple meeting three parts,
    raise ``MalformedCertificate``.
    """
    try:    # a part holding a vertex that is not an int in [0, n) gets mask 0
        masks = [vertex_mask(p) if all(type(v) is int and 0 <= v < ts.n for v in p) else 0
                 for p in parts]
    except TypeError:       # parts, or one of them, is not a collection
        masks = []
    if (len(masks) != 4 or not all(masks) or sum(m.bit_count() for m in masks) != ts.n
            or reduce(or_, masks) != (1 << ts.n) - 1):
        raise MalformedCertificate("an L2 partition needs four non-empty parts of the vertices")
    part = part_bits(ts.n, parts)
    colors = []
    for a, b, c in ts.triples:
        met = part[a] | part[b] | part[c]
        if met.bit_count() > 2:
            raise MalformedCertificate(f"triple {(a, b, c)} meets three parts")
        low = met & -met
        colors.append(0 if met == low else ((low.bit_length() - 1) ^ (met.bit_length() - 1)) - 1)
    return EdgeColoring(system=ts, r=3, colors=tuple(colors))


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
    # 1.0 and True equal 1 but are no class
    if not all(type(c) is int for c in classes):
        raise ValueError("classes must be ints")
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


def decompose_3coloring(ts: TripleSystem, c: EdgeColoring) -> DecompositionResult:
    """Decompose a 3-coloring by following its largest monochromatic components.

    Pick the first largest monochromatic component B, colors in order and each
    color's components by lowest vertex: the tie rule and the witness of
    :func:`core.largest_mono_component`.  If B spans, emit L1.  Otherwise pick
    the first largest component R meeting both B and its complement U, and
    emit L2 on (B&R, B-R, U&R, U-R) when U-R is non-empty, else L3 via the
    third-color component G containing U + (B-R).  B is containment-maximal,
    since a component strictly containing it would be larger; so is R, since a
    component strictly containing R crosses too and would be larger.  B-R is
    non-empty, else R would strictly contain B and be larger than it.
    Components are bitmask flood fills (:func:`core.flood_components`); a
    spanning component is the largest there is, so the first color whose
    component through vertex 0 spans settles L1 before the next color is read.

    On a Steiner system this bounds the largest component t of any
    3-coloring, the proof behind
    :func:`~stsramsey.search.mc3_by_decomposition`.  When t < n no color
    spans, so the case is L2 or L3:

    * L3: the X-Y pairs are blue, the X-Z pairs red and the Y-Z pairs
      green, so no triple meets X, Y and Z, and cut to the smallest of them
      they form a 3-partite hole.  W+X+Y, W+X+Z and W+Y+Z each lie in one
      component, so each of X, Y and Z has at least n - t vertices, and
      t >= n - alpha*_3.
    * L2: the four parts are non-empty and no triple meets three of them.
      Each color is one perfect matching of the parts, and its components
      are exactly the two unions the matching names (every cross pair is
      covered); a triple inside one part stays inside them.  So t is the
      sum of the two largest parts, however the one-part triples are
      colored.  The part sizes p_i satisfy 3 sum_i p_i^2 >= n^2 + 2n: the
      triple through a pair of vertices in two different parts has its
      third vertex in one of those two parts, so it holds two such cross
      pairs and one pair inside a part, and no pair lies in two triples.
      The cross pairs thus number at most twice the inside pairs,
      (n^2 - sum_i p_i^2) / 2 <= sum_i p_i (p_i - 1).  On every admissible
      n from 9 to 199 this keeps t at or above the Gyarfas bound
      ceil(2n/3) + 1 = n - (floor(n/3) - 1), so when alpha*_3 is at its
      cap floor(n/3) - 1 no L2 coloring beats the hole coloring.
    """
    n = ts.n
    if ts.pair_count != n * (n - 1) // 2:
        # some pair is uncovered: name the first in lexicographic order
        counts = pair_counts(ts)
        for u in range(n):
            for v in range(u + 1, n):
                if u * n + v not in counts:
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
    # max keeps the first of equal sizes
    comps = [(comp.bit_count(), comp, col) for col, row in enumerate(adj)
             for comp in flood_components(row, reduce(or_, row, 0))]
    _, B, bcol = max(comps, key=itemgetter(0))
    U = V ^ B
    _, R, rcol = max((item for item in comps if item[1] & B and item[1] & U), key=itemgetter(0))
    gcol = 3 - bcol - rcol
    if U & ~R:
        parts = (B & R, B & ~R, U & R, U & ~R)
        return DecompositionResult(case="L2", role_colors=(bcol, rcol, gcol),
                                   parts=tuple(map(mask_vertices, parts)))
    seed = U | (B & ~R)
    v0 = seed & -seed
    # v0 lies on a green triple.  B-R is non-empty, else R would strictly
    # contain B and be larger than it.  A pair from U to B-R is covered by
    # some triple; it is not blue (U lies outside B) and not red (B-R lies
    # outside R), so it is green.
    G = reach(adj[gcol], v0, V)
    parts = (B & R & G, B & ~G, B & ~R, U)
    return DecompositionResult(case="L3", role_colors=(bcol, rcol, gcol),
                               parts=tuple(map(mask_vertices, parts)))


def verify_decomposition(ts: TripleSystem, c: EdgeColoring,
                         d: DecompositionResult) -> CheckResult:
    """Check every clause of the emitted case against the multicolored shadow.

    The shadow is read from the triples of ``ts`` with the colors of ``c``,
    as per-color bitmask adjacencies (:func:`core.shadow`); a coloring of
    another system, or a claim whose role colors are not three distinct
    ints of the palette of ``c`` (a bool is no color) or whose parts are not
    four sets of int vertices, fails at once.
    """
    n = ts.n
    V = (1 << n) - 1

    def fail(clause: str) -> CheckResult:
        return CheckResult(ok=False, failed_clause=clause)

    if c.system is not ts and c.system != ts:
        return fail("coloring belongs to another system")
    roles = d.role_colors
    if (not isinstance(roles, (tuple, list)) or len(roles) != 3
            or any(type(col) is not int for col in roles) or len(set(roles)) != 3):
        return fail("role colors are not three distinct int colors")
    if not all(0 <= col < c.r for col in roles):
        return fail("role colors outside the palette")

    if d.case == "L1":
        if d.component != frozenset(range(n)):
            return fail("L1: component does not span")
        adj = shadow(n, color_class(ts.triples, c.colors, roles[0]))
        # the empty vertex set is spanned trivially
        if V and reach(adj, 1, V) != V:
            return fail("L1: component not connected in its color")
        return CheckResult(ok=True)

    if not isinstance(d.parts, (tuple, list)) or len(d.parts) != 4:
        return fail("partition missing")
    if not all(isinstance(P, (set, frozenset)) for P in d.parts):
        return fail("parts are not vertex sets")
    W, X, Y, Z = d.parts
    blue, red, green = roles
    union = W | X | Y | Z
    if union != frozenset(range(n)) or len(W) + len(X) + len(Y) + len(Z) != n:
        return fail("parts do not partition the vertex set")
    # the parts partition range(n) from here on, but 8.0 passes for 8
    try:
        mW, mX, mY, mZ = [vertex_mask(P) for P in d.parts]
    except TypeError:
        return fail("parts hold a vertex that is not an int")
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
        part = part_bits(n, d.parts)
        for a, b, cc in ts.triples:
            if (part[a] | part[b] | part[cc]).bit_count() >= 3:
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
    if type(n) is not int:
        raise ValueError(f"bounds need an int n, got {n!r}")
    if n < 3:
        raise ValueError("bounds need n >= 3")
    if alpha_star3 is not None and type(alpha_star3) is not int:
        raise ValueError(f"bounds need an int alpha_star3, got {alpha_star3!r}")
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
    if type(k_max) is not int:
        raise ValueError(f"k_max must be an int, got {k_max!r}")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    m_val, n_val = 24, 33
    out = [CdrTerm(k=0, m=m_val, n=n_val, r=Fraction(m_val, n_val))]
    for k in range(1, k_max + 1):
        m_val, n_val = m_val * m_val + 2 * m_val * n_val, 2 * m_val * m_val + n_val * n_val
        out.append(CdrTerm(k=k, m=m_val, n=n_val, r=Fraction(m_val, n_val)))
    return out
