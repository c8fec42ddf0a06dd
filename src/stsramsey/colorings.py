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
randomized tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import (
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
    components,
    verify_hole,
)


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
    colors = []
    for t in ts.triples:
        vs = t.as_set()
        for i, part in enumerate(h.parts):
            if not (vs & part):
                colors.append(i)
                break
    return EdgeColoring(system=ts, r=h.k, colors=tuple(colors))


# ---------------------------------------------------------------------------
# Construction colorings
# ---------------------------------------------------------------------------

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
    colors = []
    for t, lab in zip(s.triples, s.labels):
        if lab == LABEL_TYPE1:
            colors.append((t.a // 3) % 3)
        else:
            layers = [v % 3 for v in t]
            doubled = [i for i in range(3) if layers.count(i) == 2]
            if not doubled:
                raise MissingLabels(f"triple {tuple(t)} labeled type2 has no doubled layer")
            colors.append((doubled[0] - 1) % 3)
    return EdgeColoring(system=s, r=3, colors=tuple(colors))


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
    colors = []
    for t, lab in zip(s.triples, s.labels):
        if lab == LABEL_TYPE1:
            colors.append(((t.a - 1) // 3) % 3)
            continue
        layers = sorted({(v - 1) % 3 for v in t if v != 0})
        if layers == [0, 1]:
            missing = 2
        elif layers == [1, 2]:
            missing = 0
        else:  # [0, 2]: the pair is {2, 0} = {i, i+1} for i = 2
            missing = 1
        colors.append(missing)
    return EdgeColoring(system=s, r=3, colors=tuple(colors))


# ---------------------------------------------------------------------------
# Bicolorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bicoloring:
    """A vertex 3-coloring in which every triple sees exactly two colors."""

    system: TripleSystem
    classes: tuple[int, ...]          # per-vertex color in {1, 2, 3}
    sizes: tuple[int, ...]            # class sizes, ascending

    def class_vertices(self, color: int) -> list[int]:
        return [v for v, c in enumerate(self.classes) if c == color]


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


def bicoloring_search(ts: TripleSystem) -> Bicoloring | None:
    """First bicoloring in lexicographic order, or None.

    Vertex 0 is pinned to color 1 (colors are interchangeable).  For systems
    on more than 3 vertices all three classes must be non-empty; the
    degenerate 3-vertex system is allowed an empty class.  Intended for
    n <= 15.
    """
    n = ts.n
    require_nonempty = n > 3
    by_max: list[list[int]] = [[] for _ in range(n)]
    for i, t in enumerate(ts.triples):
        by_max[t.c].append(i)
    classes = [0] * n

    def bt(v: int) -> bool:
        if v == n:
            return (not require_nonempty) or all(c in classes for c in (1, 2, 3))
        if require_nonempty:
            missing = sum(1 for c in (1, 2, 3) if c not in classes[:v])
            if n - v < missing:
                return False
        choices = (1,) if v == 0 else (1, 2, 3)
        for c in choices:
            classes[v] = c
            ok = True
            for i in by_max[v]:
                t = ts.triples[i]
                distinct = len({classes[t.a], classes[t.b], classes[t.c]})
                if distinct != 2:
                    ok = False
                    break
            if ok and bt(v + 1):
                return True
            classes[v] = 0
        return False

    if bt(0):
        return verify_bicoloring(ts, tuple(classes))
    return None


def bicoloring_to_bound(bi: Bicoloring) -> tuple[HoleCertificate, int]:
    """Turn a bicoloring into a 3-part hole and the resulting mc upper bound.

    No triple sees all three classes, so truncating every class to the
    smallest class size a (keeping lowest-indexed vertices) leaves a verified
    hole; the bound is n - a, i.e. the sum of the two larger class sizes.
    """
    sizes_by_color = [bi.classes.count(c) for c in (1, 2, 3)]
    if min(sizes_by_color) == 0:
        raise EmptyClass("bicoloring bound needs all three classes non-empty")
    a = min(sizes_by_color)
    parts = tuple(frozenset(bi.class_vertices(c)[:a]) for c in (1, 2, 3))
    hole = HoleCertificate(k=3, a=a, parts=parts)
    if not verify_hole(bi.system, hole):
        raise InvalidHole("bicoloring classes do not induce a hole")
    return hole, bi.system.n - a


# ---------------------------------------------------------------------------
# Constructive decomposition of 3-colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class T2Partition:
    """Four vertex sets, sizes descending, no triple touching three of them."""

    sets: tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class DecompositionResult:
    case: str                                  # "L1" | "L2" | "L3"
    role_colors: tuple[int, int, int]          # colors playing (blue, red, green)
    component: frozenset[int] | None = None    # L1: the spanning component
    parts: tuple[frozenset[int], ...] | None = None   # L2/L3: (W, X, Y, Z)
    summary: tuple[str, ...] = ()

    def t2_partition(self) -> T2Partition:
        if self.case != "L2" or self.parts is None:
            raise ValueError("only the L2 case induces a four-set partition")
        ordered = sorted(self.parts, key=lambda p: (-len(p), sorted(p)))
        return T2Partition(sets=(ordered[0], ordered[1], ordered[2], ordered[3]))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failed_clause: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _pair_colorsets(ts: TripleSystem, c: EdgeColoring) -> dict[tuple[int, int], set[int]]:
    pc: dict[tuple[int, int], set[int]] = {}
    for t, col in zip(ts.triples, c.colors):
        for p in combinations(t, 2):
            pc.setdefault(p, set()).add(col)
    return pc


def _select(cands: list[tuple[frozenset[int], int]]) -> tuple[frozenset[int], int]:
    # largest first, then lowest color, then lexicographically smallest set
    return min(cands, key=lambda item: (-len(item[0]), item[1], sorted(item[0])))


def decompose_3coloring(ts: TripleSystem, c: EdgeColoring) -> DecompositionResult:
    """Decompose a 3-coloring by following maximal monochromatic components.

    Pick a containment-maximal monochromatic component B (largest, ties to
    lowest color then lexicographic).  If B spans, emit L1.  Otherwise pick a
    maximal component R in another color meeting both B and its complement U,
    and emit L2 on (B&R, B-R, U&R, U-R) when U-R is non-empty, else L3 via
    the third-color component G containing U + (B-R).
    """
    for u in range(ts.n):
        for v in range(u + 1, ts.n):
            if (u, v) not in ts.pair_index:
                raise PairUncovered(u, v)
    if c.r != 3:
        raise ValueError("decomposition needs exactly 3 colors")
    n = ts.n
    if n <= 1:
        return DecompositionResult(case="L1", role_colors=(0, 1, 2),
                                   component=frozenset(range(n)),
                                   summary=("trivial system",))
    pc = _pair_colorsets(ts, c)
    # components of each color of the multicolored shadow, singletons included
    comps_by_color = {col: components(n, range(n), [p for p, cs in pc.items() if col in cs])
                      for col in range(3)}
    allcomps = [(comp, col) for col in range(3) for comp in comps_by_color[col]
                if len(comp) >= 2]
    maximal = [(comp, col) for (comp, col) in allcomps
               if not any(comp < other for (other, _) in allcomps)]
    B, bcol = _select(maximal)
    V = frozenset(range(n))
    if B == V:
        return DecompositionResult(
            case="L1", role_colors=(bcol, (bcol + 1) % 3, (bcol + 2) % 3),
            component=B, summary=(f"color {bcol} has a spanning component",))
    U = V - B
    crossing = [(comp, col) for (comp, col) in maximal if (comp & B) and (comp & U)]
    R, rcol = _select(crossing)
    gcol = 3 - bcol - rcol
    if U - R:
        W, X, Y, Z = B & R, B - R, U & R, U - R
        return DecompositionResult(
            case="L2", role_colors=(bcol, rcol, gcol), parts=(W, X, Y, Z),
            summary=(f"blue={bcol} red={rcol} green={gcol}",
                     "cross classes forced; no triple touches three parts"))
    seed = U | (B - R)
    v0 = min(seed)
    G = next(comp for comp in comps_by_color[gcol] if v0 in comp)
    W, X, Y, Z = B & R & G, B - G, B - R, U
    return DecompositionResult(
        case="L3", role_colors=(bcol, rcol, gcol), parts=(W, X, Y, Z),
        summary=(f"blue={bcol} red={rcol} green={gcol}",
                 "W+X+Y, W+X+Z, W+Y+Z connected in blue, red, green"))


def _only_color(pc, A, B, col) -> bool:
    for u in A:
        for v in B:
            p = (u, v) if u < v else (v, u)
            if not (pc.get(p, set()) <= {col}):
                return False
    return True


def _never_color(pc, A, B, col) -> bool:
    for u in A:
        for v in B:
            p = (u, v) if u < v else (v, u)
            if col in pc.get(p, set()):
                return False
    return True


def _connected_induced(n, pc, col, S: frozenset[int]) -> bool:
    edges = [p for p in combinations(sorted(S), 2) if col in pc.get(p, ())]
    return len(components(n, S, edges)) == 1


def verify_decomposition(ts: TripleSystem, c: EdgeColoring,
                         d: DecompositionResult) -> CheckResult:
    """Check every clause of the emitted case against the multicolored shadow."""
    n = ts.n
    pc = _pair_colorsets(ts, c)

    def fail(clause: str) -> CheckResult:
        return CheckResult(ok=False, failed_clause=clause)

    if d.case == "L1":
        if d.component != frozenset(range(n)):
            return fail("L1: component does not span")
        if not _connected_induced(n, pc, d.role_colors[0], d.component):
            return fail("L1: component not connected in its color")
        return CheckResult(ok=True)

    if d.parts is None or len(d.parts) != 4:
        return fail("partition missing")
    W, X, Y, Z = d.parts
    blue, red, green = d.role_colors
    union = W | X | Y | Z
    if union != frozenset(range(n)) or len(W) + len(X) + len(Y) + len(Z) != n:
        return fail("parts do not partition the vertex set")

    if d.case == "L2":
        if not (W and X and Y and Z):
            return fail("L2: all parts must be non-empty")
        for A, Bs, col, name in ((W, X, blue, "[W,X] blue"), (Y, Z, blue, "[Y,Z] blue"),
                                 (W, Y, red, "[W,Y] red"), (X, Z, red, "[X,Z] red"),
                                 (W, Z, green, "[W,Z] green"), (X, Y, green, "[X,Y] green")):
            if not _only_color(pc, A, Bs, col):
                return fail(f"L2: {name} violated")
        for t in ts.triples:
            vs = t.as_set()
            if sum(1 for P in (W, X, Y, Z) if vs & P) >= 3:
                return fail("L2: a triple touches three of the parts")
        return CheckResult(ok=True)

    if d.case == "L3":
        if not (X and Y and Z):
            return fail("L3: X, Y, Z must be non-empty")
        if not _connected_induced(n, pc, blue, W | X | Y):
            return fail("L3: W+X+Y not connected in blue")
        if not _connected_induced(n, pc, red, W | X | Z):
            return fail("L3: W+X+Z not connected in red")
        if not _connected_induced(n, pc, green, W | Y | Z):
            return fail("L3: W+Y+Z not connected in green")
        for A, Bs, col, name in ((X, Y, blue, "[X,Y] blue"), (X, Z, red, "[X,Z] red"),
                                 (Y, Z, green, "[Y,Z] green")):
            if not _only_color(pc, A, Bs, col):
                return fail(f"L3: {name} violated")
        for A, Bs, col, name in ((W, X, green, "[W,X] has green"),
                                 (W, Y, red, "[W,Y] has red"),
                                 (W, Z, blue, "[W,Z] has blue")):
            if not _never_color(pc, A, Bs, col):
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


def verify_z2_range(n_max: int, n_min: int = 3) -> bool:
    """Check z2(n) > (2n+1)/3 for every n in [n_min, n_max].

    Each n is evaluated in the same float expression that
    :func:`closed_form_bounds` reports.  Over the reals the inequality
    reduces to n > 1: multiplying by 6 gives n*sqrt(1 + 8/n) > n + 2, and
    squaring gives n^2 + 8n > n^2 + 4n + 4.
    """
    sqrt = math.sqrt
    for n in range(n_min, n_max + 1):
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
