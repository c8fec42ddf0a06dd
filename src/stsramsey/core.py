"""Data model for 3-uniform triple systems and their coloring machinery.

Vertices are dense 0-based integers.  One type, :class:`TripleSystem`,
models every system: an ordered list of sorted triples together with a pair
index (unordered vertex pair -> indices of the triples containing it).  A
Steiner triple system is a TripleSystem in which every pair lies in exactly
one triple (:func:`validate_steiner`, :func:`is_steiner`); the partial
systems of the triangle-removal process are linear: every pair lies in at
most one triple (``TripleSystem.linear``).  The explicit constructions
attach per-triple ``labels``, which equality ignores, so a labeled
construction equals the same triples read back from a file.

Connectivity is always meant through the shadow graph: two vertices are
adjacent when they share a triple, and components of one color class of an
edge coloring are components of that class's shadow graph.

Everything here is immutable after construction and safe to share between
threads; the operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence


# ---------------------------------------------------------------------------
# Errors.  All domain errors used across the package derive from StsError so
# the CLI can map failure classes to exit codes in one place.
# ---------------------------------------------------------------------------

class StsError(Exception):
    """Base class for all domain errors raised by this package."""


class VertexOutOfRange(StsError):
    pass


class DuplicateTriple(StsError):
    pass


class BadOrder(StsError):
    """Vertex count incompatible with the requested structure."""

    def __init__(self, n: int, message: str | None = None):
        self.n = n
        super().__init__(message or f"no such structure on n={n} vertices")


class PairUncovered(StsError):
    def __init__(self, u: int, v: int):
        self.pair = (u, v)
        super().__init__(f"pair ({u}, {v}) is covered by no triple")


class PairMulticovered(StsError):
    def __init__(self, u: int, v: int, count: int):
        self.pair = (u, v)
        self.count = count
        super().__init__(f"pair ({u}, {v}) is covered by {count} triples")


class MalformedCertificate(StsError):
    pass


class EvenOrder(StsError):
    pass


class OddOrder(StsError):
    pass


class NonIdempotentQuasigroup(StsError):
    pass


class NonHalfIdempotentQuasigroup(StsError):
    pass


class MissingLabels(StsError):
    """System carries no construction labels usable by the requested scheme."""


class InvalidHole(StsError):
    pass


class MonochromaticTriple(StsError):
    def __init__(self, index: int, triple: "Triple"):
        self.index = index
        self.triple = triple
        super().__init__(f"triple #{index} {tuple(triple)} is monochromatic")


class RainbowTriple(StsError):
    def __init__(self, index: int, triple: "Triple"):
        self.index = index
        self.triple = triple
        super().__init__(f"triple #{index} {tuple(triple)} sees three colors")


class EmptyClass(StsError):
    pass


class BadK(StsError):
    pass


class BadM(StsError):
    pass


class RestartsExhausted(StsError):
    pass


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

class Triple(NamedTuple):
    """A 3-element edge, stored with a < b < c."""

    a: int
    b: int
    c: int

    @classmethod
    def of(cls, x: int, y: int, z: int) -> "Triple":
        a, b, c = sorted((x, y, z))
        return cls(a, b, c)

    def as_set(self) -> frozenset[int]:
        return frozenset(self)


Pair = tuple[int, int]


@dataclass(frozen=True)
class TripleSystem:
    """A 3-uniform hypergraph on n vertices with an ordered triple list.

    ``pair_index`` maps each covered unordered pair (u, v), u < v, to the
    tuple of indices of triples containing it.  It is derived data: rebuilding
    it from ``triples`` must reproduce it exactly.  ``labels``, when present,
    tags each triple with its construction type (one label per triple, in
    triple order); equality and hashing ignore it.
    """

    n: int
    triples: tuple[Triple, ...]
    pair_index: Mapping[Pair, tuple[int, ...]] = field(compare=False, repr=False)
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    @property
    def m(self) -> int:
        return len(self.triples)

    @property
    def linear(self) -> bool:
        """True when no vertex pair lies in two triples."""
        return all(len(ix) == 1 for ix in self.pair_index.values())

    @property
    def base(self) -> "TripleSystem":
        """This system itself.

        An alias kept only for the frozen benchmark under ``bench/``, which
        reads ``.base`` on construction and sampler outputs; nothing in the
        package reads it.
        """
        return self


def _build_pair_index(triples: Sequence[Triple]) -> dict[Pair, tuple[int, ...]]:
    acc: dict[Pair, list[int]] = {}
    for i, t in enumerate(triples):
        for p in combinations(t, 2):
            acc.setdefault(p, []).append(i)
    return {p: tuple(ix) for p, ix in acc.items()}


def build_system(n: int, triples: Iterable[Iterable[int]]) -> TripleSystem:
    """Normalize raw vertex triples into a TripleSystem.

    Each listed triple must have three distinct vertices in [0, n).  Triples
    are sorted internally; listing the same triple twice is an error, but
    over-covering a *pair* with two different triples is not (validate_steiner
    rejects that later).
    """
    if n < 0:
        raise VertexOutOfRange(f"negative vertex count {n}")
    norm: list[Triple] = []
    seen: set[Triple] = set()
    for raw in triples:
        vs = tuple(raw)
        if len(vs) != 3 or len(set(vs)) != 3:
            raise VertexOutOfRange(f"not three distinct vertices: {vs!r}")
        for v in vs:
            if not (0 <= v < n):
                raise VertexOutOfRange(f"vertex {v} not in [0, {n})")
        t = Triple.of(*vs)
        if t in seen:
            raise DuplicateTriple(f"triple {tuple(t)} listed twice")
        seen.add(t)
        norm.append(t)
    tup = tuple(norm)
    return TripleSystem(n=n, triples=tup, pair_index=_build_pair_index(tup))


# Per-triple construction tags attached by the explicit constructions.
LABEL_TYPE1 = "type1"
LABEL_TYPE2 = "type2"
LABEL_TYPE3 = "type3"
LABEL_UNTYPED = "untyped"


def validate_steiner(s: TripleSystem, labels: tuple[str, ...] | None = None) -> TripleSystem:
    """Check the Steiner property: every vertex pair in exactly one triple.

    n must be congruent to 1 or 3 mod 6 (which admits the degenerate n = 3
    single-triple system).  The first violating pair, in lexicographic order,
    is reported.  Returns ``s``, or a copy of it carrying ``labels`` when
    they are given.
    """
    n = s.n
    if n % 6 not in (1, 3):
        raise BadOrder(n, f"Steiner triple systems need n = 1 or 3 (mod 6), got n={n}")
    for u in range(n):
        for v in range(u + 1, n):
            cnt = len(s.pair_index.get((u, v), ()))
            if cnt == 0:
                raise PairUncovered(u, v)
            if cnt > 1:
                raise PairMulticovered(u, v, cnt)
    if labels is not None and len(labels) != s.m:
        raise ValueError("label count differs from triple count")
    return s if labels is None else replace(s, labels=labels)


def is_steiner(s: TripleSystem) -> bool:
    """Quiet form of validate_steiner."""
    try:
        validate_steiner(s)
        return True
    except StsError:
        return False


def pair_degree_min(s: TripleSystem) -> int:
    """Minimum, over all vertex pairs, of the number of triples containing it."""
    if s.n < 2:
        raise ValueError("pair degree needs at least two vertices")
    total_pairs = s.n * (s.n - 1) // 2
    if len(s.pair_index) < total_pairs:
        return 0
    return min(len(ix) for ix in s.pair_index.values())


@dataclass(frozen=True)
class EdgeColoring:
    """An r-coloring of a system's triples (some colors may be unused)."""

    system: TripleSystem
    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("color count must be >= 1")
        if len(self.colors) != self.system.m:
            raise ValueError("one color per triple required")
        for c in self.colors:
            if not (0 <= c < self.r):
                raise ValueError(f"color {c} outside [0, {self.r})")

    def class_indices(self, color: int) -> list[int]:
        return [i for i, c in enumerate(self.colors) if c == color]


@dataclass(frozen=True)
class HoleCertificate:
    """k disjoint equal-size vertex sets no triple of the system crosses fully.

    Construction is permissive; verify_hole performs the structural checks.
    """

    k: int
    a: int
    parts: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ComponentSet:
    """Per color: the components of that color's shadow graph.

    ``spanned[c]`` is the union of the vertices of color-c triples; the
    components of color c partition exactly that set (untouched vertices do
    not appear).
    """

    components: tuple[tuple[frozenset[int], ...], ...]
    spanned: tuple[frozenset[int], ...]


def components(n: int, vertices: Iterable[int],
               edges: Iterable[Sequence[int]]) -> list[frozenset[int]]:
    """Connected components of the graph on ``vertices``, in arbitrary order.

    Vertices lie in [0, n).  Each edge (a pair, or a triple read as its
    shadow) joins all of its vertices and must lie inside ``vertices``;
    a listed vertex on no edge comes back as a singleton.  Union-find with
    path compression over a list-indexed parent.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for edge in edges:
        it = iter(edge)
        rx = find(next(it))
        for y in it:
            ry = find(y)
            if ry != rx:
                parent[ry] = rx
    groups: dict[int, set[int]] = {}
    for v in vertices:
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def mono_components(c: EdgeColoring) -> ComponentSet:
    """Connected components of each color's shadow graph."""
    triples = c.system.triples
    per_color: list[tuple[frozenset[int], ...]] = []
    spans: list[frozenset[int]] = []
    for color in range(c.r):
        class_triples = [triples[i] for i in c.class_indices(color)]
        touched = {v for t in class_triples for v in t}
        comps = sorted(components(c.system.n, touched, class_triples), key=sorted)
        per_color.append(tuple(comps))
        spans.append(frozenset(touched))
    return ComponentSet(components=tuple(per_color), spanned=tuple(spans))


def largest_mono_component(c: EdgeColoring) -> tuple[int, int, frozenset[int]]:
    """Largest component over all colors: (size, color, vertex set).

    Ties break toward the lowest color, then the lexicographically smallest
    vertex set, so the witness is reproducible.
    """
    cs = mono_components(c)
    best: tuple[int, int, frozenset[int]] | None = None
    for color, comps in enumerate(cs.components):
        for comp in comps:
            key = (-len(comp), color, sorted(comp))
            if best is None or key < (-best[0], best[1], sorted(best[2])):
                best = (len(comp), color, comp)
    if best is None:
        return (0, 0, frozenset())
    return best


def verify_hole(s: TripleSystem, h: HoleCertificate) -> bool:
    """True iff no triple of s intersects all k parts.

    Structural defects of the certificate itself (overlapping parts, unequal
    sizes, vertices that are not ints or lie outside the system) raise
    MalformedCertificate; failure of the hole property returns False.
    """
    if h.k != len(h.parts):
        raise MalformedCertificate(f"k={h.k} but {len(h.parts)} parts given")
    seen: set[int] = set()
    for part in h.parts:
        if len(part) != h.a:
            raise MalformedCertificate("parts must all have the declared size")
        if part & seen:
            raise MalformedCertificate("parts must be pairwise disjoint")
        seen |= part
        for v in part:
            if type(v) is not int:
                raise MalformedCertificate(f"vertex {v!r} is not an int")
            if not (0 <= v < s.n):
                raise MalformedCertificate(f"vertex {v} not in [0, {s.n})")
    for t in s.triples:
        ts = t.as_set()
        if all(ts & part for part in h.parts):
            return False
    return True
