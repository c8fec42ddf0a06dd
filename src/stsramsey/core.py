"""Data model for 3-uniform triple systems and their coloring machinery.

Vertices are dense 0-based integers.  One type, :class:`TripleSystem`,
models every system: an ordered list of sorted triples.  Its constructor
checks and sorts them, so however a system is built, it holds them the same
way.  The one thing it caches is its number of covered pairs
(``pair_count``).  Per-pair tables are built by the call that reads them
(:func:`pair_counts`) and dropped with it.  A Steiner triple system is a
TripleSystem in which every pair lies in exactly one triple
(:func:`validate_steiner`, :func:`is_steiner`); the partial systems of the
triangle-removal process are linear: every pair lies in at most one triple
(``TripleSystem.linear``).  The Bose and Skolem constructions attach
per-triple ``labels``, which equality ignores; they are written only for
the frozen benchmark under ``bench/``, and nothing in the package reads
them beyond their count.  No Bose/Skolem arithmetic lives here: the
layer encoding, its colorings and its group are in :mod:`constructions`.

Connectivity is always meant through the shadow graph: two vertices are
adjacent when they share a triple, and components of one color class of an
edge coloring are components of that class's shadow graph.  One bitmask
kernel answers every static component question: :func:`shadow` gives each
vertex the mask of its shadow neighbors, and :func:`reach` and
:func:`flood_components` flood-fill those masks inside a vertex mask.  Hole
and partition checks likewise test triple masks against part masks
(:func:`vertex_mask`).

Everything here is immutable after construction and safe to share between
threads; the operations are pure functions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence


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


class MissingLabels(StsError):
    """The system matches no Bose/Skolem layer pattern the scheme needs."""


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


class BudgetExhausted(StsError):
    """A search that has no partial answer to report ran out of budget."""


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

class Triple(NamedTuple):
    """A 3-element edge, a < b < c in every triple of a :class:`TripleSystem`."""

    a: int
    b: int
    c: int


@dataclass(frozen=True)
class TripleSystem:
    """A 3-uniform hypergraph on n vertices with an ordered triple list.

    The constructor checks the triples and stores each one sorted, as a
    ``Triple``, in the order listed; :func:`build_system` is the same call.
    ``n`` and each vertex must be an ``int``, not a ``bool`` (what the file
    format can hold), and each triple three distinct vertices in [0, n).
    Listing a triple twice is an error, but covering a *pair* twice is not
    (validate_steiner rejects that); the first bad triple is reported.

    ``pair_count`` is the number of distinct vertex pairs that lie in some
    triple.  It is derived from ``triples`` on first use and cached, so it
    cannot disagree with them.  It is the only cache, one int: no per-pair
    table outlives the call that builds it.  ``labels``, when present, tags
    each triple with its construction type (one label per triple, in triple
    order, else ``ValueError``); equality and hashing ignore it, and it is
    kept only for the frozen benchmark under ``bench/``, like ``base``.
    """

    n: int
    triples: tuple[Triple, ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        n = self.n
        if type(n) is not int:
            raise VertexOutOfRange(f"vertex count {n!r} is not an int")
        if n < 0:
            raise VertexOutOfRange(f"negative vertex count {n}")
        norm: list[Triple] = []
        seen: set[Triple] = set()
        for raw in self.triples:
            vs = tuple(raw)
            if len(vs) == 3:
                a, b, c = vs
                if type(a) is int and type(b) is int and type(c) is int:
                    if a > b:
                        a, b = b, a
                    if b > c:
                        b, c = c, b
                        if a > b:
                            a, b = b, a
                    t = tuple.__new__(Triple, (a, b, c))  # skips Triple's Python __new__
                    if 0 <= a < b < c < n and t not in seen:
                        seen.add(t)
                        norm.append(t)
                        continue
            # count() tests equality as set() does, but needs no hash
            if len(vs) != 3 or any(vs.count(v) != 1 for v in vs):
                raise VertexOutOfRange(f"not three distinct vertices: {vs!r}")
            for v in vs:
                if type(v) is int and not (0 <= v < n):
                    raise VertexOutOfRange(f"vertex {v} not in [0, {n})")
            for v in vs:
                if type(v) is not int:
                    raise VertexOutOfRange(f"vertex {v!r} is not an int")
            raise DuplicateTriple(f"triple {tuple(t)} listed twice")
        labels = vars(self)["labels"]   # counted, never read for a type
        if labels is not None and len(labels) != len(norm):
            raise ValueError("label count differs from triple count")
        object.__setattr__(self, "triples", tuple(norm))

    @cached_property
    def pair_count(self) -> int:
        """The number of distinct vertex pairs covered by some triple."""
        return len(set(_pair_codes(self)))

    @property
    def m(self) -> int:
        return len(self.triples)

    @property
    def linear(self) -> bool:
        """True when no vertex pair lies in two triples.

        Each triple covers three distinct pairs, so they are distinct over
        the whole system exactly when there are 3m of them.
        """
        return self.pair_count == 3 * self.m

    @property
    def base(self) -> "TripleSystem":
        """This system itself.

        An alias kept only for the frozen benchmark under ``bench/``, which
        reads ``.base`` on construction and sampler outputs; nothing in the
        package reads it.
        """
        return self


def _pair_codes(s: TripleSystem) -> Iterator[int]:
    """The code u*n + v, u < v, of each pair of each triple (sorted on construction)."""
    n = s.n
    for a, b, c in s.triples:
        yield a * n + b
        yield a * n + c
        yield b * n + c


def pair_counts(s: TripleSystem) -> Counter[int]:
    """How many triples hold each covered pair (u, v), u < v, keyed u*n + v."""
    return Counter(_pair_codes(s))


def build_system(n: int, triples: Iterable[Iterable[int]]) -> TripleSystem:
    """The system on n vertices with these triples: ``TripleSystem(n, triples)``."""
    return TripleSystem(n, triples)


def validate_steiner(s: TripleSystem, labels: tuple[str, ...] | None = None) -> TripleSystem:
    """Check the Steiner property: every vertex pair in exactly one triple.

    n must be congruent to 1 or 3 mod 6 (which admits the degenerate n = 3
    single-triple system).  The first violating pair, in lexicographic order,
    is reported.  Returns ``s``, or a copy of it carrying ``labels`` when
    they are given.

    The pairs are scanned only to name a violation, when :func:`is_steiner`
    fails.
    """
    n = s.n
    if n % 6 not in (1, 3):
        raise BadOrder(n, f"Steiner triple systems need n = 1 or 3 (mod 6), got n={n}")
    if not is_steiner(s):
        counts = pair_counts(s)
        for u in range(n):
            for v in range(u + 1, n):
                cnt = counts[u * n + v]
                if cnt == 0:
                    raise PairUncovered(u, v)
                if cnt > 1:
                    raise PairMulticovered(u, v, cnt)
    if labels is None:
        return s
    if len(labels) != s.m:
        raise ValueError("label count differs from triple count")
    # the copy takes s's checked triples and the pair count just cached,
    # so the constructor does not run again
    labelled = object.__new__(TripleSystem)
    labelled.__dict__.update(s.__dict__, labels=labels)
    return labelled


def is_steiner(s: TripleSystem) -> bool:
    """Whether every vertex pair lies in exactly one triple, n = 1 or 3 (mod 6).

    Each triple of a system covers three distinct pairs (its constructor
    checks that), so all n(n-1)/2 pairs covered, with 3m equal to that
    count, means each pair is covered exactly once.  The count 3m is
    compared first, so a system with the wrong number of triples never
    counts its pairs.
    """
    n = s.n
    return n % 6 in (1, 3) and 3 * s.m == n * (n - 1) // 2 == s.pair_count


@dataclass(frozen=True)
class EdgeColoring:
    """An r-coloring of a system's triples (some colors may be unused).

    ``r`` and each color are ints, not bools, and colors lie in [0, r).
    """

    system: TripleSystem
    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        r = self.r
        if type(r) is not int or r < 1:
            raise ValueError(f"color count {r!r} is not an int >= 1")
        if len(self.colors) != self.system.m:
            raise ValueError("one color per triple required")
        for c in self.colors:
            if type(c) is not int or not (0 <= c < r):
                raise ValueError(f"color {c!r} is not an int in [0, {r})")


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


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask with bit v set for each listed vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_vertices(mask: int) -> frozenset[int]:
    """The vertices whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def shadow(n: int, triples: Iterable[Triple]) -> list[int]:
    """The shadow adjacency of ``triples`` on n vertices, as bitmasks.

    ``adj[v]`` is the OR of the vertex masks of v's triples: v's shadow
    neighbors plus v itself, or 0 when v lies on none of them.
    """
    bits = [1 << v for v in range(n)]
    adj = [0] * n
    for a, b, c in triples:
        t = bits[a] | bits[b] | bits[c]
        adj[a] |= t
        adj[b] |= t
        adj[c] |= t
    return adj


def color_class(triples: Sequence[Triple], colors: Sequence[int], color: int) -> list[Triple]:
    """The triples whose color is ``color``, in triple order."""
    return [t for t, col in zip(triples, colors) if col == color]


def reach(adj: Sequence[int], seed: int, within: int) -> int:
    """The vertices of ``within`` joined to ``seed`` by paths inside ``within``.

    ``adj`` is one color's shadow adjacency (see :func:`shadow`) and
    ``seed`` a non-empty subset of ``within``; a flood fill over bitmasks.
    """
    comp = frontier = seed
    rest = within & ~seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grown = adj[low.bit_length() - 1] & rest
        if grown:
            rest ^= grown
            comp |= grown
            frontier |= grown
    return comp


def flood_components(adj: Sequence[int], within: int) -> list[int]:
    """Components of one color's shadow graph restricted to ``within``.

    Each component is a bitmask; they come in the order of their lowest
    vertex.  A vertex of ``within`` on no edge inside it is a singleton.
    """
    comps = []
    while within:
        comp = reach(adj, within & -within, within)
        comps.append(comp)
        within ^= comp
    return comps


def _color_components(c: EdgeColoring) -> list[list[int]]:
    # per color, the components of its shadow graph on the vertices it spans
    out = []
    for col in range(c.r):
        adj = shadow(c.system.n, color_class(c.system.triples, c.colors, col))
        out.append(flood_components(adj, reduce(or_, adj, 0)))
    return out


def mono_components(c: EdgeColoring) -> ComponentSet:
    """Connected components of each color's shadow graph.

    Within a color the components are disjoint, and they are listed in the
    order of their lowest vertex, which is their lexicographic order as
    sorted vertex lists.
    """
    per_color = [tuple(mask_vertices(m) for m in comps) for comps in _color_components(c)]
    return ComponentSet(components=tuple(per_color),
                        spanned=tuple(frozenset().union(*comps) for comps in per_color))


def largest_mono_component(c: EdgeColoring) -> tuple[int, int, frozenset[int]]:
    """Largest component over all colors: (size, color, vertex set).

    Ties break toward the lowest color, then the lexicographically smallest
    vertex set, so the witness is reproducible.  Components of one color are
    disjoint and come in lexicographic order, so the first largest one seen
    is the witness.
    """
    size, color, best = 0, 0, 0
    for col, comps in enumerate(_color_components(c)):
        for comp in comps:
            k = comp.bit_count()
            if k > size:
                size, color, best = k, col, comp
    return (size, color, mask_vertices(best))


def verify_hole(s: TripleSystem, h: HoleCertificate) -> bool:
    """True iff no triple of s intersects all k parts.

    Structural defects of the certificate itself (k or a not an int, parts
    not given as a tuple or list, parts that are not sets or overlap,
    unequal sizes, vertices that are not ints or lie outside the system)
    raise MalformedCertificate; failure of the hole property returns False.
    """
    for name, value in (("k", h.k), ("a", h.a)):
        if type(value) is not int:
            raise MalformedCertificate(f"{name} {value!r} is not an int")
    if not isinstance(h.parts, (tuple, list)):
        raise MalformedCertificate(f"parts {h.parts!r} is not a tuple or list")
    if h.k != len(h.parts):
        raise MalformedCertificate(f"k={h.k} but {len(h.parts)} parts given")
    seen: set[int] = set()
    for part in h.parts:
        if not isinstance(part, (set, frozenset)):
            raise MalformedCertificate(f"part {part!r} is not a set")
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
    masks = [vertex_mask(part) for part in h.parts]
    for a, b, c in s.triples:
        t = (1 << a) | (1 << b) | (1 << c)
        for m in masks:
            if not t & m:
                break
        else:
            return False
    return True
