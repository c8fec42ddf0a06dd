"""Bose and Skolem triple systems from closed-form quasigroups, their layer
colorings and layer group; the 7- and 9-point systems.

Vertex encodings are part of the public contract so certificates stay
portable:

* Bose on n = 6k+3 vertices: point (a, i) of Q x {0,1,2} is vertex 3a + i.
* Skolem on n = 6k+1 vertices: the extra point is vertex 0 and (a, i) is
  vertex 1 + 3a + i.

This module alone decodes that layer encoding.  One pattern pass matches
every triple of a bare system against the Bose or Skolem pattern and
yields its type (``type1``/``type2``/``type3``) and its layer color:
:func:`infer_labels` attaches the types, and :func:`bose_coloring` and
:func:`skolem_coloring` return the colors, so a coloring is a function of
the triples alone.  :func:`layer_automorphisms` gives the group of the
encoding that the hole search bans orbits with.  The constructions still
attach the types as ``labels`` for the frozen benchmark; nothing in the
package reads them.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Callable

from .core import (
    BadOrder,
    EdgeColoring,
    MissingLabels,
    TripleSystem,
    build_system,
    validate_steiner,
)

# Per-triple construction tags, written for the frozen benchmark under bench/.
LABEL_TYPE1 = "type1"
LABEL_TYPE2 = "type2"
LABEL_TYPE3 = "type3"


def _bose_product(q: int) -> Callable[[int, int], int]:
    """The commutative idempotent quasigroup a*b = (a+b)/2 on Z_q, q odd.

    Halving is multiplication by (q+1)/2, the inverse of 2 mod q; this works
    for every odd q, prime or not.
    """
    h = (q + 1) // 2
    return lambda a, b: h * (a + b) % q


def _skolem_product(q: int) -> Callable[[int, int], int]:
    """A commutative half-idempotent quasigroup on Z_q, q = 2k even.

    a*b = d((a+b) mod 2k) relabels the cyclic group by d(2j) = j,
    d(2j+1) = k+j, so the diagonal reads 0..k-1 twice.
    """
    k = q // 2
    return lambda a, b: (a + b) % q // 2 + k * ((a + b) % 2)


def _latin_triples(q: int, mul: Callable[[int, int], int],
                   off: int) -> list[tuple[int, int, int]]:
    """{(a,i), (b,i), (a*b, i+1 mod 3)} for a < b, point (a, i) at vertex off + 3a + i."""
    return [(off + 3 * a + i, off + 3 * b + i, off + 3 * mul(a, b) + (i + 1) % 3)
            for a in range(q) for b in range(a + 1, q) for i in range(3)]


def bose(n: int) -> TripleSystem:
    """Bose construction on n = 6k+3 vertices, over the quasigroup of
    :func:`_bose_product` on q = n/3 cells.

    Type 1 triples bundle the three copies of each cell; type 2 triples are
    {(a,i), (b,i), (a*b, i+1 mod 3)} for a < b, with a*b = (q+1)/2 * (a+b)
    mod q.
    """
    if type(n) is not int or n % 6 != 3 or n < 9:
        raise BadOrder(n, f"Bose construction needs n = 3 (mod 6), n >= 9; got {n}")
    q = n // 3
    type1 = [(3 * a, 3 * a + 1, 3 * a + 2) for a in range(q)]
    type2 = _latin_triples(q, _bose_product(q), 0)
    labels = (LABEL_TYPE1,) * len(type1) + (LABEL_TYPE2,) * len(type2)
    return validate_steiner(build_system(n, type1 + type2), labels=labels)


def skolem(n: int) -> TripleSystem:
    """Skolem construction on n = 6k+1 vertices.

    Type 2 here is {inf, (k+a, i), (a, i+1 mod 3)} for 0 <= a < k.  The other
    published shape of this family of triples does not cover the pairs at
    inf (see the accompanying tests); this is the form that validates.
    Type 3 is {(a,i), (b,i), (a*b, i+1 mod 3)} for a < b over the 2k cells of
    :func:`_skolem_product`: a*b = d((a+b) mod 2k), d(2j) = j, d(2j+1) = k+j.
    """
    if type(n) is not int or n % 6 != 1 or n < 7:
        raise BadOrder(n, f"Skolem construction needs n = 1 (mod 6), n >= 7; got {n}")
    k = n // 6

    # the extra point inf is vertex 0
    type1 = [(1 + 3 * a, 2 + 3 * a, 3 + 3 * a) for a in range(k)]
    type2 = [(0, 1 + 3 * (k + a) + i, 1 + 3 * a + (i + 1) % 3)
             for a in range(k) for i in range(3)]
    type3 = _latin_triples(2 * k, _skolem_product(2 * k), 1)
    labels = ((LABEL_TYPE1,) * len(type1) + (LABEL_TYPE2,) * len(type2)
              + (LABEL_TYPE3,) * len(type3))
    return validate_steiner(build_system(n, type1 + type2 + type3), labels=labels)


def fano() -> TripleSystem:
    """The 7-point system with lines {i, i+1, i+3} mod 7."""
    triples = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    return validate_steiner(build_system(7, triples))


def s9() -> TripleSystem:
    """The 9-point system: lines of the affine plane of order 3."""
    lines = []
    for slope in range(3):
        for b in range(3):
            lines.append(tuple(3 * x + (slope * x + b) % 3 for x in range(3)))
    for a in range(3):
        lines.append((3 * a, 3 * a + 1, 3 * a + 2))
    return validate_steiner(build_system(9, lines))




# ---------------------------------------------------------------------------
# The layer encoding.  System files carry no labels, so the triple types,
# the layer colors and the layer group are read off the triples.
# ---------------------------------------------------------------------------

def _latin_missed(layers: tuple[int, int, int]) -> int | None:
    """The layer i+2 mod 3 that a Latin triple {(a,i), (b,i), (c,i+1)} with
    these layers misses; None for layers of any other shape."""
    layers = sorted(layers)
    # the doubled layer i, then i+1: i = 0, 1 and 2 (where i+1 = 0 sorts first)
    if layers in ([0, 0, 1], [1, 1, 2], [0, 2, 2]):
        return 3 - layers[0] - layers[2]
    return None


# indexed by the layers of a triple's vertices, in vertex order, as base-3 digits
_LATIN_MISSES = tuple(map(_latin_missed, product(range(3), repeat=3)))


def _layer_pass(ts: TripleSystem) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Match every triple against the Bose or Skolem pattern of its order.

    Point (a, i) is vertex off + 3a + i, off = 0 for Bose and 1 for Skolem,
    whose extra point, vertex 0, lies in no layer.  Returns each triple's
    type and its layer color: a type-1 triple {(a,0), (a,1), (a,2)} gets
    a mod 3, and every other triple meets two layers and gets the third.
    The first triple that matches no pattern raises ``MissingLabels``, and
    so does a system without one type-1 triple per cell that has one (and,
    for Skolem, 3k triples through vertex 0).  The Steiner property is not
    checked here.
    """
    n = ts.n
    if n % 6 == 3 and n >= 9:
        off, k, name, latin = 0, n // 3, "Bose", LABEL_TYPE2
        shape = "one type-1 triple per quasigroup element"
    elif n % 6 == 1 and n >= 7:
        off, k, name, latin = 1, n // 6, "Skolem", LABEL_TYPE3
        shape = "k type-1 and 3k type-2 triples"
    else:
        raise MissingLabels(f"no labeled construction exists on n={n}")
    labels: list[str] = []
    colors: list[int] = []
    type1_as: set[int] = set()
    at_inf = 0
    for t in ts.triples:
        if off and 0 in t:
            # t is sorted, so its point with the larger cell comes last
            (al, il), (ah, ih) = (divmod(v - 1, 3) for v in t[1:])
            if not (ah >= k and al < k and il == (ih + 1) % 3):
                raise MissingLabels(f"triple {tuple(t)} matches no Skolem pattern")
            labels.append(LABEL_TYPE2)
            colors.append(3 - il - ih)
            at_inf += 1
            continue
        x, y, z = t
        missed = _LATIN_MISSES[(x - off) % 3 * 9 + (y - off) % 3 * 3 + (z - off) % 3]
        if missed is not None:
            labels.append(latin)
            colors.append(missed)
            continue
        cells = {(v - off) // 3 for v in t}
        a = cells.pop()
        if cells or a >= k:
            raise MissingLabels(f"triple {tuple(t)} matches no {name} pattern")
        labels.append(LABEL_TYPE1)
        colors.append(a % 3)
        type1_as.add(a)
    if len(type1_as) != k or at_inf != 3 * k * off:
        raise MissingLabels(f"{name} pattern needs {shape}")
    return tuple(labels), tuple(colors)


def infer_labels(ts: TripleSystem) -> TripleSystem:
    """Attach Bose or Skolem labels to a bare system by pattern matching.

    The span guarantees of the layer colorings only rely on the patterns
    checked here, so any system that passes gets the corresponding bound,
    whether or not it came from this package's generators.
    """
    labels, _ = _layer_pass(ts)
    return validate_steiner(ts, labels=labels)


def _pattern_coloring(s: TripleSystem, name: str, residue: int) -> EdgeColoring:
    """The layer colors of s, checked for its order, its pattern and the Steiner property."""
    if s.n % 6 != residue:
        raise MissingLabels(f"n={s.n} is not a {name} order (need n = {residue} mod 6)")
    _, colors = _layer_pass(s)
    validate_steiner(s)
    return EdgeColoring(system=s, r=3, colors=colors)


def bose_coloring(s: TripleSystem) -> EdgeColoring:
    """Color a Bose system so each color misses one point layer.

    A type-2 triple with its doubled layer i gets color (i - 1) mod 3, so
    color c touches only layers c+1 and c+2 through type-2 triples.  Type-1
    triples go round robin by their quasigroup element, which adds at most
    ceil((2k+1)/3) extra vertices per color: the span bound is
    4k + 2 + ceil((2k+1)/3).  The types are read from the triples, not from
    ``labels``; an order other than 3 mod 6 or a triple off the pattern
    raises ``MissingLabels``, and a system that is not Steiner raises the
    error of :func:`validate_steiner`.
    """
    return _pattern_coloring(s, "Bose", 3)


def skolem_coloring(s: TripleSystem) -> EdgeColoring:
    """Color a Skolem system with the layer its triple misses.

    Type-2 and type-3 triples use second coordinates {i, i+1} (ignoring the
    extra point), so they get color (i + 2) mod 3; type-1 triples go round
    robin.  Span bound per color: ceil(k/3) + 4k + 1.  The types are read as
    in :func:`bose_coloring`, for orders 1 mod 6.
    """
    return _pattern_coloring(s, "Skolem", 1)


def layer_automorphisms(s: TripleSystem) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of s in Z3 x AGL(1, Z_q), acting on the layer encoding.

    The Bose and Skolem constructions put point (a, i), a in Z_q and i in
    Z_3, at vertex off + 3a + i: off = 0 when n = 3 (mod 6), and off = 1
    when n = 1 (mod 6), where vertex 0 is fixed.  The element (u, b, r)
    maps (a, i) to (ua + b, i + r).  The generators are the layer rotation
    (1, 0, 1), the cell translation (1, 1, 0) and the cell scalings (u, 0, 0)
    by the units u mod q.  Each is checked once through its permutation
    against the triples, one lookup per mapped triple in the set of triple
    codes (a*n + b)*n + c, a < b < c, stopping at the first triple it maps
    off the system.  The result lists every product of the generators that
    pass, the identity first; they form a group, and each maps every triple
    onto a triple.  Labels are not read.
    Any other order, and any system whose generators all fail, gets the
    identity alone.

    Each element is a tuple g with g[v] the image of vertex v.
    """
    n = s.n
    off = {3: 0, 1: 1}.get(n % 6)
    if off is None or n < 3:
        return (tuple(range(n)),)
    q = (n - off) // 3
    fixed = tuple(range(off))

    def perm(u: int, b: int, r: int) -> tuple[int, ...]:
        cells = [off + 3 * ((u * a + b) % q) for a in range(q)]
        layers = (r % 3, (r + 1) % 3, (r + 2) % 3)
        return fixed + tuple([c + i for c in cells for i in layers])

    triples = s.triples
    codes = {(a * n + b) * n + c for a, b, c in triples}

    def maps_triples(g: tuple[int, ...]) -> bool:
        for x, y, z in triples:
            x, y, z = g[x], g[y], g[z]
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
                if x > y:
                    x, y = y, x
            if (x * n + y) * n + z not in codes:
                return False
        return True

    generators = [(1, 0, 1), (1, 1, 0)] + [(u, 0, 0) for u in range(2, q) if gcd(u, q) == 1]
    verified = [(gen, g) for gen in generators if maps_triples(g := perm(*gen))]
    # close under products, deduplicated on the parameters: applying
    # (u, b, r) after (u', b', r') gives (uu', ub' + b, r' + r), and its
    # permutation is the generator's composed with the element's
    params = [(1 % q, 0, 0)]    # the identity, also when q = 1
    elements = [tuple(range(n))]
    seen = set(params)
    for (u1, b1, r1), h in zip(params, elements):  # both grow while walked
        for (u, b, r), g in verified:
            key = (u * u1 % q, (u * b1 + b) % q, (r1 + r) % 3)
            if key not in seen:
                seen.add(key)
                params.append(key)
                elements.append(tuple(map(g.__getitem__, h)))
    return tuple(elements)
