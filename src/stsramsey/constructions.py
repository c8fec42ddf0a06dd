"""Bose and Skolem triple systems from closed-form quasigroups; the 7- and 9-point systems.

Vertex encodings are part of the public contract so certificates stay
portable:

* Bose on n = 6k+3 vertices: point (a, i) of Q x {0,1,2} is vertex 3a + i.
* Skolem on n = 6k+1 vertices: the extra point is vertex 0 and (a, i) is
  vertex 1 + 3a + i.

Both constructions label their triples (``type1``/``type2``/``type3``) and
the labels can be re-derived from a bare triple list via
:func:`infer_labels`, which is how colorings work on systems read back from
files.
"""

from __future__ import annotations

from typing import Callable

from .core import (
    BadOrder,
    LABEL_TYPE1,
    LABEL_TYPE2,
    LABEL_TYPE3,
    MissingLabels,
    Triple,
    TripleSystem,
    build_system,
    validate_steiner,
)


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
    triples = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    return validate_steiner(build_system(7, triples))


def s9() -> TripleSystem:
    """The 9-point system: lines of the affine plane of order 3."""
    lines = []
    for slope in range(3):
        for b in range(3):
            lines.append(tuple(sorted(3 * x + (slope * x + b) % 3 for x in range(3))))
    for a in range(3):
        lines.append((3 * a, 3 * a + 1, 3 * a + 2))
    return validate_steiner(build_system(9, lines))


# ---------------------------------------------------------------------------
# Label inference.  System files carry no labels, so schemes that need them
# re-derive the construction pattern from the fixed vertex encodings.
# ---------------------------------------------------------------------------

# _layer_pattern's verdict for a Latin triple {(a,i), (b,i), (c,i+1)}
_LATIN = -1


def _layer_pattern(t: Triple, off: int) -> int | None:
    """Classify a triple whose point (a, i) sits at vertex off + 3a + i.

    Returns the cell a of a type-1 triple {(a,0), (a,1), (a,2)}, ``_LATIN``
    when two points share a layer i and the third lies in layer i+1 mod 3,
    and None when the triple matches neither.
    """
    layers = sorted((v - off) % 3 for v in t)
    if layers == [0, 1, 2]:
        cells = {(v - off) // 3 for v in t}
        return cells.pop() if len(cells) == 1 else None
    # the doubled layer i, then i+1: i = 0, 1 and 2 (where i+1 = 0 sorts first)
    return _LATIN if layers in ([0, 0, 1], [1, 1, 2], [0, 2, 2]) else None


def _infer_bose(ts: TripleSystem) -> tuple[str, ...]:
    q = ts.n // 3
    labels = []
    type1_as: set[int] = set()
    for t in ts.triples:
        cell = _layer_pattern(t, 0)
        if cell == _LATIN:
            labels.append(LABEL_TYPE2)
        elif cell is not None:
            labels.append(LABEL_TYPE1)
            type1_as.add(cell)
        else:
            raise MissingLabels(f"triple {tuple(t)} matches no Bose pattern")
    if type1_as != set(range(q)):
        raise MissingLabels("Bose pattern needs one type-1 triple per quasigroup element")
    return tuple(labels)


def _infer_skolem(ts: TripleSystem) -> tuple[str, ...]:
    k = ts.n // 6
    labels = []
    type1_as: set[int] = set()
    type2_count = 0
    for t in ts.triples:
        if 0 in t:
            # t is sorted, so its point with the larger cell comes last
            (al, il), (ah, ih) = (divmod(v - 1, 3) for v in t[1:])
            if not (ah >= k and al < k and il == (ih + 1) % 3):
                raise MissingLabels(f"triple {tuple(t)} matches no Skolem pattern")
            labels.append(LABEL_TYPE2)
            type2_count += 1
            continue
        cell = _layer_pattern(t, 1)
        if cell == _LATIN:
            labels.append(LABEL_TYPE3)
        elif cell is not None and cell < k:
            labels.append(LABEL_TYPE1)
            type1_as.add(cell)
        else:
            raise MissingLabels(f"triple {tuple(t)} matches no Skolem pattern")
    if type1_as != set(range(k)) or type2_count != 3 * k:
        raise MissingLabels("Skolem pattern needs k type-1 and 3k type-2 triples")
    return tuple(labels)


def infer_labels(ts: TripleSystem) -> TripleSystem:
    """Attach Bose or Skolem labels to a bare system by pattern matching.

    The span guarantees of the scheme colorings only rely on the patterns
    checked here, so any system that passes gets the corresponding bound,
    whether or not it came from this package's generators.
    """
    if ts.n % 6 == 3 and ts.n >= 9:
        return validate_steiner(ts, labels=_infer_bose(ts))
    if ts.n % 6 == 1 and ts.n >= 7:
        return validate_steiner(ts, labels=_infer_skolem(ts))
    raise MissingLabels(f"no labeled construction exists on n={ts.n}")
