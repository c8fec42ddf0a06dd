import hashlib
import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import pytest

from stsramsey import (
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
    SearchBudget,
    alpha_star,
    bicoloring_search,
    binomial_3graph,
    bicoloring_to_bound,
    bose,
    bose_coloring,
    build_system,
    cdr_sequence,
    closed_form_bounds,
    decompose_3coloring,
    fano,
    hole_coloring,
    infer_labels,
    largest_mono_component,
    mono_components,
    random_sts,
    s9,
    skolem,
    skolem_coloring,
    validate_steiner,
    verify_bicoloring,
    verify_decomposition,
    verify_hole,
    verify_z2_range,
)
from stsramsey.colorings import Bicoloring, DecompositionResult, l2_coloring
from stsramsey.constructions import LABEL_TYPE1, LABEL_TYPE3
from stsramsey.io import format_system
from stsramsey.search import l2_partitions

from oracles import brute_decomposition_ok, brute_hole_ok, max_component_size


class TestHoleColoring:
    def test_s9_components_avoid_their_part(self, s9_sys):
        hole = alpha_star(s9_sys, 3).lower_certificate
        coloring = hole_coloring(s9_sys, hole)
        comps = mono_components(coloring)
        for i in range(3):
            for comp in comps.components[i]:
                assert not (comp & hole.parts[i])
        assert largest_mono_component(coloring)[0] <= 9 - hole.a

    def test_fano_size1_hole_is_tight(self, fano_sys):
        hole = alpha_star(fano_sys, 3).lower_certificate
        coloring = hole_coloring(fano_sys, hole)
        assert largest_mono_component(coloring)[0] == 6  # mc_3 = 6 forces equality

    def test_invalid_hole_rejected(self, fano_sys):
        bad = HoleCertificate(k=3, a=1, parts=(frozenset([0]), frozenset([1]),
                                               frozenset([3])))
        # (0,1,3) is a line, so it crosses all three parts
        with pytest.raises(InvalidHole) as err:
            hole_coloring(fano_sys, bad)
        assert str(err.value) == "certificate admits a crossing triple"

    def test_malformed_hole_maps_to_invalid(self, fano_sys):
        bad = HoleCertificate(k=2, a=1, parts=(frozenset([0]), frozenset([0])))
        with pytest.raises(InvalidHole) as err:
            hole_coloring(fano_sys, bad)
        assert str(err.value) == "parts must be pairwise disjoint"

    # the checks run in order: a malformed certificate, then a crossing
    # triple, then too few parts
    @pytest.mark.parametrize("parts, message", [
        ((frozenset([3]),), "need at least 2 parts"),
        ((frozenset([0]),), "certificate admits a crossing triple"),
        ((frozenset([9]),), "vertex 9 not in [0, 4)"),
    ], ids=["one-part", "one-crossed-part", "one-malformed-part"])
    def test_one_part_messages(self, parts, message):
        ts = build_system(4, [(0, 1, 2)])
        with pytest.raises(InvalidHole) as err:
            hole_coloring(ts, HoleCertificate(k=1, a=1, parts=parts))
        assert str(err.value) == message

    @pytest.mark.parametrize("make", [lambda: bose(15), lambda: skolem(19), lambda: bose(27),
                                      lambda: random_sts(21, 5)],
                             ids=["bose15", "skolem19", "bose27", "random21"])
    def test_colors_match_smallest_avoided_part(self, make):
        # the rule with sets: a triple's color is the first part it shares no
        # vertex with; a certificate that is no hole is refused
        ts = make()
        rng = random.Random(ts.n)
        holes = Counter()
        for k in (2, 3, 4, 5):
            for _ in range(60):
                a = rng.randrange(min(3, ts.n // k) + 1)
                verts = rng.sample(range(ts.n), k * a)
                parts = tuple(frozenset(verts[i * a:(i + 1) * a]) for i in range(k))
                h = HoleCertificate(k=k, a=a, parts=parts)
                if not brute_hole_ok(ts.n, ts.triples, parts):
                    with pytest.raises(InvalidHole, match="^certificate admits a crossing triple$"):
                        hole_coloring(ts, h)
                    continue
                holes[k, a > 0] += 1
                want = tuple(min(i for i, p in enumerate(parts) if not set(t) & p)
                             for t in ts.triples)
                assert hole_coloring(ts, h).colors == want
        # every pair of a Steiner system is covered, so its 2-part holes are empty
        assert set(holes) == {(2, False)} | {(k, e) for k in (3, 4, 5) for e in (False, True)}

    @pytest.mark.parametrize("parts", [([0], [1]), (frozenset([0]), 1), None, 3],
                             ids=["list-parts", "int-part", "none-parts", "int-parts"])
    def test_parts_that_are_not_sets_map_to_invalid(self, fano_sys, parts):
        # verify_hole's MalformedCertificate, not a TypeError from & or len()
        bad = HoleCertificate(k=2, a=1, parts=parts)
        with pytest.raises(InvalidHole):
            hole_coloring(fano_sys, bad)


class TestL2Coloring:
    @pytest.mark.parametrize("make", [lambda: bose(21), lambda: bose(27)], ids=["bose21", "bose27"])
    def test_largest_component_is_the_two_largest_parts(self, make):
        ts = make()
        for parts in l2_partitions(ts).partitions[:40]:
            coloring = l2_coloring(ts, parts)
            claim = DecompositionResult(case="L2", role_colors=(0, 1, 2), parts=parts)
            assert verify_decomposition(ts, coloring, claim)
            assert brute_decomposition_ok(ts.n, ts.triples, coloring.colors, claim, coloring.r)
            two = sum(sorted(map(len, parts))[2:])
            assert largest_mono_component(coloring)[0] == two
            assert max_component_size(ts.n, ts.triples, coloring.colors) == two
            assert decompose_3coloring(ts, coloring).case == "L2"

    def test_bad_partitions_rejected(self, fano_sys):
        parts = (frozenset({0, 1}), frozenset({2}), frozenset({3, 4}), frozenset({5, 6}))
        with pytest.raises(MalformedCertificate, match="meets three parts"):
            l2_coloring(fano_sys, parts)
        for bad in (parts[:3], parts[:3] + (frozenset(),), parts[:3] + (frozenset({5}),),
                    parts[:3] + (frozenset({4, 5, 6}),)):
            with pytest.raises(MalformedCertificate, match="four non-empty parts"):
                l2_coloring(fano_sys, bad)

    # a vertex that is not an int in [0, n): a negative one, a str, and a bool
    # standing for the missing vertex 1
    @pytest.mark.parametrize("make, parts", [
        (s9, [[-1], [0, 1], [2, 3, 4], [5, 6, 7, 8]]),
        (s9, [[0, 1], ["a"], [2, 3, 4], [5, 6, 7, 8]]),
        (lambda: bose(21), [[0, 2], [True], [3, 5, 7, 8, 9, 10, 12, 13, 16, 17, 18, 20],
                            [4, 6, 11, 14, 15, 19]]),
        # parts, or one of them, that is no collection at all
        (s9, None),
        (s9, [1, 2, 3, 4]),
        (s9, [[0, 1], [2, 3], [4, 5], None]),
    ], ids=["negative", "str", "bool", "none-parts", "int-parts", "none-part"])
    def test_non_vertices_rejected(self, make, parts):
        with pytest.raises(MalformedCertificate, match="four non-empty parts"):
            l2_coloring(make(), parts)

    def test_a_generator_of_parts_is_read_once(self):
        # it colors as the tuple does: a check that consumed it would leave
        # every triple color 0, largest component 21
        ts = bose(21)
        parts = l2_partitions(ts).partitions[0]
        coloring = l2_coloring(ts, (p for p in parts))
        assert coloring.colors == l2_coloring(ts, parts).colors
        assert set(coloring.colors) == {0, 1, 2}
        assert largest_mono_component(coloring)[0] == 18


def bose_span_bound(n):
    k = (n - 3) // 6
    return 4 * k + 2 + -(-(2 * k + 1) // 3)


def skolem_span_bound(n):
    k = n // 6
    return -(-k // 3) + 4 * k + 1


class TestConstructionColorings:
    @pytest.mark.parametrize("n", [9, 15, 27, 33])
    def test_bose_spans(self, n):
        coloring = bose_coloring(bose(n))
        comps = mono_components(coloring)
        assert all(len(s) <= bose_span_bound(n) for s in comps.spanned)

    @pytest.mark.parametrize("n", [7, 13, 19, 37])
    def test_skolem_spans(self, n):
        coloring = skolem_coloring(skolem(n))
        comps = mono_components(coloring)
        assert all(len(s) <= skolem_span_bound(n) for s in comps.spanned)

    def test_skolem7_matches_mc(self):
        coloring = skolem_coloring(skolem(7))
        assert largest_mono_component(coloring)[0] <= 6

    def test_unlabeled_rejected(self, fano_sys):
        bare = replace(fano_sys, labels=None)
        with pytest.raises(MissingLabels):
            bose_coloring(bare)
        with pytest.raises(MissingLabels):
            skolem_coloring(bare)


# sha256 of the system file, the labels and the layer coloring of every Bose
# and Skolem order from 7 to 99, plus a Bose system with its cells relabelled
# by a seeded permutation; any change to triple order, labels or colors
# shows here.
LAYERED_DIGESTS = {
    "bose9": "d54685c046d6aaadd1cdeddf6e4f26b9760455b726358e5514f13fff4cb689b8",
    "bose15": "7d0132310e4cbf4c1c10cbef9aecf90be008d792f08fc12f46c1870bb4821aec",
    "bose21": "195a9866e48bf79d3ac6d76886c27acb1c4da2c1338dce2d256c05e4b047a544",
    "bose27": "3bf21ec09ec2d81c9003fe2bce05f87424002492be75eb9249acce57efe236e3",
    "bose33": "f7bc17e56b465afe8fe79ceddd4bcc223288290846d346759c28b2db6146e49d",
    "bose39": "8c918bb388cf249dc263bad47c63f097be8596225ec9b475b4e2232db812beca",
    "bose45": "7ba6c59cb738972be993649b128d182dd89e2e0dc26075e1990bf5aba3e65835",
    "bose51": "59280522cd0e0708a2f7dce2daaa4eefb64378ad120523f4963109016f0e4e52",
    "bose57": "76d4a9d85ef9371b16b70fb1d7ab9a1475e1209c70a9dec2bf9a9542e646cf62",
    "bose63": "85dcdda864db9ed7a7c4e5ec9aac0739b583c90cd801359f9de61a00b17b8f24",
    "bose69": "873d367283a49e2de4b555a0980268a30d96e3f39910b5842ef9226b687ce2fd",
    "bose75": "7714b3ec224be054de8749b63ccea10c20f579ef2e7b3bd0d500c2bb6528b2da",
    "bose81": "79791c48964977615d589f74e4c1bd6a8d9a378ac05a6f375616a0e33020418c",
    "bose87": "95e7716f62f55d0b5fdb63b399666b3b441e872744a6e33cc30144ab63eba139",
    "bose93": "8b1f654c1847aa2214c4e5341b29e5a4075797466b4e71394fddb23a1f16a1d6",
    "bose99": "f293dc12e60bc76eec805d32f207e38895964c12798444bdcbb30c6e48dabea1",
    "skolem7": "296319cbe007d9dee967b9ed77b5ea69a248928645ecb495262a7d22c8f81bc4",
    "skolem13": "6461547a856c93aae22464fa5c2c6239136c629c7cf71fe84e0d1ea036f7dba3",
    "skolem19": "2214e2306e4fb33825c9dcdeb687c78a6a50d0a2bb5b6017f31f0adbfb5f3de8",
    "skolem25": "aaed52d4d88e7169f2bd08049345c7ee46d828f92870b2f44a1dabd4b323235a",
    "skolem31": "e67180c5b4a060d525c44b90a1b6ac08fedad4cc1da9af14d263a09f85674a6f",
    "skolem37": "b9fdf45e5e5729a78b75e4c08e3c9e6e11acbe7cb91c4ed597fd93862ab77608",
    "skolem43": "8c40926338aa2f42adac5a2af50fa6b701a8d606ba06ae0cbeb541bc40af15d2",
    "skolem49": "7111813d8ca82dd056aebc0603370a4d3cb13ecef2ea5857836651cb7f587ae5",
    "skolem55": "84ebd53efb375b541c211c58a4a1dbee9a2879d515a0221bcf099dd5d52e5fa8",
    "skolem61": "d7008eaa82d2528176e10250375d062e289878725612946c4a3cfe5380f4f088",
    "skolem67": "f4667640d8873eb8b4b9b12e128df47ab59bc599a3c5da333c2e812d494279ab",
    "skolem73": "50ab9edf72b1b11c909843e5ac426298dc22e97943906f13e6c800f865b66798",
    "skolem79": "b7c8bba1548a5d0a3a14eaf288131a1456a998ee3e9332a7c7a9f6c75856ef56",
    "skolem85": "b47f4877f732b796d6453c080a92cbcd0a14fc46aa3f1c84d31cbe594199ddd4",
    "skolem91": "23fb4489cbd77f71844cebfe8473c44de5ba8526b7f8ff1ea589d8dd6072dac6",
    "skolem97": "ddb2bffa711ddeba449837017da15397d34d7d2cc8a25197d9acdee50af348ba",
    "bose15-q77": "6e47c7daee8661b33d45c3f10889cfded48614d6f5dd1279aa434f9112ac5e17",
}


def cell_relabeled_bose(n, seed):
    """bose(n) with cell a renamed perm[a], perm the seed's first shuffle of
    range(n // 3), in Bose order: type 1 by cell, then type 2 by the cells
    a < b of its doubled layer i, then by i.  These are the triples, in
    order, that bose(n) gave over a seeded random idempotent quasigroup."""
    perm = list(range(n // 3))
    random.Random(seed).shuffle(perm)

    def bose_order(t):
        cells, layers = zip(*(divmod(v, 3) for v in t))
        if len(set(layers)) == 3:
            return (-1, cells[0], 0)
        i = max(layers, key=layers.count)
        return tuple(c for c, layer in zip(cells, layers) if layer == i) + (i,)

    triples = [sorted(3 * perm[v // 3] + v % 3 for v in t) for t in bose(n).triples]
    return infer_labels(build_system(n, sorted(triples, key=bose_order)))


def layered_system(name):
    if name == "bose15-q77":
        return cell_relabeled_bose(15, 77)
    if name.startswith("bose"):
        return bose(int(name[4:]))
    return skolem(int(name[6:]))


def layer_coloring(s):
    return bose_coloring(s) if s.n % 6 == 3 else skolem_coloring(s)


class TestLayerColorings:
    @pytest.mark.parametrize("name", list(LAYERED_DIGESTS))
    def test_pinned_digest(self, name):
        s = layered_system(name)
        text = "\n--\n".join([format_system(s), " ".join(s.labels),
                              " ".join(map(str, layer_coloring(s).colors))])
        assert hashlib.sha256(text.encode()).hexdigest() == LAYERED_DIGESTS[name]

    @pytest.mark.parametrize("name", list(LAYERED_DIGESTS))
    def test_each_color_misses_its_layer(self, name):
        s = layered_system(name)
        off = int(s.n % 6 == 1)  # Skolem's extra point is vertex 0
        coloring = layer_coloring(s)
        for t, label, c in zip(s.triples, s.labels, coloring.colors):
            if label != LABEL_TYPE1:
                assert all((v - off) % 3 != c for v in t if v >= off)
        bound = s.n - s.n // 3 + math.ceil(s.labels.count(LABEL_TYPE1) / 3)
        assert all(len(sp) <= bound for sp in mono_components(coloring).spanned)
        assert infer_labels(replace(s, labels=None)).labels == s.labels

    @pytest.mark.parametrize("name", list(LAYERED_DIGESTS))
    def test_labels_ignored(self, name):
        # the colors are read from the triples: no labels, or labels that
        # contradict them, change nothing
        s = layered_system(name)
        colors = layer_coloring(s).colors
        assert layer_coloring(replace(s, labels=None)).colors == colors
        assert layer_coloring(replace(s, labels=(LABEL_TYPE3,) * s.m)).colors == colors

    def test_broken_triples_rejected(self):
        # swapping vertices 1 and 4 turns the type-1 triple (1, 2, 3) into
        # (2, 3, 4), which meets two cells; the system stays Steiner
        swap = {1: 4, 4: 1}
        triples = [[swap.get(v, v) for v in t] for t in skolem(13).triples]
        s = validate_steiner(build_system(13, triples))
        with pytest.raises(MissingLabels) as exc:
            skolem_coloring(s)
        assert str(exc.value) == "triple (2, 3, 4) matches no Skolem pattern"


class TestBicolorings:
    def test_s9_sizes(self, s9_sys):
        bi = bicoloring_search(s9_sys)
        assert bi is not None and bi.sizes == (1, 4, 4)

    def test_fano_has_a_124_bicoloring(self, fano_sys):
        # full 3^7 enumeration (tests/oracles.py) finds exactly the (1,2,4)
        # profile, e.g. classes {0,1,2,5} / {3,4} / {6}
        bi = bicoloring_search(fano_sys)
        assert bi is not None and bi.sizes == (1, 2, 4)

    def test_degenerate_triple(self):
        ts = build_system(3, [(0, 1, 2)])
        bi = bicoloring_search(ts)
        assert bi is not None and bi.sizes == (0, 1, 2)

    def test_verify_accepts_search_result(self, s9_sys):
        bi = bicoloring_search(s9_sys)
        again = verify_bicoloring(s9_sys, bi.classes)
        assert again.sizes == (1, 4, 4)

    def test_monochromatic_rejected(self, s9_sys):
        with pytest.raises(MonochromaticTriple):
            verify_bicoloring(s9_sys, (1,) * 9)

    def test_rainbow_rejected(self):
        ts = build_system(3, [(0, 1, 2)])
        with pytest.raises(RainbowTriple):
            verify_bicoloring(ts, (1, 2, 3))

    def test_bound_from_s9(self, s9_sys):
        bi = bicoloring_search(s9_sys)
        hole, bound = bicoloring_to_bound(bi)
        assert hole.a == 1 and bound == 8
        assert verify_hole(s9_sys, hole)

    def test_bound_arithmetic_for_24_24_33(self):
        # the doubling recursion's base, class sizes (24, 24, 33) on 81
        # vertices: the classes cut to 24 form a hole, whose bound is the
        # sum of the two larger classes, 81 - 24 = 24 + 33 = 57
        base = cdr_sequence(0)[0]
        m, n = base.m, base.n
        assert (m, n) == (24, 33)
        assert closed_form_bounds(m + m + n, m).hole_upper == m + n == 57

    def test_empty_class_rejected(self):
        ts = build_system(3, [(0, 1, 2)])
        bi = bicoloring_search(ts)
        with pytest.raises(EmptyClass):
            bicoloring_to_bound(bi)

    def test_first_bicoloring_in_lexicographic_order(self, s9_sys, fano_sys):
        assert bicoloring_search(s9_sys).classes == (1, 1, 2, 1, 1, 2, 2, 2, 3)
        assert bicoloring_search(fano_sys).classes == (1, 1, 1, 2, 2, 1, 3)

    def test_more_vertices_than_the_recursion_limit(self):
        bi = bicoloring_search(build_system(1100, [(0, 1, 2)]))
        assert bi is not None and bi.sizes == (1, 1, 1098)

    def test_node_cap_raises_budget_exhausted(self):
        with pytest.raises(BudgetExhausted):
            bicoloring_search(random_sts(99, 1), SearchBudget(max_nodes=1000))


# An 8-vertex system with every pair covered whose natural 3-coloring
# realizes the four-set case: parts {0,1} {2,3} {4,5} {6,7}.
L2_TRIPLES = [
    (0, 1, 2), (1, 2, 3), (0, 1, 3),
    (4, 5, 6), (5, 6, 7), (4, 5, 7), (4, 6, 7),
    (0, 1, 4), (0, 4, 5), (1, 4, 5),
    (2, 3, 6), (2, 6, 7), (3, 6, 7),
    (0, 1, 6), (0, 6, 7), (1, 6, 7),
    (2, 3, 4), (2, 4, 5), (3, 4, 5),
]
L2_COLORS = (0,) * 7 + (1,) * 6 + (2,) * 6


@pytest.fixture(scope="module")
def pin_sample():
    """366 colorings as (system, label, coloring): on skolem(13), bose(15)
    and bose(21), 100 seeded ones that mostly color a triple by its lowest
    vertex mod 3, and the hole coloring of alpha*_3; then the L2 coloring of
    each of bose(21)'s 63 L2 partitions."""
    out = []
    for ts in (skolem(13), bose(15), bose(21)):
        for s in range(100):
            rng = random.Random(s)
            colors = tuple(rng.randrange(3) if rng.random() < 0.3 else t.a % 3
                           for t in ts.triples)
            out.append((ts, s, EdgeColoring(system=ts, r=3, colors=colors)))
        out.append((ts, "hole", hole_coloring(ts, alpha_star(ts, 3).lower_certificate)))
    out += [(ts, f"l2-{i}", l2_coloring(ts, parts))  # ts is bose(21)
            for i, parts in enumerate(l2_partitions(ts).partitions)]
    return out


class TestDecomposition:
    def test_choices_pinned(self, pin_sample):
        # recorded when B and R were picked among the containment-maximal
        # components, ties broken by sorted vertex lists
        rows, cases = [], Counter()
        for ts, label, c in pin_sample:
            d = decompose_3coloring(ts, c)
            cases[d.case] += 1
            rows.append((ts.n, label, d.case, d.role_colors,
                         None if d.parts is None else [sorted(p) for p in d.parts]))
        assert cases == {"L1": 269, "L2": 63, "L3": 34}
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "f396d16f66f578b2"

    def test_b_is_the_largest_component_witness(self, pin_sample, fano_sys):
        # B is the component for L1, W+X for L2 and W+X+Y for L3
        every_fano = [(fano_sys, None, EdgeColoring(system=fano_sys, r=3, colors=colors))
                      for colors in product(range(3), repeat=7)]
        for ts, label, c in pin_sample + every_fano:
            d = decompose_3coloring(ts, c)
            B = d.component if d.case == "L1" else frozenset().union(
                *d.parts[:2 if d.case == "L2" else 3])
            _, color, witness = largest_mono_component(c)
            assert (B, d.role_colors[0]) == (witness, color), (ts.n, label)

    @pytest.mark.parametrize("which, case, sizes", [("l2", "L2", [12, 6, 2, 1]),
                                                    ("hole", "L3", [5, 6, 5, 5])],
                             ids=["l2", "hole"])
    def test_bose21_colorings_decompose(self, which, case, sizes):
        # its first L2 partition's coloring, and its hole coloring
        ts = bose(21)
        c = (l2_coloring(ts, l2_partitions(ts).partitions[0]) if which == "l2"
             else hole_coloring(ts, alpha_star(ts, 3).lower_certificate))
        d = decompose_3coloring(ts, c)
        assert (d.case, [len(p) for p in d.parts]) == (case, sizes)
        assert verify_decomposition(ts, c, d)
        B = frozenset().union(*d.parts[:2 if case == "L2" else 3])
        _, color, witness = largest_mono_component(c)
        assert (B, d.role_colors[0]) == (witness, color)

    @pytest.mark.parametrize("which, claims", [("l2", 24), ("bose21", 1_160)],
                             ids=["l2", "bose21"])
    def test_a_triple_meeting_three_parts_breaks_a_cross_class_clause(self, which, claims):
        # every vertex moved to each other part of genuine L2 claims, every
        # part kept non-empty: a claim with a triple meeting three parts
        # fails on one of the six cross-class clauses
        if which == "l2":
            ts = build_system(8, L2_TRIPLES)
            c = EdgeColoring(system=ts, r=3, colors=L2_COLORS)
            genuine = [(c, decompose_3coloring(ts, c))]
        else:
            ts = bose(21)
            genuine = [(l2_coloring(ts, parts),
                        DecompositionResult(case="L2", role_colors=(0, 1, 2), parts=parts))
                       for parts in l2_partitions(ts).partitions[:20]]
        met = 0
        for c, d in genuine:
            assert d.case == "L2" and verify_decomposition(ts, c, d)
            for src, dst in permutations(range(4), 2):
                if len(d.parts[src]) == 1:
                    continue
                for v in d.parts[src]:
                    parts = list(d.parts)
                    parts[src] = parts[src] - {v}
                    parts[dst] = parts[dst] | {v}
                    if not any(sum(1 for p in parts if p & set(t)) == 3 for t in ts.triples):
                        continue
                    met += 1
                    check = verify_decomposition(ts, c, replace(d, parts=tuple(parts)))
                    assert not check and re.fullmatch(r"L2: \[.*\] .* violated",
                                                      check.failed_clause), (v, src, dst)
        assert met == claims

    def test_all_one_color_is_spanning(self, fano_sys):
        c = EdgeColoring(system=fano_sys, r=3, colors=(0,) * 7)
        d = decompose_3coloring(fano_sys, c)
        assert d.case == "L1"
        assert verify_decomposition(fano_sys, c, d)
        # no triples: an empty or single vertex set is spanned trivially
        for n in (0, 1):
            ts = build_system(n, [])
            c = EdgeColoring(system=ts, r=3, colors=())
            d = decompose_3coloring(ts, c)
            assert d.case == "L1" and d.component == frozenset(range(n))
            assert verify_decomposition(ts, c, d)

    def test_s9_hole_coloring_decomposes(self, s9_sys):
        hole = alpha_star(s9_sys, 3).lower_certificate
        c = hole_coloring(s9_sys, hole)
        d = decompose_3coloring(s9_sys, c)
        assert d.case in ("L2", "L3")
        assert verify_decomposition(s9_sys, c, d)

    def test_s9_minimizing_coloring_decomposes(self, s9_sys):
        from stsramsey import mc_exact
        from oracles import max_component_size
        res = mc_exact(s9_sys, 3)
        c = res.lower_certificate
        d = decompose_3coloring(s9_sys, c)
        assert verify_decomposition(s9_sys, c, d)
        astar = alpha_star(s9_sys, 3).value
        assert max_component_size(9, s9_sys.triples, c.colors) >= 9 - 2 * astar

    def test_l2_case_constructed_and_verified(self):
        ts = build_system(8, L2_TRIPLES)
        c = EdgeColoring(system=ts, r=3, colors=L2_COLORS)
        d = decompose_3coloring(ts, c)
        assert d.case == "L2"
        assert verify_decomposition(ts, c, d)
        assert [len(p) for p in d.parts] == [2, 2, 2, 2]

    def test_every_fano_coloring_decomposes(self, fano_sys):
        # exhaustive: all 3^7 edge colorings of the 7-point system
        from itertools import product
        for colors in product(range(3), repeat=7):
            c = EdgeColoring(system=fano_sys, r=3, colors=colors)
            d = decompose_3coloring(fano_sys, c)
            check = verify_decomposition(fano_sys, c, d)
            assert check, (colors, d.case, check.failed_clause)

    def test_hole_coloring_uses_smallest_avoided_part(self, s9_sys):
        hole = alpha_star(s9_sys, 3).lower_certificate
        coloring = hole_coloring(s9_sys, hole)
        for t, color in zip(s9_sys.triples, coloring.colors):
            avoided = [i for i, part in enumerate(hole.parts) if not (set(t) & part)]
            assert color == min(avoided)

    @pytest.mark.parametrize("system", [fano(), s9(), bose(15)])
    def test_random_colorings_always_verify(self, system):
        rng = random.Random(101)
        n = system.n
        gyarfas = -(-2 * n // 3) + 1
        astar = alpha_star(system, 3).value
        for _ in range(600):
            colors = tuple(rng.randrange(3) for _ in range(system.m))
            c = EdgeColoring(system=system, r=3, colors=colors)
            d = decompose_3coloring(system, c)
            check = verify_decomposition(system, c, d)
            assert check, check.failed_clause
            biggest = max_component_size(n, system.triples, colors)
            assert biggest >= gyarfas
            assert biggest >= n - 2 * astar

    def test_uncovered_pair_rejected(self):
        ts = build_system(5, [(0, 1, 2)])
        c = EdgeColoring(system=ts, r=3, colors=(0,))
        with pytest.raises(PairUncovered) as err:
            decompose_3coloring(ts, c)
        assert err.value.pair == (0, 3)

    def test_first_uncovered_pair_of_a_multicovered_system(self):
        # 7 triples on 7 points, (0, 1) covered twice: (0, 6) is the first
        # pair no triple holds
        ts = build_system(7, [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6),
                              (0, 4, 5), (1, 5, 6), (0, 1, 2)])
        c = EdgeColoring(system=ts, r=3, colors=(0,) * 7)
        with pytest.raises(PairUncovered) as err:
            decompose_3coloring(ts, c)
        assert err.value.pair == (0, 6)

    # the first uncovered pair of non-linear binomial graphs, recorded while
    # the coverage test read a pair -> triples index
    @pytest.mark.parametrize("n, p, seed, pair", [
        (13, 0.12, 0, (0, 7)),
        (13, 0.3, 3, (5, 8)),
        (19, 0.2, 3, (5, 8)),
        (15, 0.12, 6, (0, 2)),
        (19, 0.05, 4, (0, 1)),
    ])
    def test_first_uncovered_pair_of_binomial_graphs(self, n, p, seed, pair):
        g = binomial_3graph(n, p, seed)
        assert not g.linear
        with pytest.raises(PairUncovered) as err:
            decompose_3coloring(g, EdgeColoring(system=g, r=3, colors=(0,) * g.m))
        assert err.value.pair == pair
        assert str(err.value) == f"pair {pair} is covered by no triple"

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_role_color_outside_the_palette_fails(self, bad):
        # one genuine claim per case, each with one role color swapped for a
        # color the coloring does not have
        claims = []
        ts = build_system(8, L2_TRIPLES)
        c = EdgeColoring(system=ts, r=3, colors=L2_COLORS)
        claims.append((ts, c, decompose_3coloring(ts, c)))
        rng = random.Random(5)
        system = bose(15)
        while {d.case for _, _, d in claims} != {"L1", "L2", "L3"}:
            c = EdgeColoring(system=system, r=3,
                             colors=tuple(rng.randrange(3) for _ in range(system.m)))
            claims.append((system, c, decompose_3coloring(system, c)))
        for ts, c, d in claims:
            assert verify_decomposition(ts, c, d)
            for i in range(3):
                roles = list(d.role_colors)
                roles[i] = bad
                check = verify_decomposition(ts, c, replace(d, role_colors=tuple(roles)))
                assert not check and check.failed_clause == "role colors outside the palette"

    @pytest.mark.parametrize("roles", [(0, 1), (0, 1, 2, 0), (0, 0, 1), (True, 1, 2)],
                             ids=["two", "four", "repeated", "bool"])
    def test_role_colors_not_three_distinct_ints_fail(self, roles):
        # two or four role colors once raised ValueError while unpacking
        ts = bose(21)
        c = hole_coloring(ts, alpha_star(ts, 3).lower_certificate)
        d = decompose_3coloring(ts, c)
        assert verify_decomposition(ts, c, d)
        check = verify_decomposition(ts, c, replace(d, role_colors=roles))
        assert not check and check.failed_clause == "role colors are not three distinct int colors"

    def test_claim_without_four_covering_parts_or_a_known_case_fails(self):
        ts = build_system(8, L2_TRIPLES)
        c = EdgeColoring(system=ts, r=3, colors=L2_COLORS)
        d = decompose_3coloring(ts, c)
        W, X, Y, Z = d.parts
        for claim, clause in ((replace(d, parts=None), "partition missing"),
                              (replace(d, parts=(W, X, Y | Z)), "partition missing"),
                              (replace(d, parts=(W, X, Y, Z - {max(Z)})),
                               "parts do not partition the vertex set"),
                              (replace(d, case="L4"), "unknown case 'L4'")):
            check = verify_decomposition(ts, c, claim)
            assert not check and check.failed_clause == clause

    _S9_PARTS = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7, 8}))

    @pytest.mark.parametrize("claim, clause", [
        (DecompositionResult(case="L2", role_colors=None, parts=_S9_PARTS),
         "role colors are not three distinct int colors"),
        (DecompositionResult(case="L2", role_colors=(0, 1, 2),
                             parts=([0, 1], [2, 3], [4, 5], [6, 7, 8])),
         "parts are not vertex sets"),
        (DecompositionResult(case="L2", role_colors=(0, 1, 2),
                             parts=_S9_PARTS[:2] + (None, _S9_PARTS[3])),
         "parts are not vertex sets"),
        # 8.0 == 8, so the parts still partition range(9)
        (DecompositionResult(case="L3", role_colors=(0, 1, 2),
                             parts=_S9_PARTS[:3] + (frozenset({6, 7, 8.0}),)),
         "parts hold a vertex that is not an int"),
    ], ids=["none-roles", "list-parts", "none-part", "float-vertex"])
    def test_malformed_claim_fails_without_type_error(self, s9_sys, claim, clause):
        # each raised TypeError from len(), | or the mask build
        c = EdgeColoring(system=s9_sys, r=3, colors=tuple(i % 3 for i in range(s9_sys.m)))
        check = verify_decomposition(s9_sys, c, claim)
        assert not check and check.failed_clause == clause

    def test_coloring_of_another_system_rejected(self, fano_sys):
        c = EdgeColoring(system=skolem(7), r=3, colors=(0, 1, 2, 0, 1, 2, 0))
        with pytest.raises(ValueError, match="another system"):
            decompose_3coloring(fano_sys, c)

    def test_verifying_a_coloring_of_another_system_fails(self, fano_sys, s9_sys):
        c = EdgeColoring(system=fano_sys, r=3, colors=(0,) * 7)
        claim = DecompositionResult(case="L1", role_colors=(0, 1, 2),
                                    component=frozenset(range(9)))
        check = verify_decomposition(s9_sys, c, claim)
        assert not check and check.failed_clause == "coloring belongs to another system"

    def test_bogus_l1_claim_fails(self, fano_sys):
        c = EdgeColoring(system=fano_sys, r=3, colors=(0, 1, 2, 0, 1, 2, 0))
        bogus = DecompositionResult(case="L1", role_colors=(0, 1, 2),
                                    component=frozenset(range(6)))
        check = verify_decomposition(fano_sys, c, bogus)
        assert not check and "span" in check.failed_clause

    def test_bogus_l2_empty_part_fails(self, fano_sys):
        c = EdgeColoring(system=fano_sys, r=3, colors=(0, 1, 2, 0, 1, 2, 0))
        bogus = DecompositionResult(
            case="L2", role_colors=(0, 1, 2),
            parts=(frozenset(), frozenset([0, 1]), frozenset([2, 3]),
                   frozenset([4, 5, 6])))
        check = verify_decomposition(fano_sys, c, bogus)
        assert not check and "non-empty" in check.failed_clause

    def test_wrong_role_colors_rejected(self):
        # swapping the roles on a genuine L2 must break the forced classes
        ts = build_system(8, L2_TRIPLES)
        c = EdgeColoring(system=ts, r=3, colors=L2_COLORS)
        d = decompose_3coloring(ts, c)
        assert d.case == "L2" and verify_decomposition(ts, c, d)
        b, r, g = d.role_colors
        swapped = DecompositionResult(case="L2", role_colors=(r, g, b),
                                      parts=d.parts)
        assert not verify_decomposition(ts, c, swapped)

    @pytest.mark.parametrize("system", [fano(), s9(), bose(15), skolem(19),
                                        build_system(8, L2_TRIPLES)],
                             ids=["fano", "s9", "bose15", "skolem19", "l2"])
    def test_checker_agrees_with_brute_oracle(self, system):
        # the true decomposition of seeded colorings and bogus variants of it
        rng = random.Random(2024)
        n = system.n
        colorings = [tuple(rng.randrange(3) for _ in range(system.m)) for _ in range(150)]
        if system.m == len(L2_COLORS):
            colorings.append(L2_COLORS)
        verdicts = set()
        for colors in colorings:
            c = EdgeColoring(system=system, r=3, colors=colors)
            d = decompose_3coloring(system, c)
            for claim in [d] + _decomposition_variants(d, n, rng):
                got = bool(verify_decomposition(system, c, claim))
                assert got == brute_decomposition_ok(n, system.triples, colors, claim, c.r), \
                    (colors, claim)
                verdicts.add(got)
        assert verdicts == {True, False}


def _decomposition_variants(d, n, rng):
    """Claims derived from a true decomposition, mostly bogus."""
    out = [replace(d, role_colors=perm) for perm in permutations(d.role_colors)
           if perm != d.role_colors]
    if d.parts is not None:
        # one vertex moved between parts
        parts = [set(p) for p in d.parts]
        src = rng.choice([i for i, p in enumerate(parts) if p])
        v = rng.choice(sorted(parts[src]))
        parts[src].remove(v)
        parts[rng.choice([i for i in range(4) if i != src])].add(v)
        out.append(replace(d, parts=tuple(frozenset(p) for p in parts)))
    for case in ("L1", "L2", "L3"):
        # a random 4-partition under each case label
        label = [rng.randrange(4) for _ in range(n)]
        parts = tuple(frozenset(v for v in range(n) if label[v] == i) for i in range(4))
        out.append(DecompositionResult(case=case, role_colors=tuple(rng.sample(range(3), 3)),
                                       parts=parts))
    # an L1 claim missing one vertex
    out.append(DecompositionResult(case="L1", role_colors=d.role_colors,
                                   component=frozenset(range(n)) - {rng.randrange(n)}))
    # role colors that are not three distinct ints of the palette
    out += [replace(d, role_colors=roles) for roles in (
        (0, 1), (0, 1, 2, 0), (0, 0, 1), (1, 2, 3), (True,) + d.role_colors[1:])]
    return out


# raises that no other test reaches, with their messages
@pytest.mark.parametrize("call, error, message", [
    (lambda: hole_coloring(build_system(3, []),
                           HoleCertificate(k=1, a=1, parts=(frozenset([0]),))),
     InvalidHole, "need at least 2 parts"),
    (lambda: verify_bicoloring(s9(), (1, 2, 3) * 2), ValueError, "one class per vertex required"),
    (lambda: verify_bicoloring(s9(), (1, 1, 2, 1, 1, 2, 2, 2, 4)), ValueError,
     "classes must be in {1, 2, 3}"),
    (lambda: bicoloring_to_bound(Bicoloring(s9(), (1, 2, 3) * 3, (3, 3, 3))), InvalidHole,
     "bicoloring classes do not induce a hole"),
    (lambda: decompose_3coloring(fano(), EdgeColoring(system=fano(), r=2, colors=(0,) * 7)),
     ValueError, "decomposition needs exactly 3 colors"),
    (lambda: closed_form_bounds(2), ValueError, "bounds need n >= 3"),
    # s9's first bicoloring with True or 1.0 in place of its first class 1
    (lambda: verify_bicoloring(s9(), (True, 1, 2, 1, 1, 2, 2, 2, 3)), ValueError,
     "classes must be ints"),
    (lambda: verify_bicoloring(s9(), (1.0, 1, 2, 1, 1, 2, 2, 2, 3)), ValueError,
     "classes must be ints"),
    (lambda: closed_form_bounds(9.5), ValueError, "bounds need an int n, got 9.5"),
    (lambda: cdr_sequence(2.0), ValueError, "k_max must be an int, got 2.0"),
    (lambda: closed_form_bounds(9, alpha_star3=2.5), ValueError,
     "bounds need an int alpha_star3, got 2.5"),
    (lambda: closed_form_bounds(9, alpha_star3=True), ValueError,
     "bounds need an int alpha_star3, got True"),
], ids=["hole-coloring-one-part", "bicoloring-length", "bicoloring-class-4",
        "bicoloring-without-hole", "decompose-2-coloring", "bounds-n2", "bicoloring-class-true",
        "bicoloring-class-float", "bounds-float-n", "cdr-float-k", "bounds-float-hole",
        "bounds-bool-hole"])
def test_rejected_input_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


class TestClosedFormBounds:
    def test_n9(self):
        b = closed_form_bounds(9)
        assert b.gyarfas == 7 and b.alpha_upper == 2
        assert abs(b.z2 - 6.5616) < 1e-3
        assert b.z2 > 19 / 3 and b.z2_exceeds_gyarfas

    def test_n9_with_hole(self):
        b = closed_form_bounds(9, alpha_star3=2)
        assert b.hole_upper == 7 and b.hole_lower == 5

    def test_z2_range_small(self):
        assert verify_z2_range(10_000)


class TestCdrSequence:
    def test_base_case(self):
        t0 = cdr_sequence(0)[0]
        assert (t0.m, t0.n, t0.r) == (24, 33, Fraction(24, 33))

    def test_first_step(self):
        t1 = cdr_sequence(1)[1]
        assert (t1.m, t1.n) == (2160, 2241)

    def test_sequence_properties(self):
        terms = cdr_sequence(12)
        rs = [t.r for t in terms]
        assert all(rs[i] <= rs[i + 1] for i in range(12))
        assert all((1 - rs[i]) > (1 - rs[i + 1]) for i in range(12))
        assert all(t.m <= t.n <= 2 * t.m for t in terms)
        assert rs[12] > Fraction(999, 1000)
