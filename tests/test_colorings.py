import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest

from stsramsey import (
    EdgeColoring,
    EmptyClass,
    HoleCertificate,
    InvalidHole,
    MissingLabels,
    MonochromaticTriple,
    PairUncovered,
    RainbowTriple,
    alpha_star,
    bicoloring_search,
    bicoloring_to_bound,
    bose,
    bose_coloring,
    build_system,
    cdr_sequence,
    closed_form_bounds,
    decompose_3coloring,
    fano,
    hole_coloring,
    largest_mono_component,
    mono_components,
    s9,
    skolem,
    skolem_coloring,
    verify_bicoloring,
    verify_decomposition,
    verify_hole,
    verify_z2_range,
)
from stsramsey.colorings import DecompositionResult

from oracles import brute_decomposition_ok, max_component_size


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
        with pytest.raises(InvalidHole):
            hole_coloring(fano_sys, bad)

    def test_malformed_hole_maps_to_invalid(self, fano_sys):
        bad = HoleCertificate(k=2, a=1, parts=(frozenset([0]), frozenset([0])))
        with pytest.raises(InvalidHole):
            hole_coloring(fano_sys, bad)


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
        # class sizes (24, 24, 33) on 81 vertices give bound 24 + 33 = 57
        a, b, c = 24, 24, 33
        assert a + b + c == 81 and (a + b + c) - a == b + c == 57

    def test_empty_class_rejected(self):
        ts = build_system(3, [(0, 1, 2)])
        bi = bicoloring_search(ts)
        with pytest.raises(EmptyClass):
            bicoloring_to_bound(bi)


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


class TestDecomposition:
    def test_all_one_color_is_spanning(self, fano_sys):
        c = EdgeColoring(system=fano_sys, r=3, colors=(0,) * 7)
        d = decompose_3coloring(fano_sys, c)
        assert d.case == "L1"
        assert verify_decomposition(fano_sys, c, d)

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
        t2 = d.t2_partition()
        assert [len(s) for s in t2.sets] == [2, 2, 2, 2]

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
        with pytest.raises(PairUncovered):
            decompose_3coloring(ts, c)

    def test_coloring_of_another_system_rejected(self, fano_sys):
        c = EdgeColoring(system=skolem(7), r=3, colors=(0, 1, 2, 0, 1, 2, 0))
        with pytest.raises(ValueError, match="another system"):
            decompose_3coloring(fano_sys, c)

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
                assert got == brute_decomposition_ok(n, system.triples, colors, claim), \
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
    return out


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
