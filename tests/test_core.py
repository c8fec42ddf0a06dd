import random

import pytest

from stsramsey import (
    BadOrder,
    DuplicateTriple,
    EdgeColoring,
    HoleCertificate,
    MalformedCertificate,
    PairMulticovered,
    PairUncovered,
    Triple,
    SearchBudget,
    VertexOutOfRange,
    alpha_star,
    bose,
    build_system,
    fano,
    infer_labels,
    largest_mono_component,
    mono_components,
    pair_degree_min,
    s9,
    skolem,
    validate_steiner,
    verify_hole,
)
from stsramsey.core import _build_pair_index
from stsramsey.io import read_system, write_system

from oracles import brute_components, brute_hole_ok


def fano_lines():
    return [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]


class TestBuildSystem:
    def test_smallest_system(self):
        ts = build_system(3, [(0, 1, 2)])
        assert ts.m == 1
        assert len(ts.pair_index) == 3

    def test_fano_lines(self):
        ts = build_system(7, fano_lines())
        assert ts.m == 7
        validate_steiner(ts)

    def test_two_triples_on_one_pair_build_but_fail_validation(self):
        ts = build_system(7, [(0, 1, 2), (0, 1, 3)])  # no DuplicateTriple
        with pytest.raises(PairMulticovered) as err:
            validate_steiner(ts)
        assert err.value.pair == (0, 1)

    def test_duplicate_triple(self):
        with pytest.raises(DuplicateTriple):
            build_system(5, [(0, 1, 2), (2, 1, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_system(3, [(0, 1, 3)])
        with pytest.raises(VertexOutOfRange):
            build_system(5, [(0, 1, 1)])

    def test_triples_normalized_sorted(self):
        ts = build_system(5, [(4, 0, 2)])
        assert ts.triples[0] == Triple(0, 2, 4)


class TestValidateSteiner:
    def test_fano_accepted(self):
        st = validate_steiner(build_system(7, fano_lines()))
        assert st.m == 7 == 7 * 6 // 6

    def test_bose9_accepted(self):
        assert bose(9).m == 12

    def test_missing_line_reports_uncovered_pair(self):
        with pytest.raises(PairUncovered):
            validate_steiner(build_system(7, fano_lines()[1:]))

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            validate_steiner(build_system(5, [(0, 1, 2)]))

    def test_degenerate_n3(self):
        st = validate_steiner(build_system(3, [(0, 1, 2)]))
        assert st.n == 3 and st.m == 1


class TestPairIndex:
    @pytest.mark.parametrize("system", [fano(), s9(), bose(15), skolem(13)])
    def test_rebuild_round_trip(self, system):
        assert _build_pair_index(system.triples) == dict(system.pair_index)


class TestPairDegree:
    def test_steiner_systems_have_delta2_one(self):
        for system in (fano(), s9(), bose(21), skolem(19)):
            assert pair_degree_min(system) == 1

    def test_fano_minus_line(self):
        assert pair_degree_min(build_system(7, fano_lines()[:-1])) == 0

    def test_uncovered_pair_on_four_vertices(self):
        assert pair_degree_min(build_system(4, [(0, 1, 2), (0, 1, 3)])) == 0


class TestMonoComponents:
    def test_single_color_spans_steiner(self, s9_sys):
        c = EdgeColoring(system=s9_sys, r=1, colors=(0,) * 12)
        comps = mono_components(c)
        assert [len(x) for x in comps.components[0]] == [9]
        assert comps.spanned[0] == frozenset(range(9))

    def test_rainbow_fano_each_color_one_triple(self, fano_sys):
        c = EdgeColoring(system=fano_sys, r=7, colors=tuple(range(7)))
        comps = mono_components(c)
        for color in range(7):
            assert [len(x) for x in comps.components[color]] == [3]

    def test_components_partition_spanned_set(self, s9_sys):
        rng = random.Random(7)
        for _ in range(200):
            colors = tuple(rng.randrange(3) for _ in range(12))
            comps = mono_components(EdgeColoring(system=s9_sys, r=3, colors=colors))
            for color in range(3):
                union = frozenset().union(*comps.components[color]) \
                    if comps.components[color] else frozenset()
                assert union == comps.spanned[color]
                assert sum(len(x) for x in comps.components[color]) == len(comps.spanned[color])

    def test_largest_single_color_fano(self, fano_sys):
        size, color, verts = largest_mono_component(
            EdgeColoring(system=fano_sys, r=1, colors=(0,) * 7))
        assert (size, color, verts) == (7, 0, frozenset(range(7)))

    def test_r1_always_spans(self):
        for system in (fano(), s9(), bose(15), skolem(13)):
            c = EdgeColoring(system=system, r=1, colors=(0,) * system.m)
            assert largest_mono_component(c)[0] == system.n

    def test_tie_break_lowest_color_then_lex(self, fano_sys):
        # rainbow coloring: seven equal-size components, one per color; the
        # reported witness must be color 0's triple
        c = EdgeColoring(system=fano_sys, r=7, colors=tuple(range(7)))
        size, color, verts = largest_mono_component(c)
        assert (size, color) == (3, 0)
        assert verts == frozenset(fano_sys.triples[0])

    @pytest.mark.parametrize("system", [s9(), bose(15), skolem(19)],
                             ids=["s9", "bose15", "skolem19"])
    def test_components_match_bfs_oracle(self, system):
        rng = random.Random(system.n)
        for trial in range(60):
            palette = [0, 1, 2]
            if trial % 3 == 0:  # every third coloring leaves one color unused
                palette.remove(trial // 3 % 3)
            colors = tuple(rng.choice(palette) for _ in range(system.m))
            comps = mono_components(EdgeColoring(system=system, r=3, colors=colors))
            for color in range(3):
                tris = [t for t, c in zip(system.triples, colors) if c == color]
                expected = brute_components(tris)
                assert len(comps.components[color]) == len(expected)
                assert set(comps.components[color]) == expected
                assert comps.spanned[color] == frozenset(v for t in tris for v in t)


class TestVerifyHole:
    def test_s9_singletons_from_bicoloring_classes(self, s9_sys):
        # classes of a (1,4,4) bicoloring never share a triple three ways
        from stsramsey import bicoloring_search
        bi = bicoloring_search(s9_sys)
        parts = tuple(frozenset([bi.class_vertices(c)[0]]) for c in (1, 2, 3))
        assert verify_hole(s9_sys, HoleCertificate(k=3, a=1, parts=parts))

    def test_single_triple_meets_all_three_singletons(self):
        ts = build_system(3, [(0, 1, 2)])
        h = HoleCertificate(k=3, a=1, parts=(frozenset([0]), frozenset([1]), frozenset([2])))
        assert verify_hole(ts, h) is False

    def test_unequal_sizes_malformed(self, fano_sys):
        h = HoleCertificate(k=2, a=1, parts=(frozenset([0]), frozenset([1, 2])))
        with pytest.raises(MalformedCertificate):
            verify_hole(fano_sys, h)

    def test_overlap_malformed(self, fano_sys):
        h = HoleCertificate(k=2, a=2, parts=(frozenset([0, 1]), frozenset([1, 2])))
        with pytest.raises(MalformedCertificate):
            verify_hole(fano_sys, h)

    def test_out_of_range_malformed(self, fano_sys):
        h = HoleCertificate(k=2, a=1, parts=(frozenset([0]), frozenset([9])))
        with pytest.raises(MalformedCertificate):
            verify_hole(fano_sys, h)

    @pytest.mark.parametrize("bad", [0.5, "x", True])
    def test_non_int_vertex_malformed(self, fano_sys, bad):
        h = HoleCertificate(k=3, a=1, parts=(frozenset([bad]), frozenset([3]), frozenset([5])))
        with pytest.raises(MalformedCertificate):
            verify_hole(fano_sys, h)

    def test_matches_brute_force_on_random_certificates(self, s9_sys):
        rng = random.Random(11)
        for _ in range(300):
            a = rng.randrange(1, 4)
            verts = rng.sample(range(9), 3 * a)
            parts = tuple(frozenset(verts[i * a:(i + 1) * a]) for i in range(3))
            h = HoleCertificate(k=3, a=a, parts=parts)
            assert verify_hole(s9_sys, h) == brute_hole_ok(
                9, s9_sys.triples, parts)


class TestOneSystemType:
    @pytest.mark.parametrize("s", [bose(15), skolem(19)], ids=["bose15", "skolem19"])
    def test_labeled_construction_equals_unlabeled_read_back(self, s, tmp_path):
        # labels ride along on the one system type but stay out of equality,
        # and no search may depend on whether they are present
        path = tmp_path / "s.sts"
        write_system(s, path)
        back = read_system(path)
        assert back == s
        assert back.labels is None and s.labels is not None
        assert infer_labels(back).labels == s.labels
        assert s.base is s
        cap = SearchBudget(max_nodes=20_000)
        labeled, bare = alpha_star(s, 3, cap), alpha_star(back, 3, cap)
        assert (labeled.value, labeled.exact, labeled.budget_spent.nodes) == (
            bare.value, bare.exact, bare.budget_spent.nodes)
