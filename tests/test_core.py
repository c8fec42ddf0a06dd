import hashlib
import random
import tracemalloc
from dataclasses import replace

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
    TripleSystem,
    SearchBudget,
    VertexOutOfRange,
    alpha_star,
    bicoloring_search,
    binomial_3graph,
    bose,
    build_system,
    fano,
    infer_labels,
    is_steiner,
    largest_mono_component,
    linearize,
    mono_components,
    s9,
    skolem,
    skolem_coloring,
    random_sts,
    triangle_removal,
    validate_steiner,
    verify_hole,
)
from stsramsey.constructions import layer_automorphisms
from stsramsey.core import (
    flood_components,
    mask_vertices,
    pair_counts,
    shadow,
    vertex_mask,
)
from stsramsey.io import format_system, parse_system, read_system, write_system

from oracles import (brute_components, brute_hole_ok, brute_pair_degrees,
                     layer_group_by_closure)


def fano_lines():
    return [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]


class TestBuildSystem:
    def test_smallest_system(self):
        ts = build_system(3, [(0, 1, 2)])
        assert ts.m == 1
        assert ts.pair_count == 3

    def test_fano_lines(self):
        ts = build_system(7, fano_lines())
        assert ts.m == 7
        validate_steiner(ts)

    def test_two_triples_on_one_pair_build_but_fail_validation(self):
        ts = build_system(7, [(0, 1, 2), (0, 1, 3)])  # no DuplicateTriple
        with pytest.raises(PairMulticovered) as err:
            validate_steiner(ts)
        assert err.value.pair == (0, 1)

    # build_system is the constructor call, so each error test runs both
    def test_duplicate_triple(self):
        for make in (build_system, TripleSystem):
            with pytest.raises(DuplicateTriple):
                make(5, [(0, 1, 2), (2, 1, 0)])

    def test_vertex_out_of_range(self):
        for make in (build_system, TripleSystem):
            with pytest.raises(VertexOutOfRange):
                make(3, [(0, 1, 3)])
            with pytest.raises(VertexOutOfRange):
                make(5, [(0, 1, 1)])

    def test_triples_normalized_sorted(self):
        ts = build_system(5, [(4, 0, 2)])
        assert ts.triples[0] == Triple(0, 2, 4)

    @pytest.mark.parametrize("n,triples", [
        (0, []),
        (3, [(2, 1, 0)]),
        (5, [(4, 0, 2), (1, 3, 0), (2, 3, 4)]),
        (7, fano_lines()),
        (1100, [(0, 1, 2)]),
    ])
    def test_accepted_system_survives_the_file_format(self, n, triples):
        ts = build_system(n, triples)
        assert parse_system(format_system(ts)) == ts

    def test_first_bad_triple_is_reported(self):
        for make in (build_system, TripleSystem):
            with pytest.raises(DuplicateTriple):
                make(3, [(0, 1, 2), (0, 1, 2), (0, 1, 3)])
            with pytest.raises(VertexOutOfRange, match=r"^vertex 3 not in \[0, 3\)$"):
                make(3, [(0, 1, 3), (0, 1, 2), (0, 1, 2)])

    @pytest.mark.parametrize("n,triples,error,message", [
        (3, [(0, 1, 1)], VertexOutOfRange, "not three distinct vertices: (0, 1, 1)"),
        (3, [(0, 1)], VertexOutOfRange, "not three distinct vertices: (0, 1)"),
        (3, [(0, 1, 3)], VertexOutOfRange, "vertex 3 not in [0, 3)"),
        (3, [(2, 1, -1)], VertexOutOfRange, "vertex -1 not in [0, 3)"),
        (5, [(0, 1, 2), (2, 1, 0)], DuplicateTriple, "triple (0, 1, 2) listed twice"),
        (5, [(4, 3, 1), (3, 1, 4)], DuplicateTriple, "triple (1, 3, 4) listed twice"),
        # the file format holds ints only: written as "False True 2" or
        # "0 1.0 2", these systems could not be read back
        (3, [(False, True, 2)], VertexOutOfRange, "vertex False is not an int"),
        (3, [(0, 1.0, 2)], VertexOutOfRange, "vertex 1.0 is not an int"),
        # nor a vertex count: the headers "3.0 1" and "True 0" do not parse
        (3.0, [(0, 1, 2)], VertexOutOfRange, "vertex count 3.0 is not an int"),
        (True, [], VertexOutOfRange, "vertex count True is not an int"),
        # a vertex that is no number, even an unhashable one, is named
        (3, [(0, 1, "2")], VertexOutOfRange, "vertex '2' is not an int"),
        (3, [("a", "b", "c")], VertexOutOfRange, "vertex 'a' is not an int"),
        (3, [(None, 1, 2)], VertexOutOfRange, "vertex None is not an int"),
        (3, [(0, [1], 2)], VertexOutOfRange, "vertex [1] is not an int"),
        # the range test reads the int vertices of a mixed triple
        (3, [(0, 1.5, 7)], VertexOutOfRange, "vertex 7 not in [0, 3)"),
        (3, [(0, 0, 1)], VertexOutOfRange, "not three distinct vertices: (0, 0, 1)"),
        (-1, [], VertexOutOfRange, "negative vertex count -1"),
    ])
    def test_error_messages(self, n, triples, error, message):
        for make in (build_system, TripleSystem):
            with pytest.raises(error) as err:
                make(n, triples)
            assert str(err.value) == message


# raises that no other test reaches, with their messages
@pytest.mark.parametrize("call, error, message", [
    (lambda: validate_steiner(fano(), labels=("x",)), ValueError,
     "label count differs from triple count"),
    (lambda: replace(bose(9), triples=bose(9).triples[:-1]), ValueError,
     "label count differs from triple count"),
    (lambda: EdgeColoring(fano(), 3, (0,)), ValueError, "one color per triple required"),
    (lambda: verify_hole(fano(), HoleCertificate(k=3, a=1, parts=(frozenset([0]),))),
     MalformedCertificate, "k=3 but 1 parts given"),
], ids=["labels", "replaced-triples-keep-labels", "colors", "hole-parts"])
def test_rejected_input_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


class TestValidateSteiner:
    def test_fano_accepted(self):
        st = validate_steiner(build_system(7, fano_lines()))
        assert st.m == 7 == 7 * 6 // 6

    def test_bose9_accepted(self):
        assert bose(9).m == 12

    def test_missing_line_reports_uncovered_pair(self):
        # the missing line is (0, 1, 3), so (0, 1) is the first bad pair
        with pytest.raises(PairUncovered) as err:
            validate_steiner(build_system(7, fano_lines()[1:]))
        assert err.value.pair == (0, 1)

    def test_extra_triple_reports_multicovered_pair(self):
        # every pair is still covered, (0, 1), (0, 2) and (1, 2) twice
        with pytest.raises(PairMulticovered) as err:
            validate_steiner(build_system(7, fano_lines() + [(0, 1, 2)]))
        assert (err.value.pair, err.value.count) == ((0, 1), 2)
        with pytest.raises(DuplicateTriple):  # (0, 1, 3) is already a line
            build_system(7, fano_lines() + [(0, 1, 3)])

    def test_swapped_line_with_the_steiner_triple_count(self):
        # 7 triples, as a Fano plane has, but (0, 2, 6) swapped for (0, 1, 2):
        # (0, 6) and (2, 6) go uncovered, and (0, 1) comes first, twice
        lines = [t for t in fano_lines() if t != (0, 2, 6)] + [(0, 1, 2)]
        with pytest.raises(PairMulticovered) as err:
            validate_steiner(build_system(7, lines))
        assert (err.value.pair, err.value.count) == ((0, 1), 2)
        assert not is_steiner(build_system(7, lines))

    # the first bad pair of non-linear binomial graphs, recorded while
    # validation read a pair -> triples index
    @pytest.mark.parametrize("n, p, seed, error, pair, count", [
        (13, 0.12, 0, PairMulticovered, (0, 2), 2),
        (13, 0.3, 3, PairMulticovered, (0, 2), 2),
        (19, 0.2, 3, PairMulticovered, (0, 2), 3),
        (13, 0.6, 3, PairMulticovered, (0, 1), 8),
        (15, 0.12, 6, PairUncovered, (0, 2), None),
        (19, 0.05, 4, PairUncovered, (0, 1), None),
    ])
    def test_first_bad_pair_of_binomial_graphs(self, n, p, seed, error, pair, count):
        g = binomial_3graph(n, p, seed)
        assert not g.linear
        with pytest.raises(error) as err:
            validate_steiner(g)
        assert err.value.pair == pair and getattr(err.value, "count", None) == count
        covered = f"by {count} triples" if count else "by no triple"
        assert str(err.value) == f"pair {pair} is covered {covered}"

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            validate_steiner(build_system(5, [(0, 1, 2)]))

    def test_degenerate_n3(self):
        st = validate_steiner(build_system(3, [(0, 1, 2)]))
        assert st.n == 3 and st.m == 1


def oracle_pair_facts(system):
    """(covered pairs, Steiner, linear) of ``system`` from the brute oracle."""
    degrees = brute_pair_degrees(system.triples)
    n = system.n
    linear = all(d == 1 for d in degrees.values())
    return len(degrees), n % 6 in (1, 3) and linear and len(degrees) == n * (n - 1) // 2, linear


class TestPairCount:
    # each case with the (Steiner, linear) outcome its triples have
    @pytest.mark.parametrize("make, kind", [
        pytest.param(fano, (True, True), id="fano"),
        pytest.param(s9, (True, True), id="s9"),
        pytest.param(lambda: bose(15), (True, True), id="bose15"),
        pytest.param(lambda: skolem(13), (True, True), id="skolem13"),
        pytest.param(lambda: triangle_removal(19, 28, 5).system, (False, True),
                     id="triangle-removal-19-28-5"),
        pytest.param(lambda: triangle_removal(21, 35, 2).system, (False, True),
                     id="triangle-removal-21-35-2"),
        pytest.param(lambda: triangle_removal(99, 808, 1).system, (False, True),
                     id="triangle-removal-99-808-1"),
        pytest.param(lambda: binomial_3graph(13, 0.3, 3), (False, False), id="binomial-13-0.3-3"),
        pytest.param(lambda: binomial_3graph(15, 0.12, 6), (False, False), id="binomial-15-0.12-6"),
        pytest.param(lambda: binomial_3graph(45, 0.01, 3), (False, False), id="binomial-45-0.01-3"),
        pytest.param(lambda: build_system(5, [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 4)]),
                     (False, False), id="multicovered5"),
    ])
    def test_agrees_with_the_oracle(self, make, kind):
        system = make()
        expected = oracle_pair_facts(system)
        assert expected[1:] == kind
        assert (system.pair_count, is_steiner(system), system.linear) == expected

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: bose(15), id="bose15"),
        pytest.param(lambda: build_system(5, [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 4)]),
                     id="multicovered5"),
    ])
    def test_pair_counts_agree_with_the_oracle(self, make):
        # the per-call table holds each covered pair's triple count
        system = make()
        n = system.n
        got = {(code // n, code % n): k for code, k in pair_counts(system).items()}
        assert got == brute_pair_degrees(system.triples)

    def test_follows_replaced_triples(self):
        # dropping the last triple uncovers its three pairs
        full = bose(99)
        cut = replace(full, triples=full.triples[:-1], labels=None)
        assert cut.pair_count == full.pair_count - 3
        assert (cut.pair_count, is_steiner(cut), cut.linear) == oracle_pair_facts(cut) \
            == (99 * 98 // 2 - 3, False, True)

    def test_labeled_copy_counts_the_same_pairs(self, tmp_path):
        s = bose(27)
        path = tmp_path / "b27.sts"
        write_system(s, path)
        labeled = infer_labels(read_system(path))
        assert labeled.labels == s.labels
        assert labeled.pair_count == s.pair_count == oracle_pair_facts(labeled)[0] == 27 * 26 // 2
        assert is_steiner(labeled)

    @pytest.mark.parametrize("make", [lambda: bose(99), lambda: skolem(97)],
                             ids=["bose99", "skolem97"])
    def test_labeled_construction_keeps_the_cached_count(self, make):
        # validate_steiner counts the pairs before it copies the system with
        # its labels; the copy carries that count and never counts again
        s = make()
        assert s.labels is not None and "pair_count" in s.__dict__
        assert s.pair_count == oracle_pair_facts(s)[0] == s.n * (s.n - 1) // 2

    @pytest.mark.parametrize("make", [lambda: bose(99), lambda: skolem(97)],
                             ids=["bose99", "skolem97"])
    def test_labeled_copy_does_not_run_the_constructor_again(self, make):
        # the constructor builds a new tuple of triples, so the same tuple
        # shows that the labelled copy took s's checked triples as they were
        s = make()
        copy = validate_steiner(s, s.labels)
        assert copy is not s and copy.labels == s.labels
        assert copy.triples is s.triples and "pair_count" in copy.__dict__

    def test_derived_when_constructed_directly(self):
        ts = TripleSystem(n=3, triples=(Triple(0, 1, 2),))
        assert (ts.pair_count, is_steiner(ts), ts.linear) == oracle_pair_facts(ts) == (3, True, True)

    def test_unsorted_triples_count_each_pair_once(self):
        # the triples may be listed in any vertex order, and the constructor
        # sorts them; the pair (0, 1) lies in both triples
        ts = TripleSystem(7, ((1, 0, 2), (0, 1, 3)))
        assert (ts.pair_count, ts.linear) == (5, False)
        assert pair_counts(ts)[0 * 7 + 1] == 2

    def test_shuffled_copies_count_the_same_pairs(self):
        # fano with its triple {2, 3, 5} moved onto {1, 2, 3}: pairs (1, 2)
        # and (1, 3) covered twice, (2, 5) and (3, 5) not at all; the
        # constructor sorts each shuffled triple, so the two covers of a
        # pair get one pair code
        triples = [t for t in fano().triples if t != (2, 3, 5)] + [(1, 2, 3)]
        bad = build_system(7, triples)
        assert not is_steiner(bad)
        assert not is_steiner(TripleSystem(7, tuple(bad.triples[:-1]) + ((3, 2, 1),)))
        rng = random.Random(3)
        for system in (bad, triangle_removal(19, 28, 5).system, binomial_3graph(13, 0.3, 3)):
            for _ in range(5):
                shuffled = tuple(tuple(rng.sample(t, 3)) for t in system.triples)
                copy = TripleSystem(system.n, shuffled)
                assert (copy.pair_count, is_steiner(copy), copy.linear) == \
                    oracle_pair_facts(system)
                assert pair_counts(copy) == pair_counts(system)

    def test_is_steiner_keeps_no_pair_table(self):
        # the system caches one int, not a table of its n(n-1)/2 pairs
        # (a dict of pair tuples held about 480 KB here)
        s = TripleSystem(99, bose(99).triples)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            assert is_steiner(s)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 4096


class TestEdgeColoring:
    # a float or bool color used to be kept, written to coloring files and
    # returned in mc_exact certificates; 0.5 put a triple in no color class
    @pytest.mark.parametrize("colors", [
        (0.0, True, 2, 0, 1, 2, 0),
        (0.5,) * 7,
        (0, 1, 2, 0, 1, 2, "0"),
        (0, 1, 2, 0, 1, 2, 3),
        (-1, 1, 2, 0, 1, 2, 0),
    ])
    def test_color_that_is_not_an_int_in_range_rejected(self, fano_sys, colors):
        with pytest.raises(ValueError, match="is not an int in"):
            EdgeColoring(system=fano_sys, r=3, colors=colors)

    @pytest.mark.parametrize("r", [3.0, True, "3", 0])
    def test_color_count_that_is_not_a_positive_int_rejected(self, fano_sys, r):
        with pytest.raises(ValueError, match="is not an int >= 1"):
            EdgeColoring(system=fano_sys, r=r, colors=(0,) * 7)

    # a list used to be kept: a caller's later write put a color outside
    # [0, r) into the coloring, and the coloring did not hash
    @pytest.mark.parametrize("make", [list, lambda colors: (c for c in colors)],
                             ids=["list", "generator"])
    def test_colors_are_kept_as_a_tuple(self, fano_sys, make):
        colors = (0, 1, 2, 0, 1, 2, 0)
        c = EdgeColoring(system=fano_sys, r=3, colors=make(colors))
        same = EdgeColoring(system=fano_sys, r=3, colors=colors)
        assert type(c.colors) is tuple and c.colors == colors
        assert c == same and hash(c) == hash(same)

    def test_a_later_write_to_the_callers_list_changes_nothing(self, fano_sys):
        colors = [0] * 7
        c = EdgeColoring(system=fano_sys, r=3, colors=colors)
        colors[0] = 5
        assert c.colors == (0,) * 7
        assert largest_mono_component(c) == (7, 0, frozenset(range(7)))


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

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_partial_system_with_isolated_vertices(self, r):
        rng = random.Random(r)
        for seed in range(8):
            system = triangle_removal(19, 8, seed).system
            assert len({v for t in system.triples for v in t}) < system.n
            colors = tuple(rng.randrange(r) for _ in range(system.m))
            c = EdgeColoring(system=system, r=r, colors=colors)
            comps = mono_components(c)
            sizes = [0]
            for color in range(r):
                tris = [t for t, k in zip(system.triples, colors) if k == color]
                expected = brute_components(tris)
                assert set(comps.components[color]) == expected
                assert len(comps.components[color]) == len(expected)
                assert comps.components[color] == tuple(sorted(expected, key=sorted))
                assert comps.spanned[color] == frozenset(v for t in tris for v in t)
                sizes += [len(x) for x in expected]
            size, color, verts = largest_mono_component(c)
            assert size == max(sizes) == len(verts)
            assert size == 0 or verts in comps.components[color]

    @pytest.mark.parametrize("system", [bose(15), skolem(19), bose(99)],
                             ids=["bose15", "skolem19", "bose99"])
    def test_flood_fill_inside_a_vertex_mask(self, system):
        # components of the shadow graph cut down to a vertex subset S: two
        # vertices of S are adjacent when one triple holds both
        rng = random.Random(system.n)
        adj = shadow(system.n, system.triples[::3])
        for _ in range(40):
            S = rng.sample(range(system.n), rng.randrange(1, system.n + 1))
            cuts = [[v for v in t if v in S] for t in system.triples[::3]]
            expected = brute_components([e for e in cuts if len(e) >= 2])
            expected |= {frozenset([v]) for v in S if not any(v in e for e in expected)}
            got = [mask_vertices(m) for m in flood_components(adj, vertex_mask(S))]
            assert set(got) == expected and len(got) == len(expected)
            assert got == sorted(got, key=min)

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
        parts = tuple(frozenset([bi.classes.index(c)]) for c in (1, 2, 3))
        assert verify_hole(s9_sys, HoleCertificate(k=3, a=1, parts=parts))

    def test_single_triple_meets_all_three_singletons(self):
        ts = build_system(3, [(0, 1, 2)])
        h = HoleCertificate(k=3, a=1, parts=(frozenset([0]), frozenset([1]), frozenset([2])))
        assert verify_hole(ts, h) is False

    # every triple meets all of no parts, and none meets four or more
    @pytest.mark.parametrize("ts, k, a", [
        (build_system(3, [(0, 1, 2)]), 0, 0),
        (build_system(3, []), 0, 0),
        (fano(), 4, 0),
        (fano(), 5, 1),
        (bose(21), 7, 3),
    ], ids=["no-parts", "no-parts-no-triples", "four-empty-parts", "five-parts", "seven-parts"])
    def test_part_counts_outside_two_to_three(self, ts, k, a):
        parts = tuple(frozenset(range(i * a, (i + 1) * a)) for i in range(k))
        got = verify_hole(ts, HoleCertificate(k=k, a=a, parts=parts))
        assert got is brute_hole_ok(ts.n, ts.triples, parts) is (k > 0 or not ts.triples)

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

    @pytest.mark.parametrize("k, a, parts, message", [
        (3, 1, ([0], [1], [2]), "part [0] is not a set"),
        (3, 1, (frozenset([0]), frozenset([1]), 3), "part 3 is not a set"),
        (3, True, (frozenset([0]), frozenset([1]), frozenset([2])), "a True is not an int"),
        (True, 1, (frozenset([0]),), "k True is not an int"),
        (3.0, 1, (frozenset([0]), frozenset([1]), frozenset([2])), "k 3.0 is not an int"),
        (3, 1, None, "parts None is not a tuple or list"),
        (3, 1, 3, "parts 3 is not a tuple or list"),
    ], ids=["list-part", "int-part", "bool-a", "bool-k", "float-k", "none-parts", "int-parts"])
    def test_wrong_types_malformed(self, fano_sys, k, a, parts, message):
        # each used to raise TypeError or pass: a list has no &, an int or
        # None no len(), and True == 1
        h = HoleCertificate(k=k, a=a, parts=parts)
        with pytest.raises(MalformedCertificate) as err:
            verify_hole(fano_sys, h)
        assert str(err.value) == message

    @pytest.mark.parametrize("system", [bose(15), triangle_removal(19, 28, 5).system, bose(99)],
                             ids=["bose15", "removal19", "bose99"])
    def test_matches_brute_force_for_k_2_to_4(self, system):
        # bose(99) puts parts on vertices past 63, beyond one machine word
        rng = random.Random(system.n)
        verdicts = set()
        for k in (2, 3, 4):
            for _ in range(150):
                a = rng.randrange(1, min(4, system.n // k) + 1)
                verts = rng.sample(range(system.n), k * a)
                parts = tuple(frozenset(verts[i * a:(i + 1) * a]) for i in range(k))
                got = verify_hole(system, HoleCertificate(k=k, a=a, parts=parts))
                assert got == brute_hole_ok(system.n, system.triples, parts)
                verdicts.add((k, got))
        assert {(2, False), (3, True), (3, False), (4, True)} <= verdicts

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


def _reversed(s, as_triples):
    """s built directly from its triples, each listed backwards, as ``Triple``
    objects or as plain int tuples."""
    make = Triple if as_triples else lambda *vs: vs
    return TripleSystem(s.n, tuple(make(c, b, a) for a, b, c in s.triples))


HAND_BUILT = pytest.mark.parametrize("as_triples", [True, False],
                                     ids=["reversed-Triples", "plain-tuples"])


class TestHandBuiltSystem:
    # a system built directly, with its triples listed backwards, equals its
    # build_system twin and gives the same answers: the functions below
    # read each triple as sorted
    @HAND_BUILT
    def test_equals_its_build_system_twin(self, as_triples):
        s = skolem(13)
        hand = _reversed(s, as_triples)
        assert hand == s and hand.triples == s.triples
        assert all(type(t) is Triple for t in hand.triples)

    @HAND_BUILT
    def test_linearize_keeps_the_same_triples(self, as_triples):
        g = binomial_3graph(20, 1 / 40, 5)
        kept = linearize(_reversed(g, as_triples))
        assert kept == linearize(g) and kept.m == 10

    @HAND_BUILT
    @pytest.mark.parametrize("make", [fano, s9, lambda: bose(9)], ids=["fano", "s9", "bose9"])
    def test_bicoloring_search_finds_the_same_classes(self, make, as_triples):
        s = make()
        assert bicoloring_search(_reversed(s, as_triples)).classes == \
            bicoloring_search(s).classes

    @HAND_BUILT
    def test_skolem_coloring_gives_the_same_colors(self, as_triples):
        s = skolem(13)
        assert skolem_coloring(_reversed(s, as_triples)).colors == skolem_coloring(s).colors

    @HAND_BUILT
    def test_alpha_star_keeps_its_layer_group(self, as_triples):
        # without the group, the same search takes 264,767 nodes
        res = alpha_star(_reversed(bose(21), as_triples), 3)
        assert (res.value, res.exact, res.budget_spent.nodes) == (5, True, 13_934)

    @HAND_BUILT
    @pytest.mark.parametrize("make", [fano, lambda: skolem(13), lambda: bose(21)],
                             ids=["fano", "skolem13", "bose21"])
    def test_file_format_round_trip(self, make, as_triples):
        s = make()
        text = format_system(_reversed(s, as_triples))
        assert text == format_system(s) and parse_system(text) == s


def _relabeled(s, seed):
    perm = list(range(s.n))
    random.Random(seed).shuffle(perm)
    return build_system(s.n, [(perm[x], perm[y], perm[z]) for x, y, z in s.triples])


def _cell_permuted_bose21(seed):
    """bose(21) with cell a renamed perm[a]: the triples it gives over a
    seeded random idempotent quasigroup."""
    perm = list(range(7))
    random.Random(seed).shuffle(perm)
    return build_system(21, [[3 * perm[v // 3] + v % 3 for v in t] for t in bose(21).triples])


def _orbit_union(seed):
    """A partial system: a few seeded triples of a Bose or Skolem system,
    closed under two seeded elements of its layer group."""
    rng = random.Random(seed)
    base = rng.choice([bose(15), bose(21), bose(27), skolem(19), skolem(25)])
    maps = rng.sample(layer_automorphisms(base), 2)
    triples = set(rng.sample(base.triples, rng.randint(1, 3)))
    new = set(triples)
    while new:
        new = {tuple(sorted(g[v] for v in t)) for t in new for g in maps} - triples
        triples |= new
    return build_system(base.n, sorted(triples))


LAYER_GROUP_ROWS = (
    [(f"bose{n}", lambda n=n: bose(n)) for n in range(9, 46, 6)]
    + [(f"skolem{n}", lambda n=n: skolem(n)) for n in range(7, 44, 6)]
    + [("fano", fano), ("s9", s9), ("relabeled-bose21", lambda: _relabeled(bose(21), 5))]
    + [(f"random{n}-{seed}", lambda n=n, seed=seed: random_sts(n, seed))
       for n, seed in [(19, 1), (21, 2), (25, 3)]]
    + [(f"cell-permuted-bose21-{seed}", lambda seed=seed: _cell_permuted_bose21(seed))
       for seed in (1, 2, 3)]
    + [(f"empty{n}", lambda n=n: TripleSystem(n, ())) for n in (0, 1, 3, 4, 7, 9, 13, 21)]
    + [(f"orbit-union-{seed}", lambda seed=seed: _orbit_union(seed)) for seed in range(12)]
)


def _is_automorphism(g, s):
    triples = {frozenset(t) for t in s.triples}
    return sorted(g) == list(range(s.n)) and all(
        frozenset(g[v] for v in t) in triples for t in triples)


class TestLayerAutomorphisms:
    @pytest.mark.parametrize("s, order", [
        (bose(21), 126), (bose(27), 162),
        (skolem(13), 3), (skolem(19), 3), (skolem(25), 3),
    ], ids=["bose21", "bose27", "skolem13", "skolem19", "skolem25"])
    def test_group_orders(self, s, order):
        # Bose keeps all of Z3 x AGL(1, Z_q), order 3q * phi(q); Skolem keeps
        # the layer rotation alone
        group = layer_automorphisms(s)
        assert len(group) == len(set(group)) == order
        assert group[0] == tuple(range(s.n))
        assert all(_is_automorphism(g, s) for g in group)

    @pytest.mark.parametrize("s, digest", [
        (bose(21), "b739c885c1846dde"), (bose(27), "5b32da5d89e333a3"),
        (bose(99), "ce029f0382c119a2"), (skolem(25), "026a01ad8b7040da"),
    ], ids=["bose21", "bose27", "bose99", "skolem25"])
    def test_elements_and_their_order_are_pinned(self, s, digest):
        # the elements come as units, then shifts, then turns, the identity
        # first; the search reads them as a set, which
        # tests/test_search.py::TestLeftOutRoute::test_search_reads_the_group_as_a_set pins
        group = layer_automorphisms(s)
        assert hashlib.sha256(repr(group).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("s", [bose(21), bose(27), skolem(19)],
                             ids=["bose21", "bose27", "skolem19"])
    def test_elements_form_a_group(self, s):
        group = set(layer_automorphisms(s))
        for g in group:
            assert tuple(g.index(v) for v in range(s.n)) in group
            for h in group:
                assert tuple(h[v] for v in g) in group

    @pytest.mark.parametrize("n, seed", [(19, 1), (21, 2), (25, 3), (27, 1)])
    def test_random_systems_get_the_identity(self, n, seed):
        assert layer_automorphisms(random_sts(n, seed)) == (tuple(range(n)),)

    def test_relabeled_bose_gets_the_identity(self):
        assert layer_automorphisms(_relabeled(bose(21), 5)) == (tuple(range(21)),)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_quasigroup_keeps_only_verified_elements(self, seed):
        # the layer rotation holds for every quasigroup; the translation and
        # the scalings hold only where the quasigroup allows them
        s = _cell_permuted_bose21(seed)
        group = layer_automorphisms(s)
        rotation = tuple(3 * (v // 3) + (v + 1) % 3 for v in range(21))
        assert rotation in group
        assert 3 <= len(group) <= 126 and 126 % len(group) == 0
        assert all(_is_automorphism(g, s) for g in group)

    @pytest.mark.parametrize("make", [make for _, make in LAYER_GROUP_ROWS],
                             ids=[name for name, _ in LAYER_GROUP_ROWS])
    def test_elements_are_the_closure_of_the_maps_that_pass(self, make):
        # the closure of an independent oracle, as a set, with the identity
        # first and no element twice
        s = make()
        group, closure = layer_automorphisms(s), layer_group_by_closure(s.n, s.triples)
        assert set(group) == closure and len(group) == len(closure)
        assert group[0] == tuple(range(s.n))

    @pytest.mark.parametrize("s", [fano(), s9(), build_system(3, [(0, 1, 2)]),
                                   build_system(19, [(0, 1, 2), (3, 4, 5)])],
                             ids=["fano", "s9", "single", "partial19"])
    def test_every_element_maps_triples_onto_triples(self, s):
        assert all(_is_automorphism(g, s) for g in layer_automorphisms(s))

    @pytest.mark.parametrize("s", [bose(15), skolem(19)], ids=["bose15", "skolem19"])
    def test_labels_are_not_read(self, s, tmp_path):
        path = tmp_path / "s.sts"
        write_system(s, path)
        back = read_system(path)
        assert back.labels is None and s.labels is not None
        assert layer_automorphisms(back) == layer_automorphisms(s)
