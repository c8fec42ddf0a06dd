import random

import pytest

from stsramsey import (
    BadK,
    EdgeColoring,
    InvalidHole,
    SearchBudget,
    alpha_star,
    bose,
    build_system,
    fano,
    hole_coloring,
    independence_number,
    mc_exact,
    mc_upper_from_coloring,
    s9,
    skolem,
    validate_steiner,
    verify_hole,
)

from oracles import (
    brute_alpha,
    brute_alpha_star2,
    brute_alpha_star3,
    brute_mc2,
    brute_mc3,
    max_component_size,
)


def single_triple():
    return build_system(3, [(0, 1, 2)])


class TestIndependenceNumber:
    def test_fano(self, fano_sys):
        res = independence_number(fano_sys)
        assert res.exact and res.value == 4 == brute_alpha(7, fano_sys.triples)

    def test_s9(self, s9_sys):
        res = independence_number(s9_sys)
        assert res.exact and res.value == 4 == brute_alpha(9, s9_sys.triples)

    def test_single_triple(self):
        res = independence_number(single_triple())
        assert res.exact and res.value == 2

    def test_certificate_is_independent(self, s9_sys):
        cert = independence_number(s9_sys).lower_certificate
        assert len(cert) == 4
        assert not any(set(t) <= cert for t in s9_sys.triples)

    def test_budget_exhaustion_is_not_an_error(self, s9_sys):
        res = independence_number(s9_sys, SearchBudget(max_nodes=3))
        assert not res.exact
        assert res.value >= 1  # greedy seed survives

    def test_search_depth_is_not_bounded_by_recursion_limit(self):
        # 1100 vertices, deeper than the default recursion limit
        res = independence_number(build_system(1100, [(1097, 1098, 1099)]),
                                  SearchBudget(max_nodes=100_000))
        assert res.exact and res.value == 1099
        assert res.budget_spent.nodes == 1100

    def test_alpha_star_at_least_alpha_over_k(self):
        for system in (fano(), s9(), skolem(13)):
            a = independence_number(system).value
            astar = alpha_star(system, 3).value
            assert astar >= a // 3


class TestAlphaStar:
    def test_fano(self, fano_sys):
        res = alpha_star(fano_sys, 3)
        assert res.exact and res.value == 1

    def test_s9(self, s9_sys):
        res = alpha_star(s9_sys, 3)
        assert res.exact and res.value == 2
        assert verify_hole(s9_sys, res.lower_certificate)

    def test_single_triple(self):
        res = alpha_star(single_triple(), 3)
        assert res.exact and res.value == 0

    def test_matches_brute_force(self, fano_sys, s9_sys):
        assert alpha_star(fano_sys, 3).value == brute_alpha_star3(7, fano_sys.triples)
        assert alpha_star(s9_sys, 3).value == brute_alpha_star3(9, s9_sys.triples)

    def test_bad_k(self, fano_sys):
        with pytest.raises(BadK):
            alpha_star(fano_sys, 1)

    def test_k2_of_steiner_is_zero(self, fano_sys):
        # every pair lies in a triple, so two disjoint parts always cross one
        assert alpha_star(fano_sys, 2).value == 0

    def test_k4_is_trivial_floor(self, fano_sys):
        # a triple cannot meet four disjoint parts
        res = alpha_star(fano_sys, 4)
        assert res.exact and res.value == 7 // 4

    def test_bose27_hole_at_least_two_ninths(self):
        # refuting 8 at n=27 exceeds any desk budget; the ladder still has
        # to climb to a certified hole of size >= 2n/9 within it
        system = bose(27)
        res = alpha_star(system, 3, SearchBudget(max_nodes=300_000, max_seconds=30))
        assert res.value >= 6
        assert verify_hole(system, res.lower_certificate)
        assert res.lower_certificate.a == res.value

    def test_rejected_certificate_raises_even_under_optimization(self, s9_sys, monkeypatch):
        # the certificate check must be an explicit raise, not an assert
        # that python -O strips
        monkeypatch.setattr("stsramsey.search.verify_hole", lambda ts, h: False)
        with pytest.raises(InvalidHole):
            alpha_star(s9_sys, 3)

    @pytest.mark.parametrize("system, cap, value, nodes", [
        (skolem(25), 150_000, 7, 2_100),
        (bose(21), 500_000, 5, 264_704),
    ], ids=["skolem25", "bose21"])
    def test_forward_checking_settles_within_cap(self, system, cap, value, nodes):
        # index-order backtracking left both inexact at these caps; skolem(25)
        # ends at the cap floor(n/3) - 1, bose(21) by refuting 6.  The node
        # counts pin the pruning and the branching order
        res = alpha_star(system, 3, SearchBudget(max_nodes=cap))
        assert res.exact and res.value == value
        assert res.budget_spent.nodes == nodes
        assert verify_hole(system, res.lower_certificate)

    def test_search_depth_is_not_bounded_by_recursion_limit(self):
        # 1100 vertices, deeper than the default recursion limit
        system = build_system(1100, [(0, 1, 2)])
        res = alpha_star(system, 3, SearchBudget(max_nodes=100_000))
        assert not res.exact and res.budget_spent.nodes == 100_000
        assert res.value > 0 and res.lower_certificate.a == res.value
        assert verify_hole(system, res.lower_certificate)

    def test_partial_system_uses_trivial_upper_bound(self):
        # half a system: the Steiner cap does not apply
        from stsramsey import triangle_removal
        partial = triangle_removal(13, 13, 5).system
        res = alpha_star(partial, 3)
        assert res.exact and res.value <= 13 // 3


class TestMcExact:
    def test_fano(self, fano_sys):
        res = mc_exact(fano_sys, 3)
        assert res.exact and res.value == 6

    def test_s9(self, s9_sys):
        res = mc_exact(s9_sys, 3)
        assert res.exact and res.value == 7

    def test_single_triple(self):
        res = mc_exact(single_triple(), 3)
        assert res.exact and res.value == 3

    def test_matches_brute_force(self, fano_sys, s9_sys):
        assert mc_exact(fano_sys, 3).value == brute_mc3(7, fano_sys.triples)
        assert mc_exact(s9_sys, 3).value == brute_mc3(9, s9_sys.triples)

    def test_certificate_achieves_value(self, s9_sys):
        res = mc_exact(s9_sys, 3)
        assert mc_upper_from_coloring(res.lower_certificate) == res.value

    def test_budget_exceeded_returns_upper_bound(self, s9_sys):
        res = mc_exact(s9_sys, 3, SearchBudget(max_nodes=10))
        assert not res.exact
        assert res.value >= 7
        assert mc_upper_from_coloring(res.lower_certificate) == res.value

    def test_r1_gives_n(self, s9_sys):
        res = mc_exact(s9_sys, 1)
        assert res.exact and res.value == 9

    def test_value_invariant_under_relabeling(self, s9_sys):
        rng = random.Random(17)
        for _ in range(3):
            perm = list(range(9))
            rng.shuffle(perm)
            triples = [tuple(perm[v] for v in t) for t in s9_sys.triples]
            rng.shuffle(triples)
            relabeled = validate_steiner(build_system(9, triples))
            assert mc_exact(relabeled, 3).value == 7

    def test_initial_coloring_seed_preserves_value(self, s9_sys):
        hole = alpha_star(s9_sys, 3).lower_certificate
        seed = hole_coloring(s9_sys, hole)
        res = mc_exact(s9_sys, 3, initial=seed)
        assert res.exact and res.value == 7

    def test_initial_for_other_system_rejected(self, fano_sys, s9_sys):
        wrong = EdgeColoring(system=fano_sys, r=3, colors=(0,) * 7)
        with pytest.raises(ValueError):
            mc_exact(s9_sys, 3, initial=wrong)

    def test_search_depth_is_not_bounded_by_recursion_limit(self):
        # bose(99) has 1617 triples, deeper than the default recursion limit
        system = bose(99)
        res = mc_exact(system, 3, SearchBudget(max_nodes=20_000))
        assert not res.exact
        assert res.budget_spent.nodes == 20_000
        assert mc_upper_from_coloring(res.lower_certificate) == res.value

    @pytest.mark.parametrize("system, cap, value", [
        (skolem(13), 300_000, 10),
        (bose(15), 500_000, 11),
    ], ids=["skolem13", "bose15"])
    def test_forward_checking_refutes_below_hole_coloring(self, system, cap, value):
        # node caps pin the pruning: plain backtracking needs 1.77M nodes on
        # skolem(13) and does not finish bose(15) in 20M
        hole = alpha_star(system, 3).lower_certificate
        res = mc_exact(system, 3, SearchBudget(max_nodes=cap),
                       initial=hole_coloring(system, hole))
        assert res.exact and res.value == value
        assert res.budget_spent.nodes <= cap


class TestBudgetCaps:
    @pytest.mark.parametrize("make", [fano, s9], ids=["fano", "s9"])
    def test_node_cap_is_never_exceeded(self, make):
        system = make()
        full_mc = mc_exact(system, 3).budget_spent.nodes
        full_alpha = independence_number(system).budget_spent.nodes
        full_hole = alpha_star(system, 3).budget_spent.nodes
        for cap in range(1, 65):
            budget = SearchBudget(max_nodes=cap)
            for res, full in ((mc_exact(system, 3, budget), full_mc),
                              (independence_number(system, budget), full_alpha),
                              (alpha_star(system, 3, budget), full_hole)):
                assert res.budget_spent.nodes <= cap
                # an interrupted search spent exactly its cap; a finished
                # one explored the same tree as an unlimited run
                if res.exact:
                    assert res.budget_spent.nodes == full <= cap
                else:
                    assert res.budget_spent.nodes == cap < full


class TestDifferentialAgainstOracles:
    """Randomized cross-checks of the engines against plain enumeration."""

    def test_mc3_on_random_small_systems(self):
        rng = random.Random(2024)
        from itertools import combinations
        all_triples = list(combinations(range(7), 3))
        for _ in range(25):
            m = rng.randrange(4, 9)
            triples = rng.sample(all_triples, m)
            ts = build_system(7, triples)
            res = mc_exact(ts, 3)
            assert res.exact
            assert res.value == brute_mc3(7, ts.triples)
        # partial systems at n = 8, 9 for every color count, with and without
        # a random seed coloring (the tight-incumbent path analyze takes)
        oracles = {1: lambda n, t: max_component_size(n, t, [0] * len(t), r=1),
                   2: brute_mc2, 3: brute_mc3}
        for n in (8, 9):
            all_triples = list(combinations(range(n), 3))
            for _ in range(12):
                triples = rng.sample(all_triples, rng.randrange(1, 10))
                ts = build_system(n, triples)
                for r in (1, 2, 3):
                    expected = oracles[r](n, ts.triples)
                    seed = EdgeColoring(system=ts, r=r,
                                        colors=tuple(rng.randrange(r) for _ in triples))
                    for initial in (None, seed):
                        res = mc_exact(ts, r, initial=initial)
                        assert res.exact and res.value == expected
                        assert mc_upper_from_coloring(res.lower_certificate) == expected

    def test_alpha_star3_on_random_small_systems(self):
        rng = random.Random(4048)
        from itertools import combinations
        all_triples = list(combinations(range(8), 3))
        for _ in range(25):
            m = rng.randrange(3, 10)
            triples = rng.sample(all_triples, m)
            ts = build_system(8, triples)
            res = alpha_star(ts, 3)
            assert res.exact
            assert res.value == brute_alpha_star3(8, ts.triples)
        # partial systems at n = 9, arbitrary and linear (triples of s9), for
        # k = 2, 3, 4; no triple meets four parts, so alpha*_4 = floor(n/4)
        pools = (list(combinations(range(9), 3)), list(s9().triples))
        for _ in range(12):
            for pool in pools:
                ts = build_system(9, rng.sample(pool, rng.randrange(1, min(len(pool), 15))))
                for k, expected in ((2, brute_alpha_star2(9, ts.triples)),
                                    (3, brute_alpha_star3(9, ts.triples)),
                                    (4, 9 // 4)):
                    res = alpha_star(ts, k)
                    assert res.exact and res.value == expected
                    assert res.lower_certificate.a == expected
                    assert verify_hole(ts, res.lower_certificate)

    def test_alpha_on_random_small_systems(self):
        rng = random.Random(555)
        from itertools import combinations
        all_triples = list(combinations(range(8), 3))
        for _ in range(15):
            triples = rng.sample(all_triples, rng.randrange(3, 12))
            ts = build_system(8, triples)
            res = independence_number(ts)
            assert res.exact and res.value == brute_alpha(8, ts.triples)

    def test_two_color_paths_on_random_small_systems(self):
        from itertools import combinations
        from oracles import brute_alpha_star2, brute_mc2
        rng = random.Random(717)
        all_triples = list(combinations(range(7), 3))
        for _ in range(10):
            triples = rng.sample(all_triples, rng.randrange(3, 8))
            ts = build_system(7, triples)
            assert mc_exact(ts, 2).value == brute_mc2(7, ts.triples)
            assert alpha_star(ts, 2).value == brute_alpha_star2(7, ts.triples)


class TestMcUpper:
    def test_single_color_fano(self, fano_sys):
        c = EdgeColoring(system=fano_sys, r=1, colors=(0,) * 7)
        assert mc_upper_from_coloring(c) == 7

    def test_bose27_coloring_bound(self):
        from stsramsey import bose_coloring
        assert mc_upper_from_coloring(bose_coloring(bose(27))) <= 21

    def test_s9_hole_coloring_bound(self, s9_sys):
        hole = alpha_star(s9_sys, 3).lower_certificate
        assert mc_upper_from_coloring(hole_coloring(s9_sys, hole)) <= 7
