import errno
import hashlib
import marshal
import os
import random
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import stsramsey
from stsramsey import search
from stsramsey.constructions import layer_automorphisms
from stsramsey import (
    BadK,
    BudgetExhausted,
    EdgeColoring,
    HoleCertificate,
    InvalidHole,
    SearchBudget,
    alpha_star,
    bicoloring_search,
    binomial_3graph,
    bose,
    build_system,
    closed_form_bounds,
    fano,
    hole_coloring,
    independence_number,
    largest_mono_component,
    mc_exact,
    random_sts,
    s9,
    skolem,
    triangle_removal,
    validate_steiner,
    verify_hole,
)

from oracles import (
    alpha_by_reverse_branching,
    brute_alpha,
    brute_alpha_star2,
    brute_alpha_star3,
    brute_l2_partitions,
    brute_least_l2_sum,
    brute_mc2,
    brute_mc3,
    max_component_size,
)


def _relabeled(system, seed):
    perm = list(range(system.n))
    random.Random(seed).shuffle(perm)
    return build_system(system.n, [(perm[x], perm[y], perm[z]) for x, y, z in system.triples])


def single_triple():
    return build_system(3, [(0, 1, 2)])


def _orbit_unions(system):
    """Four partial systems, each a seeded union of triple orbits under the
    layer group of ``system``; each keeps the group."""
    group = layer_automorphisms(system)
    orbits = {frozenset(tuple(sorted(g[v] for v in t)) for g in group)
              for t in system.triples}
    rng = random.Random(7)
    return [build_system(system.n, [t for orbit in sorted(orbits, key=min)
                                    if rng.random() < 0.6 for t in orbit])
            for _ in range(4)]


def _hole_digest(hole):
    return hashlib.sha256(repr([sorted(p) for p in hole.parts]).encode()).hexdigest()[:16]


def _hole_tree(system, k):
    """(value, nodes, parts digest) of an exact alpha_star run."""
    res = alpha_star(system, k)
    assert res.exact
    return res.value, res.budget_spent.nodes, _hole_digest(res.lower_certificate)


# _hole_tree at k = 2 and k = 4 on each of _orbit_unions(system), recorded
# while the forward check walked every triple through the placed vertex; at
# k = 2 it takes the other part from every vertex that shares a triple with
# the placed one, whatever part the triple's third vertex is in.  At k = 4
# no tree is searched: the holes are the round-robin parts at the cap
ORBIT_UNION_TREES = {
    "bose9": [((0, 2, "a683096011db3975"), (2, 0, "c01880c51daed7d6")),
              ((1, 9, "9c731319e6f8d3c3"), (2, 0, "c01880c51daed7d6")),
              ((0, 2, "a683096011db3975"), (2, 0, "c01880c51daed7d6")),
              ((0, 2, "a683096011db3975"), (2, 0, "c01880c51daed7d6"))],
    "s9": [((2, 13, "94c10612b654912c"), (2, 0, "c01880c51daed7d6")),
           ((0, 2, "a683096011db3975"), (2, 0, "c01880c51daed7d6")),
           ((0, 2, "a683096011db3975"), (2, 0, "c01880c51daed7d6")),
           ((0, 2, "a683096011db3975"), (2, 0, "c01880c51daed7d6"))],
    "skolem13": [((1, 22, "bb45fdac96207bcc"), (3, 0, "cbee5c95c1a59c6e")),
                 ((2, 33, "9e7a2d4808f40dbf"), (3, 0, "cbee5c95c1a59c6e")),
                 ((2, 39, "f7914d221ed0455a"), (3, 0, "cbee5c95c1a59c6e")),
                 ((2, 31, "d1428d2883156792"), (3, 0, "cbee5c95c1a59c6e"))],
}


def _greedy_independent(n, triples):
    """Vertices taken in index order while no triple completes."""
    chosen = set()
    for v in range(n):
        if not any(v in t and set(t) - {v} <= chosen for t in triples):
            chosen.add(v)
    return chosen


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

    def test_certificate_with_a_triple_raises(self, s9_sys, monkeypatch):
        # with no triples at any vertex the search takes every vertex; the
        # engine's own check must catch the full triples in its set
        monkeypatch.setattr("stsramsey.search._mates",
                            lambda ts: [{} for _ in range(ts.n)])
        with pytest.raises(RuntimeError, match="independent-set certificate"):
            independence_number(s9_sys)

    def test_certificate_check_survives_optimization(self, s9_sys):
        # python -O strips asserts; the check must still raise
        src = str(Path(stsramsey.__file__).resolve().parents[1])
        code = ("import stsramsey, stsramsey.search as search\n"
                "search._mates = lambda ts: [{} for _ in range(ts.n)]\n"
                "try:\n"
                "    search.independence_number(stsramsey.s9())\n"
                "except RuntimeError as exc:\n"
                "    print(exc)\n")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "independent-set certificate failed re-verification"

    def test_search_depth_is_not_bounded_by_recursion_limit(self):
        # 1100 vertices, deeper than the default recursion limit; the warm
        # starts settle dolls 1099 and 1098, doll 1097 takes one search node,
        # and the greedy seed then meets the early-stop bound
        res = independence_number(build_system(1100, [(1097, 1098, 1099)]),
                                  SearchBudget(max_nodes=100_000))
        assert res.exact and res.value == 1099
        assert res.budget_spent.nodes == 4

    def test_doll_search_walks_deeper_than_the_recursion_limit(self):
        # the warm start fails at vertex 0, so its doll takes 1..1098 one by
        # one, about 1099 frames deep
        res = independence_number(build_system(1100, [(0, 1098, 1099)]),
                                  SearchBudget(max_nodes=100_000))
        assert res.exact and res.value == 1099
        assert res.budget_spent.nodes == 2198

    def test_warm_start_keeps_a_sparse_system_cheap(self):
        # the pair {0, 1} lies in 1098 triples; without the warm start every
        # doll would search its whole suffix
        res = independence_number(build_system(1100, [(0, 1, k) for k in range(2, 1100)]),
                                  SearchBudget(max_nodes=100_000))
        assert res.exact and res.value == 1099
        assert res.budget_spent.nodes <= 5_000

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

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None], ids=["fraction", "float", "str", "none"])
    def test_k_that_is_not_an_int(self, fano_sys, k):
        # a float k once leaked a TypeError from deep inside the search
        with pytest.raises(BadK, match="must be an int"):
            alpha_star(fano_sys, k)

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_bad_k_message(self, fano_sys, k):
        with pytest.raises(BadK, match=f"^need at least 2 parts, got {k}$"):
            alpha_star(fano_sys, k)

    @pytest.mark.parametrize("make", [fano, s9, lambda: bose(9), lambda: skolem(7),
                                      lambda: skolem(13), lambda: bose(15)],
                             ids=["fano", "s9", "bose9", "skolem7", "skolem13", "bose15"])
    def test_matches_oracles_for_k_2_3_4(self, make):
        # every system here but fano has a nontrivial layer automorphism group
        system = make()
        n, triples = system.n, system.triples
        for k, expected in ((3, brute_alpha_star3(n, triples)),
                            (2, brute_alpha_star2(n, triples)), (4, n // 4)):
            res = alpha_star(system, k)
            assert res.exact and res.value == expected
            assert verify_hole(system, res.lower_certificate)

    @pytest.mark.parametrize("make", [lambda: bose(21), lambda: skolem(19), lambda: skolem(25)],
                             ids=["bose21", "skolem19", "skolem25"])
    def test_orbital_bans_agree_with_a_relabeled_copy(self, make):
        # the copy's layer encoding is scrambled, so its group is trivial and
        # its search bans nothing
        system = make()
        copy = _relabeled(system, 12)
        assert len(layer_automorphisms(copy)) == 1 < len(layer_automorphisms(system))
        cap = SearchBudget(max_nodes=2_000_000)
        res, res_copy = alpha_star(system, 3, cap), alpha_star(copy, 3, cap)
        assert res.exact and res_copy.exact
        assert res.value == res_copy.value

    @pytest.mark.parametrize("make", [lambda: bose(9), s9, lambda: skolem(13)],
                             ids=["bose9", "s9", "skolem13"])
    def test_orbital_bans_on_symmetric_partial_systems(self, make):
        # unions of triple orbits keep the group and, being partial, refute
        # levels below the trivial cap, where the bans fire
        system = make()
        for part in _orbit_unions(system):
            assert len(layer_automorphisms(part)) >= len(layer_automorphisms(system))
            for k, oracle in ((3, brute_alpha_star3), (2, brute_alpha_star2)):
                res = alpha_star(part, k)
                assert res.exact and res.value == oracle(part.n, part.triples)

    @pytest.mark.parametrize("name, make", [("bose9", lambda: bose(9)), ("s9", s9),
                                            ("skolem13", lambda: skolem(13))],
                             ids=["bose9", "s9", "skolem13"])
    def test_k2_and_k4_trees_on_symmetric_partial_systems(self, name, make):
        # node counts and parts pin the trees, not only the values
        got = [tuple(_hole_tree(part, k) for k in (2, 4)) for part in _orbit_unions(make())]
        assert got == ORBIT_UNION_TREES[name]

    @pytest.mark.parametrize("make, i, tree", [
        (lambda: skolem(13), 0, (3, 977, "7247c397d0f1bd11")),
        (lambda: bose(15), 1, (5, 15, "3c169cbd755c6627")),
        (lambda: bose(21), 1, (7, 45, "9c587e6714f94e4a")),
    ], ids=["skolem13-0", "bose15-1", "bose21-1"])
    def test_k3_trees_where_a_top_frame_cannot_leave_its_vertex_out(self, make, i, tree):
        # trees with frames among the top five whose vertex the prune
        # refuses to leave out (15, 5 and 5 of them); the search offers
        # such a leave-out at no depth, and these trees were recorded while
        # it was offered there
        assert _hole_tree(_orbit_unions(make())[i], 3) == tree

    @pytest.mark.parametrize("seed, trees", [
        (0, ((4, 189, "8143e48a7f7fdb13"), (6, 28, "2c2945d895cfd1a9"),
             (4, 0, "068833a107472cc1"))),
        (1, ((4, 242, "c9a55575e63ae34a"), (6, 18, "966a5d57404a0347"),
             (4, 0, "068833a107472cc1"))),
        (2, ((4, 266, "d70f972bfc2eb81c"), (6, 19, "03f8e93e6f13ff33"),
             (4, 0, "068833a107472cc1"))),
    ])
    def test_k2_k3_k4_trees_on_a_triangle_removal_system(self, seed, trees):
        # 28 triples on 19 points, a partial system with a trivial group;
        # recorded with ORBIT_UNION_TREES
        system = triangle_removal(19, 28, seed).system
        assert tuple(_hole_tree(system, k) for k in (2, 3, 4)) == trees

    @pytest.mark.parametrize("which, cap, result", [
        ("triangle", 20, (3, False, 20, "9dfffdc374711b97")),
        ("triangle", 38, (3, False, 38, "9dfffdc374711b97")),
        ("triangle", 39, (3, False, 39, "9dfffdc374711b97")),
        ("triangle", 188, (4, False, 188, "8143e48a7f7fdb13")),
        ("triangle", 189, (4, True, 189, "8143e48a7f7fdb13")),
        ("skolem13", 10, (1, False, 10, "9c731319e6f8d3c3")),
        ("skolem13", 26, (2, False, 26, "f7914d221ed0455a")),
        ("skolem13", 27, (2, False, 27, "f7914d221ed0455a")),
        ("skolem13", 38, (2, False, 38, "f7914d221ed0455a")),
        ("skolem13", 39, (2, True, 39, "f7914d221ed0455a")),
    ])
    def test_k2_under_a_node_cap(self, which, cap, result):
        # (value, exact, nodes, parts digest) at caps on both sides of the
        # probe's slice of 2n nodes and of the exhausted tree's count, on
        # triangle_removal(19, 28, 0) (trivial group) and on the third
        # union of skolem(13)'s triple orbits (orbital bans)
        system = (triangle_removal(19, 28, 0).system if which == "triangle"
                  else _orbit_unions(skolem(13))[2])
        res = alpha_star(system, 2, SearchBudget(max_nodes=cap))
        assert (res.value, res.exact, res.budget_spent.nodes,
                _hole_digest(res.lower_certificate)) == result

    @pytest.mark.parametrize("make", [lambda: bose(15), lambda: bose(21)],
                             ids=["bose15", "bose21"])
    def test_bans_under_subgroups_agree_with_a_relabeled_copy(self, make):
        # unions of triple orbits under three subgroups: the scalings fixing
        # vertex 0, those with the layer rotations (fixing the cell {0, 1,
        # 2}), and the affine maps that keep every layer; each union keeps
        # its subgroup, and the relabelled copy's group is trivial, so the
        # copy runs no bans
        system = make()
        group = layer_automorphisms(system)
        subgroups = ([g for g in group if g[0] == 0],
                     [g for g in group if {g[0], g[1], g[2]} == {0, 1, 2}],
                     [g for g in group if all(g[v] % 3 == v % 3 for v in range(system.n))])
        rng = random.Random(21)
        cap = SearchBudget(max_nodes=500_000)
        for sub in subgroups:
            orbits = {frozenset(tuple(sorted(g[v] for v in t)) for g in sub)
                      for t in system.triples}
            for seed in range(3):
                triples = [t for orbit in sorted(orbits, key=min) if rng.random() < 0.6
                           for t in orbit]
                part = build_system(system.n, triples)
                copy = _relabeled(part, seed)
                assert len(layer_automorphisms(part)) >= len(sub) > 1
                assert len(layer_automorphisms(copy)) == 1
                for k in (3, 2):
                    res, res_copy = alpha_star(part, k, cap), alpha_star(copy, k, cap)
                    assert res.exact and res_copy.exact
                    assert res.value == res_copy.value

    @pytest.mark.parametrize("system", [
        bose(15), skolem(19), bose(21), skolem(25),
        random_sts(19, 19), random_sts(21, 21), random_sts(25, 1_000_028),
    ], ids=["bose15", "skolem19", "bose21", "skolem25",
            "random_sts19", "random_sts21", "random_sts25"])
    def test_holes_satisfy_the_double_count_identity(self, system):
        # every pair lies in one triple of a Steiner system, and no triple
        # meets all three parts; counting the pairs inside a part, across
        # two parts, from a part to a left-out vertex and between left-out
        # vertices by the triples that hold them gives, with parts of size a
        # and r = n - 3a vertices left out,
        # 6*T3 + 3*sum_w i(w) = r(3a - r + 1)/2 + 3*t_R - 3a, where T3 counts
        # the triples inside one part, i(w) the triples through a left-out
        # w whose other two vertices share a part, and t_R the triples of
        # left-out vertices; both sides are doubled here
        hole = alpha_star(system, 3).lower_certificate
        a = hole.a
        where = {v: j for j, p in enumerate(hole.parts) for v in p}
        left = set(range(system.n)) - set(where)
        r = len(left)
        t3 = inner = t_r = 0
        for t in system.triples:
            out = [v for v in t if v in left]
            placed = {where[v] for v in t if v in where}
            if not out and len(placed) == 1:
                t3 += 1
            elif len(out) == 1 and len(placed) == 1:
                inner += 1
            elif len(out) == 3:
                t_r += 1
        assert 2 * (6 * t3 + 3 * inner) == r * (3 * a - r + 1) + 6 * t_r - 6 * a

    def test_k2_of_steiner_is_zero(self, fano_sys):
        # every pair lies in a triple, so two disjoint parts always cross one
        assert alpha_star(fano_sys, 2).value == 0

    @pytest.mark.parametrize("k", range(4, 8))
    @pytest.mark.parametrize("make", [fano, lambda: bose(15),
                                      lambda: triangle_removal(19, 28, 0).system,
                                      single_triple],
                             ids=["fano", "bose15", "triangle_removal19", "single_triple"])
    def test_k4_is_trivial_floor(self, make, k):
        # a triple meets at most three parts, so any k >= 4 disjoint parts
        # of floor(n/k) vertices form a hole: no tree is searched, and a
        # one-node cap changes nothing
        system = make()
        a = system.n // k
        parts = tuple(frozenset(range(j, k * a, k)) for j in range(k))
        for budget in (None, SearchBudget(max_nodes=1)):
            res = alpha_star(system, k, budget)
            assert res.exact and res.value == a
            assert res.budget_spent.nodes == 0
            assert res.lower_certificate.parts == parts

    def test_bose27_hole_at_least_two_ninths(self):
        # the ladder climbs to a certified hole of size >= 2n/9 and
        # refutes 8 within this cap (67,605 nodes)
        system = bose(27)
        res = alpha_star(system, 3, SearchBudget(max_nodes=300_000, max_seconds=30))
        assert res.exact and res.value == 7 >= 6
        assert verify_hole(system, res.lower_certificate)
        assert res.lower_certificate.a == res.value

    def test_rejected_certificate_raises_even_under_optimization(self, s9_sys, monkeypatch):
        # the certificate check must be an explicit raise, not an assert
        # that python -O strips
        monkeypatch.setattr("stsramsey.search.verify_hole", lambda ts, h: False)
        with pytest.raises(InvalidHole):
            alpha_star(s9_sys, 3)
        # the k >= 4 parts, built without search, are checked all the same
        with pytest.raises(InvalidHole):
            alpha_star(s9_sys, 4)

    @pytest.mark.parametrize("system, cap, value, nodes, digest", [
        (skolem(25), 150_000, 7, 2_175, "aea8022747a784da"),
        (bose(21), 500_000, 5, 13_934, "b1160b0d28e57df8"),
        (bose(27), 400_000, 7, 67_605, "1a65323c7651ca9c"),
        (bose(27), 150_000, 7, 67_605, "1a65323c7651ca9c"),
        (random_sts(25, 1_000_028), 150_000, 7, 20_891, "a61bdecf967af67c"),
        (_relabeled(bose(21), 12), 500_000, 5, 252_115, "125e6d23a6cf8e38"),
        (bose(15), 150_000, 4, 17, "2e06b3d0932da20c"),
        (skolem(19), 150_000, 5, 24, "0c7f48a030aebb93"),
        (random_sts(19, 1_000_022), 150_000, 5, 29, "11ecfc675796c7ec"),
        (random_sts(21, 1_000_024), 150_000, 6, 3_181, "49be27a727e0212c"),
    ], ids=["skolem25", "bose21", "bose27", "bose27-holes-cap", "random_sts25",
            "bose21-relabeled", "bose15", "skolem19", "random_sts19", "random_sts21"])
    def test_forward_checking_settles_within_cap(self, system, cap, value, nodes, digest):
        # index-order backtracking left skolem(25) and bose(21) inexact at
        # these caps; skolem(25) and random_sts(25) end at the cap
        # floor(n/3) - 1, bose(21) by refuting 6 and bose(27) by refuting 8,
        # also under the holes benchmark's 150k cap.  The node counts pin
        # the probe, the pruning, the branching order, the orbital bans
        # and, on the Bose rows, the cap level searched one left-out set
        # per orbit, which together cut bose(21) from 264,704 nodes and
        # bose(27) from 1,253,718.  The probe settles none of the first six
        # caps within its slice of 3n nodes, so each of those counts is the
        # climb's plus 75, 63, 81, 81, 75 and 63.  A relabelled bose(21) has
        # a trivial group, so its count is that of the tree without bans or
        # left-out sets; the digest pins the certificate's parts.  The last
        # four rows, with skolem25, bose21 (whose count is the same under a
        # 150k cap), bose27-holes-cap and random_sts25, are the eight inputs
        # of the holes benchmark at seed 1: the probe finds the cap hole of
        # the first three, and random_sts(21) climbs to its cap 6 after the
        # probe's 63 nodes
        res = alpha_star(system, 3, SearchBudget(max_nodes=cap))
        assert res.exact and res.value == value
        assert res.budget_spent.nodes == nodes
        assert verify_hole(system, res.lower_certificate)
        assert _hole_digest(res.lower_certificate) == digest

    @pytest.mark.parametrize("seed", range(10))
    def test_probe_settles_at_the_cap(self, seed):
        # the discrepancy experiment's full systems: the probe finds the
        # hole at the cap floor(19/3) - 1 = 5 inside its slice of 3 * 19
        # nodes, where the climb from the empty hole took 45-79
        system = random_sts(19, seed)
        res = alpha_star(system, 3, SearchBudget(max_nodes=100_000))
        assert res.exact and res.value == 5
        assert res.budget_spent.nodes <= 3 * 19
        assert verify_hole(system, res.lower_certificate)

    @pytest.mark.parametrize("cap", [62, 63, 64, 65])
    def test_budget_runs_out_either_side_of_the_probe_slice(self, cap):
        # bose(21)'s probe spends its slice of 3 * 21 = 63 nodes without
        # settling the cap 6: a cap of 62 stops the probe, 63 stops the
        # ladder at its first question to the meter, and 64 and 65 stop it
        # inside its first level, which needs 66 nodes for the 1-hole
        res = alpha_star(bose(21), 3, SearchBudget(max_nodes=cap))
        assert (res.value, res.exact, res.budget_spent.nodes) == (0, False, cap)
        assert verify_hole(bose(21), res.lower_certificate)

    def test_search_depth_is_not_bounded_by_recursion_limit(self):
        # 1100 vertices, deeper than the default recursion limit: the probe
        # places 3 * 366 vertices in one descent to the cap 1100 // 3,
        # where the climb took 201,483 nodes
        system = build_system(1100, [(0, 1, 2)])
        res = alpha_star(system, 3, SearchBudget(max_nodes=100_000))
        assert res.exact and res.value == 366
        assert res.budget_spent.nodes < 2_000
        assert res.lower_certificate.a == res.value
        assert verify_hole(system, res.lower_certificate)

    def test_partial_system_uses_trivial_upper_bound(self):
        # half a system: the Steiner cap does not apply
        from stsramsey import triangle_removal
        partial = triangle_removal(13, 13, 5).system
        res = alpha_star(partial, 3)
        assert res.exact and res.value <= 13 // 3


def _image(g, mask):
    return sum(1 << g[v] for v in range(len(g)) if mask >> v & 1)


@contextmanager
def _one_cpu():
    """This process pinned to one of its CPUs, so alpha_star searches in one
    process; the mask is restored on the way out."""
    pid = os.getpid()
    mask = os.sched_getaffinity(pid)
    os.sched_setaffinity(pid, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(pid, mask)


def _counted_forks(monkeypatch):
    """The pids of the children os.fork starts from now on."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _cpus(monkeypatch, cpus):
    """``cpus`` usable CPUs, as os.sched_getaffinity reports them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _no_fork():
    raise AssertionError("a one-process search forked")


def _fork_fails():
    raise OSError("fork refused")


def _outcome(res):
    return (res.value, res.exact, res.budget_spent.nodes, _hole_digest(res.lower_certificate))


def _forks(cpus, left):
    """The children a split makes: one per block after the caller's."""
    return min(cpus, left) - 1


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="os.sched_setaffinity is missing")
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork")
    or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1,
    reason="the cap level splits on two or more CPUs, with no other thread")

# bose(21) reaches 5 at node 108, where its cap 6 splits, and refutes the
# cap in 15 orbit searches, the third ending at node 2,762; on two CPUs the
# caller's block of 8 ends at node 7,373 and the child's 7 run from there to
# 13,934.
# bose(27) reaches 7 at node 167, where 8 splits, and refutes 8 in 26
# searches, the first ending at node 3,355; on two CPUs the caller's block
# of 13 ends at node 35,091 and the child's 13 run from there to 67,605
SPLIT_CAPS = {21: (13_934, [1, 107, 108, 109, 2_761, 2_762, 2_763, 4_000, 10_000, 13_933,
                            13_934, 13_935, None]),
              27: (67_605, [1, 166, 167, 168, 3_354, 3_355, 3_356, 7_000, 40_000, 60_000,
                            67_604, 67_605, 67_606, None])}
# the count at the split and the representatives there
SPLIT_AT = {21: (108, 15), 27: (167, 26)}

needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or threading.active_count() > 1,
                                reason="the cap level splits only with os.fork and no other "
                                       "thread")


class TestLeftOutRoute:
    """The cap level of a system with a large group, searched one left-out
    set per orbit."""

    @pytest.mark.parametrize("n", [9, 15, 21])
    def test_representatives_cover_every_set_once(self, n):
        group = layer_automorphisms(bose(n))
        rho = n - 3 * (n // 3 - 1)
        covered = []
        for mask, stab in search._left_out_sets(n, rho, group):
            orbit = {_image(g, mask) for g in group}
            assert len(orbit) * len(stab) == len(group)
            assert stab[0] == tuple(range(n))
            assert all(_image(g, mask) == mask for g in stab)
            # the representative is its orbit's lowest set in lexicographic order
            as_sets = sorted(tuple(v for v in range(n) if m >> v & 1) for m in orbit)
            assert as_sets[0] == tuple(v for v in range(n) if mask >> v & 1)
            covered += orbit
        assert sorted(covered) == sorted(sum(1 << v for v in c)
                                         for c in combinations(range(n), rho))

    @pytest.mark.parametrize("n, found", [(15, True), (21, False), (27, False)])
    def test_same_verdict_as_the_plain_route(self, n, found):
        system = bose(n)
        a = n // 3 - 1
        mate = search._mates(system)
        group = layer_automorphisms(system)
        routes = [search._search_level(n, 3, a, mate, [],
                                       search._left_out_sets(n, n - 3 * a, group),
                                       search._Meter(None), 0, float("inf")),
                  search._find_hole(n, 3, a, mate, [], group, search._Meter(None),
                                    0, float("inf"), 0)]
        for parts, _, settled in routes:
            assert settled and (parts is not None) == found
            if found:
                assert verify_hole(system, HoleCertificate(k=3, a=a, parts=parts))

    @pytest.mark.parametrize("cap", [1, 62, 63, 64, 107, 108, 109, 5_000, 13_933, 13_934,
                                     13_935, 20_000])
    def test_capped_runs_spend_their_cap(self, cap):
        # bose(21) sinks the probe's 63 nodes, climbs to 5 by node 108 and
        # refutes the cap 6 one orbit at a time by node 13,934; any smaller
        # cap is spent to the node
        system = bose(21)
        res = alpha_star(system, 3, SearchBudget(max_nodes=cap))
        assert res.budget_spent.nodes == min(cap, 13_934)
        assert res.exact == (cap >= 13_934)
        assert res.value <= 5 and (cap < 108 or res.value == 5)
        assert verify_hole(system, res.lower_certificate)

    @needs_affinity
    @pytest.mark.parametrize("n, cap", [(n, cap) for n, (_, caps) in SPLIT_CAPS.items()
                                        for cap in caps])
    def test_split_runs_match_one_cpu(self, monkeypatch, n, cap):
        # the caps fall before, at and after the split, inside the caller's
        # block and a child's, and around the end; pinned to one CPU the
        # search never forks
        system = bose(n)
        budget = SearchBudget(max_nodes=cap) if cap else None
        split = _outcome(alpha_star(system, 3, budget))
        monkeypatch.setattr(os, "fork", _no_fork)
        with _one_cpu():
            alone = _outcome(alpha_star(system, 3, budget))
        final = SPLIT_CAPS[n][0]
        assert split == alone
        assert alone[1:3] == (cap is None or cap >= final, min(cap or final, final))

    @staticmethod
    def _check_cpus(monkeypatch, n, cap, cpus_list):
        """The outcome on each number of CPUs is the one-CPU outcome, with one
        child per block after the caller's and none left after."""
        system = bose(n)
        budget = SearchBudget(max_nodes=cap) if cap else None
        at, left = SPLIT_AT[n]
        pids = _counted_forks(monkeypatch)
        outcomes = []
        for cpus in cpus_list:
            _cpus(monkeypatch, cpus)
            pids.clear()
            outcomes.append(_outcome(alpha_star(system, 3, budget)))
            assert len(pids) == (_forks(cpus, left) if cap is None or cap >= at else 0)
            _assert_no_children()
        assert outcomes == [outcomes[0]] * len(cpus_list)

    @needs_fork
    @pytest.mark.parametrize("n, cap", [(n, cap) for n, (_, caps) in SPLIT_CAPS.items()
                                        for cap in caps])
    def test_every_number_of_cpus_matches_one(self, monkeypatch, n, cap):
        # W CPUs cut the representatives into min(W, reps) blocks whose
        # sizes differ by at most one, the larger first, so bose(27) at
        # W = 4 has blocks of 7, 7, 6 and 6, and bose(21) at W = 4 has 4, 4,
        # 4 and 3
        self._check_cpus(monkeypatch, n, cap, range(1, 6))

    @needs_fork
    @pytest.mark.parametrize("n, cpus, cap", [(21, 7, None), (21, 7, 10_000), (27, 6, None),
                                              (27, 6, 60_000)])
    def test_forks_follow_the_non_empty_blocks(self, monkeypatch, n, cpus, cap):
        # every CPU gets a block, so the split makes W - 1 children:
        # bose(21)'s 15 at W = 7 make blocks of 3, 2, 2, 2, 2, 2 and 2,
        # bose(27)'s 26 at W = 6 make 5, 5, 4, 4, 4 and 4; the caps fall
        # inside a child's block
        assert _forks(cpus, SPLIT_AT[n][1]) == cpus - 1
        self._check_cpus(monkeypatch, n, cap, (1, cpus))

    @needs_affinity
    @pytest.mark.parametrize("cap", [None, 4_000, 13_000])
    def test_the_split_leaves_the_meter_at_the_one_process_stop(self, monkeypatch, cap):
        # the cap level of bose(21) from node 108, where the ladder reaches it
        system = bose(21)
        mate, group = search._mates(system), layer_automorphisms(system)
        budget = SearchBudget(max_nodes=cap) if cap else None

        def level():
            meter = search._Meter(budget)
            parts, nodes, settled = search._search_level(
                21, 3, 6, mate, [], search._left_out_sets(21, 3, group), meter, 108,
                float("inf"))
            return parts, nodes, settled, meter.stop

        split = level()
        monkeypatch.setattr(os, "fork", _no_fork)
        with _one_cpu():
            alone = level()
        assert split == alone
        assert alone[1:] == {None: (13_934, True, 16_383), 4_000: (4_000, False, -1),
                             13_000: (13_000, False, -1)}[cap]

    @pytest.mark.parametrize("unsafe", ["thread", "no-fork"])
    def test_one_process_where_a_fork_is_unsafe(self, monkeypatch, unsafe):
        # a fork would leave another thread's work behind, or cannot be made
        expected = _hole_tree(bose(21), 3)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        if unsafe == "thread":
            monkeypatch.setattr(os, "fork", _no_fork)
            waiter.start()
        else:
            monkeypatch.delattr(os, "fork")
        try:
            assert _hole_tree(bose(21), 3) == expected
        finally:
            done.set()
            if unsafe == "thread":
                waiter.join(timeout=10)
                assert not waiter.is_alive()

    @needs_two_cpus
    @pytest.mark.parametrize("cap", [None, 4_000])
    def test_no_child_outlives_the_search(self, monkeypatch, cap):
        pids = _counted_forks(monkeypatch)
        res = alpha_star(bose(21), 3, SearchBudget(max_nodes=cap) if cap else None)
        assert res.budget_spent.nodes == (cap or 13_934) and res.exact == (cap is None)
        assert len(pids) == _forks(len(os.sched_getaffinity(0)), SPLIT_AT[21][1])
        _assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("budget, nodes", [
        (SearchBudget(max_seconds=1.0), 39_019),
        (SearchBudget(max_seconds=1.0, max_nodes=37_000), 37_000),
    ], ids=["no-cap", "cap-37000"])
    def test_a_clock_refusal_in_a_child_ends_the_level_at_the_folded_count(self, monkeypatch,
                                                                            budget, nodes):
        # on two CPUs only the child sees the deadline pass, at 4,095, the
        # meter's next stop after the split at 167; the level ends inexact at
        # the caller's 35,091 plus the child's 3,928 nodes, at most the cap
        caller = os.getpid()
        monkeypatch.setattr(search.time, "monotonic",
                            lambda: 0.0 if os.getpid() == caller else 1e9)
        _cpus(monkeypatch, 2)
        res = alpha_star(bose(27), 3, budget)
        assert (res.value, res.exact, res.budget_spent.nodes) == (7, False, nodes)
        assert res.budget_spent.nodes >= 35_091
        _assert_no_children()

    @needs_two_cpus
    @pytest.mark.parametrize("cap", [None, 4_000])
    @pytest.mark.parametrize("fault", ["child-sends-nothing", "fork-fails"])
    def test_a_share_without_a_report_is_searched_here(self, monkeypatch, cap, fault):
        budget = SearchBudget(max_nodes=cap) if cap else None
        expected = _outcome(alpha_star(bose(21), 3, budget))
        if fault == "child-sends-nothing":
            mute = SimpleNamespace(dump=lambda value, file: os._exit(0), load=marshal.load)
            monkeypatch.setattr(search, "marshal", mute)
        else:
            monkeypatch.setattr(os, "fork", _fork_fails)
        assert _outcome(alpha_star(bose(21), 3, budget)) == expected
        _assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("n, value, nodes", [(21, 5, 13_934), (27, 7, 67_605)])
    def test_a_pipe_that_fails_is_a_fork_that_fails(self, monkeypatch, n, value, nodes):
        # out of file descriptors at the first child's pipe: every block is
        # searched here, with the one-CPU outcome
        tries = []

        def no_pipe():
            tries.append(len(tries))
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "pipe", no_pipe)
        monkeypatch.setattr(os, "fork", _no_fork)
        res = alpha_star(bose(n), 3)
        assert (res.value, res.exact, res.budget_spent.nodes) == (value, True, nodes)
        assert verify_hole(bose(n), res.lower_certificate)
        assert tries == [0]
        _assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("n, k, cap", [(21, 3, None), (27, 3, None), (25, 3, None),
                                           (15, 2, None), (27, 3, 40_000)],
                             ids=["bose21", "bose27", "skolem25", "bose15-k2", "bose27-cap40000"])
    def test_search_reads_the_group_as_a_set(self, monkeypatch, n, k, cap):
        # the identity, then the other elements in reverse: an orbit is an OR
        # of masks and a stabilizer a filter, so nothing the search reports
        # moves; on two CPUs bose(27)'s cap 40,000 falls in the child's block
        system = skolem(n) if n % 6 == 1 else bose(n)
        budget = SearchBudget(max_nodes=cap) if cap else None
        _cpus(monkeypatch, 2)
        real = search.layer_automorphisms

        def reordered(ts):
            group = real(ts)
            return group[:1] + group[:0:-1]

        runs = []
        for make in (real, reordered):
            monkeypatch.setattr(search, "layer_automorphisms", make)
            res = alpha_star(system, k, budget)
            runs.append((res.value, res.exact, res.budget_spent.nodes, res.lower_certificate))
            _assert_no_children()
        assert runs[1] == runs[0]

    @needs_two_cpus
    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_an_exception_in_the_caller_reaps_every_child(self, monkeypatch, error):
        def fail(file):
            raise error

        pids = _counted_forks(monkeypatch)
        monkeypatch.setattr(search, "marshal", SimpleNamespace(dump=marshal.dump, load=fail))
        with pytest.raises(error):
            alpha_star(bose(27), 3)
        assert pids
        _assert_no_children()


class TestForkedBlocks:
    """search.forked_blocks hands back run(block) for every block, in block
    order, wherever the block ran."""

    @needs_fork
    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("cpus", range(1, 6))
    def test_every_block_is_run_once_in_block_order(self, monkeypatch, cpus, m):
        caller = os.getpid()
        _cpus(monkeypatch, cpus)
        pids = _counted_forks(monkeypatch)
        with search.forked_blocks(range(m), lambda block: (os.getpid(), list(block))) as results:
            got = list(results)
        blocks = [block for _, block in got]
        sizes = list(map(len, blocks))
        assert sum(blocks, []) == list(range(m))
        assert len(blocks) == min(cpus, m) and min(sizes) >= 1
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
        # the caller runs the first block, a child each later one
        assert [pid == caller for pid, _ in got] == [True] + [False] * (len(got) - 1)
        assert len(pids) == min(cpus, m) - 1
        _assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_a_block_whose_child_raises_is_run_here(self, monkeypatch, cpus):
        caller = os.getpid()

        def run(block):
            if os.getpid() != caller and 6 in block:
                raise RuntimeError("the last block fails in its child")
            return os.getpid(), list(block)

        _cpus(monkeypatch, cpus)
        with search.forked_blocks(range(7), run) as results:
            got = list(results)
        assert sum((block for _, block in got), []) == list(range(7))
        assert [pid == caller for pid, _ in got] == [True] + [False] * (cpus - 2) + [True]
        _assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("make", [lambda: skolem(19), lambda: random_sts(25, 1_000_028)],
                             ids=["skolem19", "random_sts25"])
    def test_a_system_off_the_route_never_forks(self, monkeypatch, make):
        # every level of these has one search, so one block and no child
        system = make()
        assert len(layer_automorphisms(system)) < system.n
        pids = _counted_forks(monkeypatch)
        outcomes = []
        for cpus in (1, 5):
            _cpus(monkeypatch, cpus)
            outcomes.append(_outcome(alpha_star(system, 3)))
        assert outcomes[0] == outcomes[1] and outcomes[0][1]
        assert pids == []


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
        assert largest_mono_component(res.lower_certificate)[0] == res.value

    def test_budget_exceeded_returns_upper_bound(self, s9_sys):
        res = mc_exact(s9_sys, 3, SearchBudget(max_nodes=10))
        assert not res.exact
        assert res.value >= 7
        assert largest_mono_component(res.lower_certificate)[0] == res.value

    def test_r1_gives_n(self, s9_sys):
        res = mc_exact(s9_sys, 1)
        assert res.exact and res.value == 9

    def test_no_colors_rejected(self, s9_sys):
        with pytest.raises(ValueError, match="need at least one color"):
            mc_exact(s9_sys, 0)

    @pytest.mark.parametrize("r", ["3", 3.0], ids=["str", "float"])
    def test_colors_must_be_an_int(self, s9_sys, r):
        with pytest.raises(ValueError, match="^need at least one color, as an int"):
            mc_exact(s9_sys, r)

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
        # a system with no triples takes the general path: exact 0 in 0 nodes,
        # and its initial coloring is checked like any other
        empty = build_system(3, [])
        res = mc_exact(empty, 3)
        assert res.exact and res.value == 0 and res.budget_spent.nodes == 0
        wrong = EdgeColoring(system=fano_sys, r=3, colors=(0,) * 7)
        for ts, r, initial in [(s9_sys, 3, wrong), (empty, 3, wrong),
                               (empty, 2, EdgeColoring(system=empty, r=3, colors=()))]:
            with pytest.raises(ValueError):
                mc_exact(ts, r, initial=initial)

    def test_coloring_that_misses_its_value_raises(self, s9_sys, monkeypatch):
        # understate the seed's largest component by one: the search cannot
        # beat the understated value, so it would return the seed coloring
        # with a value that coloring does not achieve
        real = search.largest_mono_component
        sizes = []

        def understated_seed(coloring):
            size, color, witness = real(coloring)
            sizes.append(size)
            return (size - 1 if len(sizes) == 1 else size), color, witness

        monkeypatch.setattr(search, "largest_mono_component", understated_seed)
        seed = hole_coloring(s9_sys, alpha_star(s9_sys, 3).lower_certificate)
        with pytest.raises(RuntimeError, match="coloring certificate"):
            mc_exact(s9_sys, 3, initial=seed)

    def test_search_depth_is_not_bounded_by_recursion_limit(self):
        # bose(99) has 1617 triples, deeper than the default recursion limit
        system = bose(99)
        res = mc_exact(system, 3, SearchBudget(max_nodes=20_000))
        assert not res.exact
        assert res.budget_spent.nodes == 20_000
        assert largest_mono_component(res.lower_certificate)[0] == res.value

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


def _digest(coloring):
    return hashlib.sha256(bytes(coloring.colors)).hexdigest()[:16]


class TestMcExactTree:
    """Node counts and certificate digests pin mc_exact's search tree."""

    @pytest.mark.parametrize("system, seeded, value, nodes, digest", [
        (skolem(13), False, 10, 19_778, "b7b7004aef2ef95b"),
        (skolem(13), True, 10, 19_573, "7f1aea4de505ed00"),
        (bose(15), True, 11, 35_148, "e15378991f7143b4"),
    ], ids=["skolem13", "skolem13-hole-seeded", "bose15-hole-seeded"])
    def test_exhausted_tree(self, system, seeded, value, nodes, digest):
        initial = None
        if seeded:
            initial = hole_coloring(system, alpha_star(system, 3).lower_certificate)
        res = mc_exact(system, 3, initial=initial)
        assert (res.value, res.exact, res.budget_spent.nodes) == (value, True, nodes)
        assert _digest(res.lower_certificate) == digest

    @pytest.mark.parametrize("make, r, seeded, value, nodes, digest", [
        (lambda: bose(15), 2, False, 15, 9_592, "0d5535e13cc9708d"),
        (lambda: skolem(13), 2, False, 13, 2_194, "659d36ca563ba462"),
        (fano, 4, False, 5, 20, "bc0fdebe09ef0f73"),
        (s9, 4, False, 3, 333, "3ad56ff16221bc36"),
        (lambda: triangle_removal(19, 28, 7).system, 3, False, 9, 8_385, "5750f38da2cb3c86"),
        (lambda: triangle_removal(19, 28, 7).system, 3, True, 9, 7_988, "5750f38da2cb3c86"),
        (lambda: skolem(13), 4, False, 9, 207_370, "119d4593cc5b16dd"),
    ], ids=["bose15-r2", "skolem13-r2", "fano-r4", "s9-r4", "tr19", "tr19-hole-seeded",
            "skolem13-r4"])
    def test_exhausted_tree_at_other_r_and_on_a_partial_system(self, make, r, seeded,
                                                                 value, nodes, digest):
        system = make()
        initial = None
        if seeded:
            initial = hole_coloring(system, alpha_star(system, 3).lower_certificate)
        res = mc_exact(system, r, initial=initial)
        assert (res.value, res.exact, res.budget_spent.nodes) == (value, True, nodes)
        assert _digest(res.lower_certificate) == digest

    def test_capped_tree_at_n19(self):
        # resumed from the incumbent of a shorter run, the search improves
        # 15 -> 14 somewhere between 8,000 and 16,000 nodes; the digests pin
        # the colorings found on both sides of the cap
        system = skolem(19)
        first = mc_exact(system, 3, SearchBudget(max_nodes=5_000))
        assert (first.value, first.exact, first.budget_spent.nodes) == (15, False, 5_000)
        assert _digest(first.lower_certificate) == "3aecd38fe402f6ff"
        res = mc_exact(system, 3, SearchBudget(max_nodes=20_000),
                       initial=first.lower_certificate)
        assert (res.value, res.exact, res.budget_spent.nodes) == (14, False, 20_000)
        assert _digest(res.lower_certificate) == "b23e94f892851227"


class TestBudgetCaps:
    @pytest.mark.parametrize("field", ["max_nodes", "max_seconds"])
    @pytest.mark.parametrize("value", [0, -1, float("nan")], ids=["zero", "negative", "nan"])
    def test_budget_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match="budget fields must be positive"):
            SearchBudget(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "5"],
                             ids=["fraction", "float", "bool", "str"])
    def test_node_cap_must_be_an_int(self, value):
        # a cap of 2.5 once let each engine spend 3 nodes
        with pytest.raises(ValueError, match="max_nodes must be an int"):
            SearchBudget(max_nodes=value)

    @pytest.mark.parametrize("value", ["1", True, None], ids=["str", "bool", "none"])
    def test_seconds_must_be_a_number(self, value):
        with pytest.raises(ValueError, match="max_seconds must be an int or a float"):
            SearchBudget(max_seconds=value)

    def test_infinite_seconds_accepted(self, s9_sys):
        res = independence_number(s9_sys, SearchBudget(max_seconds=float("inf")))
        assert res.exact and res.value == 4

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

    @staticmethod
    def _clock_past_deadline(monkeypatch):
        # the meter reads the clock when created, then at every 4096th node;
        # this clock has passed any deadline by its second reading
        readings = iter([0.0])
        monkeypatch.setattr(search.time, "monotonic", lambda: next(readings, 1e9))

    @pytest.mark.parametrize("engine, make, args", [
        (mc_exact, lambda: skolem(13), (3,)),
        (independence_number, lambda: bose(27), ()),
        (alpha_star, lambda: bose(21), (3,)),
        (search.l2_partitions, lambda: bose(27), ()),
    ], ids=["mc_exact", "independence_number", "alpha_star", "l2_partitions"])
    def test_clock_refuses_the_4096th_node(self, monkeypatch, engine, make, args):
        system = make()
        self._clock_past_deadline(monkeypatch)
        res = engine(system, *args, SearchBudget(max_seconds=1.0))
        assert (res.exact, res.budget_spent.nodes) == (False, 4095)

    def test_clock_stops_the_bicoloring_search(self, monkeypatch):
        system = bose(15)
        self._clock_past_deadline(monkeypatch)
        with pytest.raises(BudgetExhausted, match="after 4095 nodes$"):
            bicoloring_search(system, SearchBudget(max_seconds=1.0))


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
                        assert largest_mono_component(res.lower_certificate)[0] == expected

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
        # non-linear partial systems at n = 9, 10: a few pairs each lie in
        # several triples; capped runs keep their cap, do no worse than the
        # greedy seed and return an independent set
        for n in (9, 10):
            all_triples = list(combinations(range(n), 3))
            for _ in range(12):
                triples = set(rng.sample(all_triples, rng.randrange(2, 14)))
                for _ in range(2):
                    x, y = rng.sample(range(n), 2)
                    for z in rng.sample([v for v in range(n) if v not in (x, y)], 3):
                        triples.add(tuple(sorted((x, y, z))))
                ts = build_system(n, sorted(triples))
                expected = brute_alpha(n, ts.triples)
                res = independence_number(ts)
                assert res.exact and res.value == expected
                seed = _greedy_independent(n, ts.triples)
                for cap in (1, 2, 5, 20):
                    res = independence_number(ts, SearchBudget(max_nodes=cap))
                    cert = res.lower_certificate
                    assert res.budget_spent.nodes <= cap
                    assert len(seed) <= res.value == len(cert) <= expected
                    assert not any(set(t) <= cert for t in ts.triples)
                    if res.exact:
                        assert res.value == expected

    @pytest.mark.parametrize("ts", [
        skolem(13), bose(15), skolem(19), bose(21),
        random_sts(13, 13), random_sts(19, 19), random_sts(21, 21),
    ], ids=["skolem13", "bose15", "skolem19", "bose21",
            "random_sts13", "random_sts19", "random_sts21"])
    def test_alpha_against_reverse_branching(self, ts):
        res = independence_number(ts)
        assert res.exact
        assert res.value == alpha_by_reverse_branching(ts.n, ts.triples)

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
        assert largest_mono_component(c)[0] == 7

    def test_bose27_coloring_bound(self):
        from stsramsey import bose_coloring
        assert largest_mono_component(bose_coloring(bose(27)))[0] <= 21

    def test_s9_hole_coloring_bound(self, s9_sys):
        hole = alpha_star(s9_sys, 3).lower_certificate
        assert largest_mono_component(hole_coloring(s9_sys, hole))[0] <= 7


def pg32():
    """PG(3,2): vertex v - 1 for each nonzero vector v of F_2^4, and the
    lines {x, y, x ^ y}."""
    return validate_steiner(build_system(15, sorted({
        tuple(sorted((x - 1, y - 1, (x ^ y) - 1))) for x in range(1, 16) for y in range(x + 1, 16)})))


def _partial_linear(n, seed, planted):
    """A seeded linear system on n vertices; with ``planted``, every triple
    meets at most two blocks of a random partition into four, so the system
    has at least that L2 partition."""
    rng = random.Random(seed)
    block = list(range(4)) + [rng.randrange(4) for _ in range(n - 4)]
    rng.shuffle(block)
    cand = list(combinations(range(n), 3))
    rng.shuffle(cand)
    used, triples = set(), []
    for t in cand:
        pairs = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
        if pairs & used or (planted and len({block[v] for v in t}) > 2):
            continue
        used |= pairs
        triples.append(t)
    return build_system(n, triples)


def _as_sets(res):
    return {frozenset(parts) for parts in res.partitions}


def _meets_the_pair_count(n, parts):
    """What every L2 partition of a Steiner system satisfies: at most one
    part has odd size, and 3 (sum of squared part sizes) >= m^2 + 2m, m the
    size of their union, for every set of at least two parts; with all the
    parts, m = n."""
    sizes = [len(p) for p in parts]
    return sum(sizes) == n and sum(s % 2 for s in sizes) <= 1 and all(
        3 * sum(s * s for s in some) >= sum(some) ** 2 + 2 * sum(some)
        for r in range(2, len(sizes) + 1) for some in combinations(sizes, r))


def _two_largest(parts):
    return sum(sorted(map(len, parts))[2:])


class TestL2Partitions:
    @pytest.mark.parametrize("make", [
        fano, s9, single_triple, lambda: build_system(4, []),
        *[lambda s=s: _partial_linear(9, s, planted=False) for s in range(4)],
        *[lambda s=s: _partial_linear(n, s, planted=True) for n, s in
          ((6, 10), (8, 11), (9, 12), (9, 13), (10, 14))],
        *[lambda s=s: binomial_3graph(9, 0.12, s) for s in range(4)],
    ], ids=["fano", "s9", "n3", "n4-empty", *[f"linear9-{s}" for s in range(4)],
            "planted6", "planted8", "planted9a", "planted9b", "planted10",
            *[f"binomial9-{s}" for s in range(4)]])
    def test_matches_the_oracle(self, make):
        ts = make()
        res = search.l2_partitions(ts)
        assert res.exact
        got = _as_sets(res)
        assert len(got) == len(res.partitions)
        assert got == brute_l2_partitions(ts.n, ts.triples)
        for parts in res.partitions:
            # ordered by their lowest vertices
            assert [min(p) for p in parts] == sorted(min(p) for p in parts)

    @pytest.mark.parametrize("seed, count, nodes", [
        (0, 8, 87), (1, 6, 74), (2, 176, 446), (3, 82, 285),
    ])
    def test_pinned_counts_where_a_pair_lies_in_two_triples(self, seed, count, nodes):
        system = binomial_3graph(9, 0.12, seed)
        assert not system.linear
        res = search.l2_partitions(system)
        assert (len(res.partitions), res.exact, res.budget_spent.nodes) == (count, True, nodes)

    def test_planted_systems_have_partitions(self):
        assert all(search.l2_partitions(_partial_linear(n, s, planted=True)).partitions
                   for n, s in ((6, 10), (8, 11), (9, 12), (9, 13), (10, 14)))

    @pytest.mark.parametrize("make, count, best, nodes", [
        (lambda: bose(21), 63, 18, 2_524),
        (lambda: bose(27), 351, 22, 8_791),
        (pg32, 315, 12, 1_864),
    ], ids=["bose21", "bose27", "pg32"])
    def test_pinned_counts(self, make, count, best, nodes):
        system = make()
        res = search.l2_partitions(system)
        assert (len(res.partitions), res.exact, res.budget_spent.nodes) == (count, True, nodes)
        assert min(map(_two_largest, res.partitions)) == best
        assert all(_meets_the_pair_count(system.n, p) for p in res.partitions)

    def test_pg32_parts_are_nested_subspaces(self):
        res = search.l2_partitions(pg32())
        assert {tuple(sorted(map(len, p))) for p in res.partitions} == {(1, 2, 4, 8)}
        # they meet the pair count with equality
        assert all(3 * sum(len(b) ** 2 for b in p) == 15 * 15 + 2 * 15 for p in res.partitions)

    @pytest.mark.parametrize("make", [fano, s9], ids=["fano", "s9"])
    def test_brute_partitions_meet_the_pair_count(self, make):
        system = make()
        assert all(_meets_the_pair_count(system.n, p)
                   for p in brute_l2_partitions(system.n, system.triples))

    @pytest.mark.parametrize("make", [s9, lambda: _partial_linear(9, 12, planted=True)],
                             ids=["s9", "planted9"])
    def test_node_cap_is_never_exceeded(self, make):
        system = make()
        full = search.l2_partitions(system)
        for cap in range(1, 65):
            res = search.l2_partitions(system, SearchBudget(max_nodes=cap))
            if res.exact:
                assert res.budget_spent.nodes == full.budget_spent.nodes <= cap
                assert res.partitions == full.partitions
            else:
                assert res.budget_spent.nodes == cap < full.budget_spent.nodes
                assert set(res.partitions) <= set(full.partitions)

    def test_search_depth_is_not_bounded_by_recursion_limit(self):
        res = search.l2_partitions(bose(99), SearchBudget(max_nodes=3_000))
        assert res.budget_spent.nodes <= 3_000


class TestLeastL2Sum:
    def test_matches_the_brute_minimum(self):
        for n in range(4, 61):
            assert search._least_l2_sum(n) == brute_least_l2_sum(n), n

    def test_equals_the_gyarfas_bound(self):
        # ceil(2n/3) + 1 = n - (floor(n/3) - 1): the skip fires exactly at the cap
        for n in range(9, 200):
            if n % 6 in (1, 3):
                assert search._least_l2_sum(n) == closed_form_bounds(n).gyarfas, n


def _seeded_mc_exact(system):
    hole = alpha_star(system, 3).lower_certificate
    return mc_exact(system, 3, initial=hole_coloring(system, hole) if hole.a else None)


class TestMc3ByDecomposition:
    @pytest.mark.parametrize("make", [
        fano, s9, lambda: skolem(13),
        *[lambda s=s: random_sts(13, 1_000_003 + s) for s in (131, 132, 133)],
        lambda: bose(15), lambda: _relabeled(skolem(13), 5), lambda: _relabeled(bose(15), 6),
        lambda: build_system(1, []), single_triple,
    ], ids=["fano", "s9", "skolem13", "random_sts13_a", "random_sts13_b", "random_sts13_c",
            "bose15", "skolem13-relabeled", "bose15-relabeled", "n1", "n3"])
    def test_agrees_with_mc_exact(self, make):
        system = make()
        res, name = search.mc3_by_decomposition(system, alpha_star(system, 3))
        ref = _seeded_mc_exact(system)
        assert (res.value, res.exact) == (ref.value, ref.exact) == (ref.value, True)
        assert largest_mono_component(res.lower_certificate)[0] == res.value
        assert name in ("hole_coloring", "l2_coloring")

    @pytest.mark.parametrize("make, value, name, nodes", [
        (lambda: skolem(19), 14, "hole_coloring", 0),
        (lambda: random_sts(19, 7), 14, "hole_coloring", 0),
        (lambda: bose(21), 16, "hole_coloring", 2_524),
        (pg32, 12, "l2_coloring", 1_864),
    ], ids=["skolem19", "random_sts19", "bose21", "pg32"])
    def test_pinned_values(self, make, value, name, nodes):
        system = make()
        res, got_name = search.mc3_by_decomposition(system, alpha_star(system, 3))
        assert (res.value, res.exact, got_name) == (value, True, name)
        assert res.budget_spent.nodes == nodes
        assert largest_mono_component(res.lower_certificate)[0] == value

    @pytest.mark.parametrize("make, value", [
        (s9, 7), (lambda: skolem(13), 10),
        *[(lambda s=s: random_sts(13, 1_000_003 + s), 10) for s in (131, 132, 133)],
        (lambda: bose(15), 11), (lambda: skolem(19), 14), (lambda: random_sts(19, 7), 14),
        (lambda: random_sts(15, 39), 11), (lambda: random_sts(19, 8), 14),
    ], ids=["s9", "skolem13", "random_sts13_a", "random_sts13_b", "random_sts13_c",
            "bose15", "skolem19", "random_sts19", "random_sts15_l2", "random_sts19_l2"])
    def test_at_the_cap_the_enumeration_is_skipped(self, make, value):
        system = make()
        hole = alpha_star(system, 3)
        assert hole.value == system.n // 3 - 1
        res, name = search.mc3_by_decomposition(system)
        assert (res.value, res.exact, name) == (value, True, "hole_coloring")
        assert res.budget_spent.nodes == hole.budget_spent.nodes
        # what the skipped enumeration would find: none of the L2 partitions
        # beats n - alpha*_3, and on a tie the hole coloring would be kept
        # (the last two systems have 21 and 3 partitions)
        parts = search.l2_partitions(system).partitions
        assert all(_meets_the_pair_count(system.n, p) for p in parts)
        assert all(_two_largest(p) >= value for p in parts)

    def test_without_a_hole_shares_one_meter(self, s9_sys):
        hole = alpha_star(s9_sys, 3)
        alone, _ = search.mc3_by_decomposition(s9_sys, hole)
        shared, _ = search.mc3_by_decomposition(s9_sys)
        assert (shared.value, shared.exact) == (alone.value, alone.exact) == (7, True)
        assert shared.budget_spent.nodes == hole.budget_spent.nodes + alone.budget_spent.nodes

    @pytest.mark.parametrize("cap, exact", [
        (13_933, False), (13_934, False), (13_935, False), (16_457, False), (16_458, True),
    ])
    def test_one_meter_hands_over_from_the_hole_to_the_enumeration(self, cap, exact):
        # alpha_star settles bose(21) at 5 after 13,934 nodes, and the L2
        # enumeration below the cap takes 2,524 more on the same meter.  A
        # cap short of the sum stops the hole search or the enumeration, and
        # the hole coloring's 16 stands, inexact
        system = bose(21)
        res, name = search.mc3_by_decomposition(system, budget=SearchBudget(max_nodes=cap))
        assert (res.value, res.exact, name) == (16, exact, "hole_coloring")
        assert res.budget_spent.nodes == cap
        assert largest_mono_component(res.lower_certificate)[0] == 16

    @pytest.mark.parametrize("cap, exact", [
        (67_604, False), (67_605, False), (67_606, False), (76_395, False), (76_396, True),
    ])
    def test_one_meter_hands_over_on_bose27(self, cap, exact):
        # alpha_star settles bose(27) at 7 after 67,605 nodes, the last
        # 67,438 of them split across the CPUs, and the L2 enumeration takes
        # 8,791 more on the same meter
        system = bose(27)
        res, name = search.mc3_by_decomposition(system, budget=SearchBudget(max_nodes=cap))
        assert (res.value, res.exact, name) == (20, exact, "hole_coloring")
        assert res.budget_spent.nodes == cap
        assert largest_mono_component(res.lower_certificate)[0] == 20

    @pytest.mark.parametrize("make", [fano, s9], ids=["fano", "s9"])
    def test_node_cap_is_never_exceeded(self, make):
        system = make()
        full, _ = search.mc3_by_decomposition(system)
        for cap in range(1, 65):
            res, _ = search.mc3_by_decomposition(system, budget=SearchBudget(max_nodes=cap))
            assert largest_mono_component(res.lower_certificate)[0] == res.value
            if res.exact:
                assert res.budget_spent.nodes == full.budget_spent.nodes <= cap
                assert res.value == full.value
            else:
                assert res.budget_spent.nodes == cap < full.budget_spent.nodes

    def test_candidates_win_only_when_strictly_better(self):
        from stsramsey import bose_coloring, infer_labels
        system = bose(27)
        layer = [("bose_coloring", bose_coloring(infer_labels(system)))]
        small, name = search.mc3_by_decomposition(system, budget=SearchBudget(max_nodes=50),
                                                  candidates=layer)
        assert (small.value, small.exact, name) == (21, False, "bose_coloring")
        res, name = search.mc3_by_decomposition(system, budget=SearchBudget(max_nodes=5_000),
                                                candidates=layer)
        assert (res.value, res.exact, name) == (20, False, "hole_coloring")

    @pytest.mark.parametrize("wrap", [list, lambda c: (x for x in c)], ids=["list", "generator"])
    def test_candidates_are_read_once(self, wrap):
        # a generator of candidates is read once: a check that consumed it
        # would leave only the hole coloring's 21
        from stsramsey import bose_coloring
        system = bose(21)
        layer = [("bose_coloring", bose_coloring(system))]
        res, got_name = search.mc3_by_decomposition(system, budget=SearchBudget(max_nodes=50),
                                                    candidates=wrap(layer))
        assert (res.value, res.exact, got_name) == (17, False, "bose_coloring")

    def test_bad_inputs_rejected(self, fano_sys, s9_sys):
        with pytest.raises(ValueError, match="Steiner"):
            search.mc3_by_decomposition(_partial_linear(9, 0, planted=False))
        with pytest.raises(ValueError, match="3-partite"):
            search.mc3_by_decomposition(s9_sys, alpha_star(s9_sys, 2))
        for other in (EdgeColoring(system=fano_sys, r=3, colors=(0,) * 7),
                      EdgeColoring(system=s9_sys, r=4, colors=(3,) * 12)):
            with pytest.raises(ValueError, match="3-color this system"):
                search.mc3_by_decomposition(s9_sys, candidates=[("other", other)])

    @pytest.mark.parametrize("hole, candidates, message", [
        (lambda s: independence_number(s), (), "3-partite"),
        (lambda s: None, [("x", 5)], "3-color this system"),
    ], ids=["alpha-result", "int-candidate"])
    def test_wrong_types_raise_value_error(self, s9_sys, hole, candidates, message):
        with pytest.raises(ValueError, match=message):
            search.mc3_by_decomposition(s9_sys, hole(s9_sys), candidates=candidates)

    def test_certificate_that_misses_the_bound_raises(self, s9_sys):
        # a smaller hole (a = 0 or 1 of s9's 2) claimed exact raises the
        # bound n - alpha*_3 past what a candidate, the coloring of the
        # true hole, reaches
        hole = alpha_star(s9_sys, 3)
        true = [("true", hole_coloring(s9_sys, hole.lower_certificate))]
        for a in (0, 1):
            small = HoleCertificate(k=3, a=a, parts=tuple(frozenset(sorted(p)[:a])
                                                          for p in hole.lower_certificate.parts))
            wrong = search.ParamResult(a, True, small, hole.budget_spent)
            with pytest.raises(RuntimeError, match="misses the decomposition bound"):
                search.mc3_by_decomposition(s9_sys, wrong, candidates=true)

    @pytest.mark.parametrize("value", [6, 4, True, 5.0, None])
    def test_value_other_than_the_certificate_size_raises_value_error(self, value):
        # bose(21)'s exact hole has 5 vertices a part; 6 once raised the
        # RuntimeError of an internal fault, and 4 with exact=False gave 16
        system = bose(21)
        hole = alpha_star(system, 3)
        assert hole.value == hole.lower_certificate.a == 5
        for exact in (True, False):
            wrong = replace(hole, value=value, exact=exact)
            with pytest.raises(ValueError, match="is not the size of its certificate"):
                search.mc3_by_decomposition(system, wrong)

    def test_bound_check_survives_optimization(self):
        src = str(Path(stsramsey.__file__).resolve().parents[1])
        code = ("import stsramsey, stsramsey.search as search\n"
                "from stsramsey.colorings import hole_coloring\n"
                "from stsramsey.core import HoleCertificate\n"
                "s = stsramsey.s9()\n"
                "h = search.alpha_star(s, 3)\n"
                "true = [('true', hole_coloring(s, h.lower_certificate))]\n"
                "for a in (0, 1):\n"
                "    small = HoleCertificate(k=3, a=a, parts=tuple(frozenset(sorted(p)[:a])"
                " for p in h.lower_certificate.parts))\n"
                "    wrong = search.ParamResult(a, True, small, h.budget_spent)\n"
                "    try:\n"
                "        search.mc3_by_decomposition(s, wrong, candidates=true)\n"
                "    except RuntimeError as exc:\n"
                "        print(exc)\n")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == ["mc_3 certificate misses the decomposition bound"] * 2
