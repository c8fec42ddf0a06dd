import math

import pytest

from stsramsey import (
    BadM,
    BadOrder,
    binomial_3graph,
    build_system,
    derive_seed,
    experiment_discrepancy,
    linearize,
    random_sts,
    triangle_removal,
    validate_steiner,
)
from stsramsey.randomized import CSV_HEADER, rows_to_csv


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_paths_differ(self):
        values = {derive_seed(7, i) for i in range(100)}
        assert len(values) == 100

    def test_order_matters(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


class TestTriangleRemoval:
    def test_zero_steps(self):
        out = triangle_removal(9, 0, 1)
        assert not out.stuck and out.system.m == 0

    def test_outputs_linear_with_linear_prefixes(self):
        for seed in range(10):
            out = triangle_removal(13, 13, seed)
            assert not out.stuck
            assert out.system.linear
            for i in range(out.system.m + 1):
                assert build_system(13, out.system.triples[:i]).linear

    def test_complete_run_is_steiner(self):
        # seed 1 completes all 7 steps on 7 vertices (measured)
        out = triangle_removal(7, 7, 1)
        assert not out.stuck
        validate_steiner(out.system)

    def test_stuck_is_reported(self):
        # seed 0 gets stuck before 7 steps (measured)
        out = triangle_removal(7, 7, 0)
        assert out.stuck

    def test_deterministic(self):
        a = triangle_removal(10, 5, 99)
        b = triangle_removal(10, 5, 99)
        assert a.system.triples == b.system.triples

    def test_bad_m(self):
        with pytest.raises(BadM):
            triangle_removal(7, 8, 0)  # C(7,2)/3 = 7


class TestBinomial3Graph:
    def test_p_zero(self):
        assert binomial_3graph(10, 0.0, 4).m == 0

    def test_p_one(self):
        assert binomial_3graph(5, 1.0, 4).m == 10

    def test_bad_p(self):
        with pytest.raises(ValueError):
            binomial_3graph(5, 1.5, 4)

    def test_mean_count_in_three_sigma(self):
        # 2000 seeded samples of G(30, 1/60); per-sample sd of the count is
        # sqrt(C(30,3) p (1-p))
        p = 1 / 60
        expected = math.comb(30, 3) * p
        counts = [binomial_3graph(30, p, derive_seed(123, i)).m for i in range(2000)]
        mean = sum(counts) / len(counts)
        se = math.sqrt(expected * (1 - p)) / math.sqrt(len(counts))
        assert abs(mean - expected) <= 3 * se


class TestLinearize:
    def test_mutual_conflict_removes_both(self):
        g = build_system(4, [(0, 1, 2), (0, 1, 3)])
        assert linearize(g).m == 0

    def test_disjoint_triples_kept(self):
        g = build_system(6, [(0, 1, 2), (3, 4, 5)])
        out = linearize(g)
        assert out.m == 2 and out.linear

    def test_random_samples_always_linear(self):
        for i in range(100):
            g = binomial_3graph(20, 1 / 40, derive_seed(55, i))
            out = linearize(g)
            assert out.linear
            seen = set()
            for t in out.triples:
                for p in ((t.a, t.b), (t.a, t.c), (t.b, t.c)):
                    assert p not in seen
                    seen.add(p)


class TestRandomSts:
    @pytest.mark.parametrize("n", [7, 9, 13, 15, 19])
    def test_valid_systems(self, n):
        system = random_sts(n, 42)
        assert system.n == n and system.m == n * (n - 1) // 6

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            random_sts(8, 0)

    def test_deterministic(self):
        assert random_sts(13, 5).triples == random_sts(13, 5).triples

    def test_seeds_vary(self):
        assert random_sts(13, 5).triples != random_sts(13, 6).triples


class TestExperiment:
    def test_s9_full_rows_all_two(self):
        # the 9-point system is unique, so every full sample measures 2
        rows, summary = experiment_discrepancy(9, 50, seed=1)
        full = [r for r in rows if r.model == "random_sts"]
        assert len(full) == 50
        assert all(r.alpha_star3 == 2 and r.exact for r in full)
        assert summary["random_sts"]["max_exact"] == 2

    def test_row_count_contract(self):
        rows, _ = experiment_discrepancy(13, 4, seed=3)
        assert len(rows) == 8

    def test_full_rows_respect_steiner_cap(self):
        rows, _ = experiment_discrepancy(13, 6, seed=9)
        for r in rows:
            if r.model == "random_sts" and r.exact:
                assert r.alpha_star3 <= 13 // 3 - 1

    def test_csv_byte_identical_on_rerun(self):
        rows1, _ = experiment_discrepancy(13, 3, seed=77)
        rows2, _ = experiment_discrepancy(13, 3, seed=77)
        assert rows_to_csv(rows1) == rows_to_csv(rows2)

    def test_csv_schema(self):
        rows, _ = experiment_discrepancy(9, 1, seed=0)
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER == "seed,n,model,m_or_p,sample,alpha_star3,exact,nodes,seconds"
        assert len(lines) == 3
        assert text.endswith("\n") and "\r" not in text

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            experiment_discrepancy(8, 1, seed=0)
