import errno
import hashlib
import math
import os
import random
import threading
import tracemalloc

import pytest

from stsramsey import (
    BadM,
    BadOrder,
    RestartsExhausted,
    alpha_star,
    binomial_3graph,
    build_system,
    derive_seed,
    experiment_discrepancy,
    linearize,
    random_sts,
    triangle_removal,
    validate_steiner,
)
from stsramsey.randomized import CSV_HEADER, ProcessOutcome, _hill_climb_sts, rows_to_csv

from oracles import stdlib_hill_climb_sts
from test_search import _assert_no_children, _counted_forks, _cpus, _no_fork, needs_fork


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_paths_differ(self):
        values = {derive_seed(7, i) for i in range(100)}
        assert len(values) == 100

    def test_order_matters(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)

    # a master seed or path step that is not an int, given directly or as the
    # seed of a sampler
    @pytest.mark.parametrize("call", [
        lambda: derive_seed(1.5),
        lambda: derive_seed(1, 2.0),
        lambda: derive_seed(True),
        lambda: random_sts(9, 1.5),
        lambda: triangle_removal(9, 3, 1.5),
        lambda: binomial_3graph(9, 0.5, 1.5),
    ], ids=["master", "step", "bool-master", "random-sts", "triangle-removal", "binomial"])
    def test_seeds_must_be_ints(self, call):
        with pytest.raises(ValueError, match="^seeds and path steps must be ints"):
            call()


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

    @pytest.mark.parametrize("n, m", [(9.0, 3), (9, 3.0), (9, True)])
    def test_n_and_m_must_be_ints(self, n, m):
        with pytest.raises(BadM, match="^n and m must be ints"):
            triangle_removal(n, m, 1)


class TestBinomial3Graph:
    def test_p_zero(self):
        assert binomial_3graph(10, 0.0, 4).m == 0

    def test_p_one(self):
        assert binomial_3graph(5, 1.0, 4).m == 10

    def test_bad_p(self):
        with pytest.raises(ValueError):
            binomial_3graph(5, 1.5, 4)

    def test_n_must_be_an_int(self):
        with pytest.raises(ValueError, match=r"^n must be an int, got 9\.0$"):
            binomial_3graph(9.0, 0.5, 1)

    @pytest.mark.parametrize("p", ["0.5", None, True], ids=["str", "none", "bool"])
    def test_p_must_be_a_number(self, p):
        with pytest.raises(ValueError, match="^probability must be a number"):
            binomial_3graph(9, p, 1)

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

    # sha256 of linearize on binomial graphs with conflicts, recorded while
    # linearize read a pair -> triples index: triples kept, in input order
    @pytest.mark.parametrize("n, p, seed, m, kept, digest", [
        (20, 1 / 40, 55, 25, 4, "831e46f40432120902316d1bc8e32b0e59400581f21b0b2a6d3f1d01401daeb5"),
        (30, 1 / 60, 7, 69, 15, "7f4ad82fb183c9af66048c850d1d855b866a507a02175f9f6c475dc29248751e"),
        (45, 0.01, 3, 140, 37, "42b3e42a248ad28a37fe353cb9ead6c25fb8bc0534fb3ac7a1bab4bc161bd673"),
        (99, 0.004, 5, 638, 194, "1a281eddddc52dd59a511d275d4ca17823be9998964048a80d05667ce35ab5c6"),
        (99, 0.01, 1, 1555, 101, "e7978d3feae29911782872fc5f43afc41287157b57589acc2d6929beabd946de"),
    ])
    def test_pinned_outputs(self, n, p, seed, m, kept, digest):
        g = binomial_3graph(n, p, seed)
        out = linearize(g)
        assert (g.m, out.m) == (m, kept)
        assert _digest(out.triples) == digest

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
    @pytest.mark.parametrize("n", [3, 7, 9, 13, 15, 19])
    def test_valid_systems(self, n):
        system = random_sts(n, 42)
        assert system.n == n and system.m == n * (n - 1) // 6

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            random_sts(8, 0)

    def test_n_must_be_an_int(self):
        with pytest.raises(BadOrder):
            random_sts(9.0, 1)

    def test_deterministic(self):
        assert random_sts(13, 5).triples == random_sts(13, 5).triples

    # n >= 23 starts with more than 21 live partners per point, so the draws
    # take both paths of Random.sample(seq, 2): its pool and its set.  A
    # point's live-partner count is n - 1 less two per block through it, so
    # always even: the pool/set boundary is seen at sizes 20 and 22
    @pytest.mark.parametrize("n", [3, 7, 9, 13, 15, 19, 21, 25, 27, 31, 43])
    def test_hill_climb_draws_as_the_stdlib_does(self, n):
        for seed in range(10):
            got = _hill_climb_sts(n, random.Random(seed), 200 * n * n)
            assert got == stdlib_hill_climb_sts(n, random.Random(seed), 200 * n * n)

    def test_seeds_vary(self):
        assert random_sts(13, 5).triples != random_sts(13, 6).triples

    def test_hill_climb_gives_up_after_max_iters(self):
        # each step adds at most one block, and 7 points need 7
        assert _hill_climb_sts(7, random.Random(0), 6) is None

    def test_gives_up_after_the_restart_cap(self, monkeypatch):
        calls = []

        def never(n, rng, max_iters):
            calls.append(n)
            return None

        monkeypatch.setattr("stsramsey.randomized._hill_climb_sts", never)
        with pytest.raises(RestartsExhausted) as err:
            random_sts(19, 5)
        assert len(calls) == 1000
        assert str(err.value) == "no complete system on n=19 within 1000 restarts"

    def test_restart_draws_from_the_next_attempt_stream(self, monkeypatch):
        states = []

        def fail_once(n, rng, max_iters):
            states.append(rng.getstate())
            return None if len(states) == 1 else _hill_climb_sts(n, rng, max_iters)

        monkeypatch.setattr("stsramsey.randomized._hill_climb_sts", fail_once)
        got = random_sts(13, 5)
        assert states == [random.Random(derive_seed(5, a)).getstate() for a in (0, 1)]
        blocks = _hill_climb_sts(13, random.Random(derive_seed(5, 1)), 200 * 13 * 13)
        assert got == validate_steiner(build_system(13, blocks))


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

    def test_n_must_be_an_int(self):
        with pytest.raises(BadOrder):
            experiment_discrepancy(9.0, 1, 1)

    def test_no_sample(self):
        with pytest.raises(ValueError, match="^need at least one sample$"):
            experiment_discrepancy(19, 0, 1)

    def test_samples_must_be_an_int(self):
        with pytest.raises(ValueError, match=r"^samples must be an int, got 1\.5$"):
            experiment_discrepancy(9, 1.5, 1)

    def test_stuck_partial_system_is_retried(self, monkeypatch):
        # a stuck first attempt is drawn again from derive_seed(seed, i, 1, 1)
        seeds = []

        def stuck_once(n, m, seed):
            seeds.append(seed)
            return ProcessOutcome(None) if len(seeds) == 1 else triangle_removal(n, m, seed)

        monkeypatch.setattr("stsramsey.randomized.triangle_removal", stuck_once)
        rows, _ = experiment_discrepancy(9, 1, seed=4)
        assert seeds == [derive_seed(4, 0, 1), derive_seed(4, 0, 1, 1)]
        partial = triangle_removal(9, 6, derive_seed(4, 0, 1, 1)).system
        res = alpha_star(partial, 3)
        assert (rows[0].model, rows[0].alpha_star3, rows[0].nodes) == (
            "triangle_removal", res.value, res.budget_spent.nodes)

    def test_stuck_partial_process_gives_up_after_the_restart_cap(self, monkeypatch):
        # the first draw and 1000 restarts, all stuck
        calls = []

        def always_stuck(n, m, seed):
            calls.append(seed)
            return ProcessOutcome(None)

        monkeypatch.setattr("stsramsey.randomized.triangle_removal", always_stuck)
        with pytest.raises(RestartsExhausted) as err:
            experiment_discrepancy(19, 1, seed=4)
        assert len(calls) == 1001
        assert str(err.value) == "partial process stuck 1000 times at n=19"


def _experiment(n, samples, seed=1):
    rows, summary = experiment_discrepancy(n, samples, seed)
    return rows, rows_to_csv(rows), summary


class TestSampleSplit:
    """The samples of the experiment cut into one contiguous block per CPU,
    every block after the first run in a forked child."""

    @needs_fork
    @pytest.mark.parametrize("n, samples", [(9, 1), (9, 3), (13, 4), (19, 10)])
    def test_every_number_of_cpus_matches_one(self, monkeypatch, n, samples):
        # W CPUs make min(W, samples) blocks, so min(W, samples) - 1 children
        pids = _counted_forks(monkeypatch)
        outcomes = []
        for cpus in range(1, 6):
            _cpus(monkeypatch, cpus)
            pids.clear()
            outcomes.append(_experiment(n, samples))
            assert len(pids) == min(cpus, samples) - 1
            _assert_no_children()
        assert outcomes == [outcomes[0]] * 5

    @needs_fork
    def test_the_first_error_in_sample_order_is_raised_here(self, monkeypatch):
        # samples 4 and 8 fail; at W = 2 sample 4 is in the caller's block,
        # at W = 3 to 5 both are in children's blocks
        failing = {derive_seed(1, i, 2): i for i in (4, 8)}

        def flaky(n, seed):
            if seed in failing:
                raise RestartsExhausted(f"sample {failing[seed]} failed")
            return random_sts(n, seed)

        monkeypatch.setattr("stsramsey.randomized.random_sts", flaky)
        pids = _counted_forks(monkeypatch)
        for cpus in range(1, 6):
            _cpus(monkeypatch, cpus)
            pids.clear()
            with pytest.raises(RestartsExhausted, match="^sample 4 failed$"):
                experiment_discrepancy(19, 10, 1)
            assert len(pids) == cpus - 1
            _assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("fault", ["thread", "fork-fails", "pipe-fails"])
    def test_one_process_where_no_child_can_run(self, monkeypatch, fault):
        # a second live thread forks nothing; a fork or pipe that fails (out
        # of file descriptors) leaves every block to the caller
        _cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", _no_fork)
        expected = _experiment(19, 10)
        _cpus(monkeypatch, 4)
        tries = []

        def refuse():
            tries.append(len(tries))
            raise OSError(errno.EMFILE if fault == "pipe-fails" else errno.EAGAIN, "refused")

        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        if fault == "thread":
            waiter.start()
        else:
            monkeypatch.setattr(os, "fork" if fault == "fork-fails" else "pipe", refuse)
        try:
            assert _experiment(19, 10) == expected
        finally:
            done.set()
            if fault == "thread":
                waiter.join(timeout=10)
                assert not waiter.is_alive()
        assert tries == ([] if fault == "thread" else [0])
        _assert_no_children()


def _digest(triples) -> str:
    text = ";".join(f"{a},{b},{c}" for a, b, c in triples)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the sampler outputs, recorded before the samplers moved to integer
# arrays; any change to the RNG calls or the list evolution changes a digest.
# None marks a process that gets stuck.
TRIANGLE_REMOVAL_DIGESTS = {
    (7, 7, 0): None,
    (7, 7, 1): "a7cdaafeb91349ae3999161440f67907a4c7a570f811a3e3f1aa5d72e63505af",
    (13, 13, 0): "d6faa45811dfd17682dff67af3780143d303a8b05b14927db50a7d8435686f2c",
    (13, 13, 1): "11b6dba7ec387a683a36eef78684af80db837bda86e3117ca2a27e5713eab2a6",
    (13, 13, 2): "e9ed02357adab2d17f12d56b800c03b3ec2fec4b1aa14b4ecf63a4dcd3885c28",
    (13, 13, 3): "7d1b2426a2ccf60df7287bda445fd6a8693481777a8ad049e44325f0dd8d34cf",
    (13, 13, 4): "2053d03dbde17cb8c08859e91f9dc1c45d7836a0e4bbc0ac61fe17c5e5708348",
    (19, 28, 0): "0300ff1e13eab382f7873589d1c24b76463cb4de965318e5cc444d2fb1e75f74",
    (19, 28, 1): "99a5b5503f6194e4ef4ee395b78ac660ac7d9e6bdcded79ee9a1c4a59f2ad066",
    (19, 28, 2): "ae3493b89a232a63c1f24f4f3aeb5740578d584b441e05b5f83b439e35a53248",
    (19, 28, 3): "d726b57ae4867b763206eb0b4df296c8d0505385aa6683c0118d8d116600552e",
    (19, 28, 4): "78961b01b02b5045a4867a0758d8e6d60fc8fef8ec6a549cefece721edbaf4f4",
    (21, 35, 0): "09831b61d8e4e0d23badd6a43a28cfbec64db76b811099759c2a163af689452d",
    (21, 35, 1): "0572e96db8e6566eee485267e777224e5800d004a4a569c000a3ea4320ac9231",
    (21, 35, 2): "0c61f6ada492fbf08f4b8b4d9079a02c152ad95519027e6d54e7acd685256337",
    (99, 808, 1): "9eb20b42ca27e734ce89427f5accb50768f35c74728379204a95caa07bdb6819",
}

RANDOM_STS_DIGESTS = {
    (7, 0): "dbda55ec35acebf456efcf2004075fdf0095aaf93e7ae2bbffad9ce6c701844e",
    (7, 1): "3da6db95a5b03ebe47863626def776e5ea95309ccf04c1d401fb20b19f427cd9",
    (7, 2): "6613789348218fe9291d89d3361baa162204a7b9f4c013d516ea2243f416b96f",
    (9, 0): "988518df02ddcdf40d743f63f987b31ea77df678128a4245690fbd19a186d793",
    (9, 1): "12c65b799b142fbc8da4d3135158f63794e892b4d49e7968b1a0d75b37032d3b",
    (9, 2): "ff4feec2966330a5b4cf22c1ad5264dd5318c2633f5cf0d5f120899c2e12ed0d",
    (13, 0): "05aa782427fb977bb0ed9d2518063447d7fdad7b6cc096abb02f2023fae4c511",
    (13, 1): "ddc9d4422ffb8a86c976a53243afb33fe32ef843d2e6cbe4e550493b26034b59",
    (13, 2): "d264b35e6faf77ad4ce6fe26723c5229924b8485ba02a3451edd088b2b02ecc1",
    (15, 0): "a3ad72f89025f4106504b5f5862cc22710a305cc545642c83dc306dc5cfc57be",
    (15, 1): "0f13b893c0330139ae0cb4b4b570a948b6ce7d1b0432479e0b42f2ee0fbb7c99",
    (15, 2): "da434b0057e7e7464372abc531ad2a4706097344d1e14b0815a7387088dfd0c7",
    (19, 0): "a543e942b6fb230a71831a39693dbf1af5c3a8c49b28a8eb65f5d23e72979d14",
    (19, 1): "e41237d2c970111069464b1e198c333ed8d344987e312a5140150c2981a7d9d4",
    (19, 2): "ff54e5e911ebee49ec9784f834f8afe47948c1e79d3817471023ae43dc0f2b92",
    (25, 0): "4b5a89d267a2192d90d41363e68a753db907e808528ecb7029754dba1203465b",
    (25, 1): "9265512a0339cbb1b5c1267039c010bb73a54a6d422043e4ea24caefd2004868",
    (25, 2): "384b9d3bb1e83f63be70cb0d32caadc82d6827fe9cdf4217fe6f2920e17c2307",
    (31, 0): "0706ea1580a7f7254f379e804e9b21b95e7a0ebd66a52845b05d8e0539fe8a96",
    (31, 1): "114830a6259dc5087fdf277169ed6d0a046612374f05f6079c8117b3beb4587f",
    (31, 2): "16a45b4a7c2bf03b032af2b114e342a724363c78c41c5f48abd3f180df23f742",
    (99, 0): "a416235b9f7c79391817f2d7fa516cca365508d041f1d232925a6b1aba7ee38c",
    (99, 1): "6526b8a8436c469b09345b44fe7cdf596950ff394d97bbde6ed0284251dce6a6",
    (99, 2): "12ad24eb3a3b36706bef3485ea2f72789190e27834bb6b25b703d7a4f2c34ab4",
}

# sha256 of CSV columns 0-6 (seed to exact), the header included, one line each
DISCREPANCY_13_4_3_VALUES_DIGEST = "0f4aa33f2410a2389fe281e5eaa91b71cf5ff047241cc8f8f14bbbf98d17ad64"


class TestPinnedOutputs:
    @pytest.mark.parametrize("n,m,seed", sorted(TRIANGLE_REMOVAL_DIGESTS))
    def test_triangle_removal(self, n, m, seed):
        out = triangle_removal(n, m, seed)
        got = None if out.stuck else _digest(out.system.triples)
        assert got == TRIANGLE_REMOVAL_DIGESTS[n, m, seed]

    @pytest.mark.parametrize("n,seed", sorted(RANDOM_STS_DIGESTS))
    def test_random_sts(self, n, seed):
        assert _digest(random_sts(n, seed).triples) == RANDOM_STS_DIGESTS[n, seed]

    def test_discrepancy_csv_values(self):
        # the sampled systems and their alpha*_3 values and exact flags;
        # these do not move when the search gets cheaper
        rows, _ = experiment_discrepancy(13, 4, seed=3)
        lines = rows_to_csv(rows).splitlines()
        text = "".join(",".join(ln.split(",")[:7]) + "\n" for ln in lines)
        assert hashlib.sha256(text.encode()).hexdigest() == DISCREPANCY_13_4_3_VALUES_DIGEST

    def test_discrepancy_csv_nodes_and_seconds(self):
        # the search's node counts, deterministic for a given node budget:
        # the probe finds both holes at the cap, 4 and 3
        rows, _ = experiment_discrepancy(13, 4, seed=3)
        lines = rows_to_csv(rows).splitlines()
        assert [ln.split(",")[7:] for ln in lines[1:]] == [["12", "0"], ["9", "0"]] * 4

    def test_discrepancy_n19_nodes(self):
        # the first call of the discrepancy benchmark: 20 alpha*_3 trees on
        # partial and full systems of order 19, pinned by their node counts
        rows, _ = experiment_discrepancy(19, 10, seed=1_001_003)
        assert [r.nodes for r in rows] == [18, 49, 18, 29, 18, 30, 18, 29, 18, 16,
                                           23, 145, 18, 33, 19, 50, 19, 215, 18, 16]

    def test_triangle_removal_memory_stays_small(self):
        # no table of all C(99, 3) = 156,849 triangles as tuples: two int64 arrays
        # are 2.5 MB, the tuple list and its dict about 20 MB
        tracemalloc.start()
        try:
            out = triangle_removal(99, 808, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not out.stuck
        assert peak < 4 * 2**20
