from dataclasses import replace

import pytest

from stsramsey import (
    BadOrder,
    EvenOrder,
    MissingLabels,
    NonIdempotentQuasigroup,
    OddOrder,
    PairMulticovered,
    PairUncovered,
    Quasigroup,
    StsError,
    bose,
    build_system,
    fano,
    half_idempotent_quasigroup,
    idempotent_quasigroup,
    infer_labels,
    pair_degree_min,
    random_idempotent_quasigroup,
    s9,
    skolem,
    validate_steiner,
)
from stsramsey.core import LABEL_TYPE1, LABEL_TYPE2, LABEL_TYPE3


class TestQuasigroups:
    def test_idempotent_q3(self):
        q = idempotent_quasigroup(3)
        assert q.table[0][1] == 2
        assert tuple(q.table[i][i] for i in range(3)) == (0, 1, 2)
        assert q.commutative and q.idempotent

    def test_idempotent_q5(self):
        q = idempotent_quasigroup(5)
        assert q.table[1][2] == 4
        assert q.table[0] == (0, 3, 1, 4, 2)

    def test_idempotent_even_order_rejected(self):
        with pytest.raises(EvenOrder):
            idempotent_quasigroup(4)

    def test_half_idempotent_q2(self):
        q = half_idempotent_quasigroup(2)
        assert q.table == ((0, 1), (1, 0))
        assert q.half_idempotent and q.commutative

    def test_half_idempotent_q4_diagonal(self):
        q = half_idempotent_quasigroup(4)
        assert tuple(q.table[i][i] for i in range(4)) == (0, 1, 0, 1)
        assert q.half_idempotent

    def test_half_idempotent_odd_order_rejected(self):
        with pytest.raises(OddOrder):
            half_idempotent_quasigroup(3)

    @pytest.mark.parametrize("q", range(1, 34, 2))
    def test_idempotent_family_flags(self, q):
        quasi = idempotent_quasigroup(q)
        assert quasi.commutative and quasi.idempotent

    @pytest.mark.parametrize("q", range(2, 33, 2))
    def test_half_idempotent_family_flags(self, q):
        quasi = half_idempotent_quasigroup(q)
        assert quasi.commutative and quasi.half_idempotent

    def test_from_table_rejects_non_latin(self):
        with pytest.raises(ValueError):
            Quasigroup.from_table([[0, 0], [1, 1]])


class TestRandomQuasigroup:
    def test_order3_is_the_unique_one(self):
        assert random_idempotent_quasigroup(3, 9).table == idempotent_quasigroup(3).table

    def test_order7_flags_verified(self):
        q = random_idempotent_quasigroup(7, 42)
        assert q.commutative and q.idempotent

    def test_deterministic(self):
        assert random_idempotent_quasigroup(7, 42).table == \
            random_idempotent_quasigroup(7, 42).table

    def test_seeds_differ(self):
        tables = {random_idempotent_quasigroup(9, s).table for s in range(8)}
        assert len(tables) > 1

    def test_even_order_rejected(self):
        with pytest.raises(EvenOrder):
            random_idempotent_quasigroup(4, 0)


class TestBose:
    def test_n9_is_unique_s9(self):
        system = bose(9)
        assert (system.n, system.m) == (9, 12)

    def test_n15_label_cardinalities(self):
        system = bose(15)
        assert system.m == 35
        assert system.labels.count(LABEL_TYPE1) == 5
        assert system.labels.count(LABEL_TYPE2) == 30

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            bose(13)

    def test_all_admissible_orders(self):
        for n in range(9, 100, 6):
            system = bose(n)
            assert system.m == n * (n - 1) // 6
            assert pair_degree_min(system) == 1
            k = (n - 3) // 6
            assert system.labels.count(LABEL_TYPE1) == 2 * k + 1
            assert system.labels.count(LABEL_TYPE2) == system.m - (2 * k + 1)

    @pytest.mark.parametrize("n", [15, 21, 27])
    def test_random_quasigroups_still_build(self, n):
        for seed in range(20):
            q = random_idempotent_quasigroup(n // 3, seed)
            system = bose(n, q)
            assert system.m == n * (n - 1) // 6

    def test_wrong_quasigroup_rejected(self):
        q = half_idempotent_quasigroup(8)
        with pytest.raises(NonIdempotentQuasigroup):
            bose(27, q)


# Vertex bijection mapping skolem(7) onto the canonical 7-point system,
# found once by exhausting the 5040 candidates (S_7 is unique up to
# isomorphism, so one must exist).
SKOLEM7_TO_FANO = (0, 1, 2, 4, 6, 5, 3)


class TestSkolem:
    def test_n7_isomorphic_to_fano(self):
        system = skolem(7)
        assert system.m == 7
        mapped = {tuple(sorted(SKOLEM7_TO_FANO[v] for v in t)) for t in system.triples}
        assert mapped == {tuple(t) for t in fano().triples}

    def test_n19_label_cardinalities(self):
        system = skolem(19)
        assert system.m == 57
        assert system.labels.count(LABEL_TYPE1) == 3
        assert system.labels.count(LABEL_TYPE2) == 9
        assert system.labels.count(LABEL_TYPE3) == 45

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            skolem(9)

    def test_all_admissible_orders(self):
        for n in range(7, 100, 6):
            system = skolem(n)
            assert system.m == n * (n - 1) // 6
            assert pair_degree_min(system) == 1
            k = n // 6
            assert system.labels.count(LABEL_TYPE1) == k
            assert system.labels.count(LABEL_TYPE2) == 3 * k


def skolem_literal_type2(n):
    """The other published shape of the Skolem type-2 family: triples
    {inf, (k o a, i), (k, i+1)}.  Kept as evidence that it cannot cover the
    pairs at inf (the inf triples never meet the points (a, .) for a < k)."""
    k = n // 6
    q = 2 * k
    quasi = half_idempotent_quasigroup(q)
    inf = 0

    def enc(a, i):
        return 1 + 3 * a + i

    triples = []
    for a in range(k):
        triples.append((enc(a, 0), enc(a, 1), enc(a, 2)))
    for a in range(k):
        for i in range(3):
            triples.append((inf, enc(quasi.mul(k, a), i), enc(k, (i + 1) % 3)))
    for a in range(q):
        for b in range(a + 1, q):
            for i in range(3):
                triples.append((enc(a, i), enc(b, i), enc(quasi.mul(a, b), (i + 1) % 3)))
    return triples


@pytest.mark.parametrize("n", [7, 13, 19])
def test_skolem_literal_type2_fails_validation(n):
    triples = skolem_literal_type2(n)
    with pytest.raises((PairUncovered, PairMulticovered, StsError)):
        validate_steiner(build_system(n, triples))


class TestFixedSystems:
    def test_fano(self):
        system = fano()
        assert system.m == 7
        assert pair_degree_min(system) == 1

    def test_s9(self):
        assert s9().m == 12

    def test_s9_and_bose9_share_invariant_fingerprints(self):
        # S_9 is unique up to isomorphism; compare cheap invariants rather
        # than searching for the bijection.
        def fingerprint(system):
            degrees = sorted(sum(1 for t in system.triples if v in t)
                             for v in range(system.n))
            pair_degrees = sorted(len(ix) for ix in system.pair_index.values())
            return degrees, pair_degrees, system.m

        assert fingerprint(s9()) == fingerprint(bose(9))


class TestInferLabels:
    @pytest.mark.parametrize("n", [9, 15, 27, 45])
    def test_bose_labels_recovered(self, n):
        system = bose(n)
        assert infer_labels(replace(system, labels=None)).labels == system.labels

    @pytest.mark.parametrize("n", [7, 13, 19, 37])
    def test_skolem_labels_recovered(self, n):
        system = skolem(n)
        assert infer_labels(replace(system, labels=None)).labels == system.labels

    def test_fano_has_no_labels(self):
        with pytest.raises(MissingLabels):
            infer_labels(fano())

    def test_bose_with_random_quasigroup_still_inferable(self):
        # the patterns only depend on the vertex encoding, not the quasigroup
        system = bose(15, random_idempotent_quasigroup(5, 77))
        assert infer_labels(replace(system, labels=None)).labels == system.labels

    def test_shuffled_bose_loses_pattern(self):
        import random
        system = bose(9)
        rng = random.Random(3)
        perm = list(range(9))
        rng.shuffle(perm)
        shuffled = build_system(9, [tuple(perm[v] for v in t) for t in system.triples])
        try:
            labeled = infer_labels(shuffled)
            assert labeled.labels is not None  # relabeling may coincide
        except MissingLabels:
            pass
