import random
from dataclasses import replace

import pytest

from stsramsey import (
    BadOrder,
    MissingLabels,
    PairMulticovered,
    PairUncovered,
    StsError,
    bose,
    build_system,
    fano,
    infer_labels,
    s9,
    skolem,
    validate_steiner,
)
from stsramsey.constructions import _bose_product, _skolem_product
from stsramsey.core import LABEL_TYPE1, LABEL_TYPE2, LABEL_TYPE3

from oracles import brute_pair_degrees


def cell_relabeled_bose(n, seed):
    """bose(n) with cell a renamed perm[a], perm the seed's first shuffle of
    range(n // 3): vertex v goes to 3 * perm[v // 3] + v % 3.  The labels
    keep their positions, since type-1 triples map onto type-1 triples."""
    perm = list(range(n // 3))
    random.Random(seed).shuffle(perm)
    system = bose(n)
    triples = [[3 * perm[v // 3] + v % 3 for v in t] for t in system.triples]
    return replace(validate_steiner(build_system(n, triples)), labels=system.labels)


def table(mul, q):
    return tuple(tuple(mul(a, b) for b in range(q)) for a in range(q))


def commutative(mul, q):
    return all(mul(a, b) == mul(b, a) for a in range(q) for b in range(a + 1, q))


class TestQuasigroups:
    # the closed-form products bose and skolem build their Latin triples from
    def test_idempotent_q3(self):
        mul = _bose_product(3)
        assert mul(0, 1) == 2
        assert tuple(mul(i, i) for i in range(3)) == (0, 1, 2)
        assert commutative(mul, 3)

    def test_idempotent_q5(self):
        mul = _bose_product(5)
        assert mul(1, 2) == 4
        assert table(mul, 5)[0] == (0, 3, 1, 4, 2)

    def test_half_idempotent_q2(self):
        assert table(_skolem_product(2), 2) == ((0, 1), (1, 0))

    def test_half_idempotent_q4_diagonal(self):
        mul = _skolem_product(4)
        assert tuple(mul(i, i) for i in range(4)) == (0, 1, 0, 1)
        assert commutative(mul, 4)

    @pytest.mark.parametrize("q", range(1, 34, 2))
    def test_idempotent_family_flags(self, q):
        mul = _bose_product(q)
        rows = table(mul, q)
        assert all(sorted(row) == list(range(q)) for row in rows)
        assert commutative(mul, q)
        assert all(mul(a, a) == a for a in range(q))

    @pytest.mark.parametrize("q", range(2, 33, 2))
    def test_half_idempotent_family_flags(self, q):
        mul = _skolem_product(q)
        rows = table(mul, q)
        assert all(sorted(row) == list(range(q)) for row in rows)
        assert commutative(mul, q)
        k = q // 2
        assert all(mul(i, i) == i and mul(k + i, k + i) == i for i in range(k))


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
        # an integral float or a bool is no order either
        for n in (13, 9.0, True):
            with pytest.raises(BadOrder):
                bose(n)

    def test_all_admissible_orders(self):
        for n in range(9, 100, 6):
            system = bose(n)
            assert system.m == n * (n - 1) // 6
            k = (n - 3) // 6
            assert system.labels.count(LABEL_TYPE1) == 2 * k + 1
            assert system.labels.count(LABEL_TYPE2) == system.m - (2 * k + 1)

    @pytest.mark.parametrize("n", [15, 21, 27])
    def test_random_quasigroups_still_build(self, n):
        # a seeded relabelling of the cells, the same triple sets that the
        # retired random quasigroup gave
        for seed in range(20):
            system = cell_relabeled_bose(n, seed)
            assert system.m == n * (n - 1) // 6


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
        for n in (9, 13.0, True):
            with pytest.raises(BadOrder):
                skolem(n)

    def test_all_admissible_orders(self):
        for n in range(7, 100, 6):
            system = skolem(n)
            assert system.m == n * (n - 1) // 6
            k = n // 6
            assert system.labels.count(LABEL_TYPE1) == k
            assert system.labels.count(LABEL_TYPE2) == 3 * k


def skolem_literal_type2(n):
    """The other published shape of the Skolem type-2 family: triples
    {inf, (k o a, i), (k, i+1)}.  Kept as evidence that it cannot cover the
    pairs at inf (the inf triples never meet the points (a, .) for a < k)."""
    k = n // 6
    q = 2 * k
    inf = 0

    def mul(a, b):
        # the half-idempotent product d((a+b) mod 2k), d(2j) = j, d(2j+1) = k+j
        s = (a + b) % q
        return s // 2 if s % 2 == 0 else k + s // 2

    def enc(a, i):
        return 1 + 3 * a + i

    triples = []
    for a in range(k):
        triples.append((enc(a, 0), enc(a, 1), enc(a, 2)))
    for a in range(k):
        for i in range(3):
            triples.append((inf, enc(mul(k, a), i), enc(k, (i + 1) % 3)))
    for a in range(q):
        for b in range(a + 1, q):
            for i in range(3):
                triples.append((enc(a, i), enc(b, i), enc(mul(a, b), (i + 1) % 3)))
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

    def test_s9(self):
        assert s9().m == 12

    def test_s9_and_bose9_share_invariant_fingerprints(self):
        # S_9 is unique up to isomorphism; compare cheap invariants rather
        # than searching for the bijection.
        def fingerprint(system):
            degrees = sorted(sum(1 for t in system.triples if v in t)
                             for v in range(system.n))
            pair_degrees = sorted(brute_pair_degrees(system.triples).values())
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
        system = cell_relabeled_bose(15, 77)
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
