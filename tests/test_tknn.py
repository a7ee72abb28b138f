import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import digamma

from nnshapley import dataset
from nnshapley.dataset import (
    Dataset,
    DistanceMetric,
    LabeledPoint,
    distance,
    generate_gaussian_synthetic,
    validation_chunks,
)
from nnshapley.errors import EnumerationLimitError, ParameterError
from nnshapley.tknn import (
    NeighborCounts,
    TknnConfig,
    a2_term,
    clamp_counts,
    counts_full,
    counts_leave_one_out,
    tknn_semivalue_generic,
    tknn_shapley_all,
    tknn_shapley_from_counts,
    tknn_shapley_single,
    tknn_value_table,
)
from nnshapley.valuation import (
    banzhaf_weight,
    custom_weight,
    semivalue_oracle,
    shapley_oracle,
    shapley_weight,
    tknn_utility,
    utility,
)
from tests.conftest import make_instance, pick_tau

EUCLID = DistanceMetric.EUCLIDEAN
NEGCOS = DistanceMetric.NEGATIVE_COSINE


def naive_counts(ds, cfg, zval):
    """Independent counter: one distance call per point."""
    c_x = 1
    c_zplus = 0
    for i in range(ds.n):
        p = ds.point(i)
        if distance(cfg.metric, p.features, zval.features) <= cfg.tau:
            c_x += 1
            if p.label == zval.label:
                c_zplus += 1
    return NeighborCounts(ds.n, c_x, c_zplus)


def a2_direct(c, c_x):
    """Reference evaluation with exact integer binomials."""
    denom = math.comb(c + 1, c_x)
    total = 0.0
    for k in range(c + 1):
        total += (1.0 - math.comb(c - k, c_x) / denom) / (k + 1)
    return total - 1.0


class TestCounts:
    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        zval = LabeledPoint(np.zeros(2), 0)
        assert counts_full(ds, TknnConfig(1.0, EUCLID), zval).as_tuple() == (0, 1, 0)

    def test_single_matching_neighbor(self):
        ds = Dataset(np.array([[0.5, 0.0]]), np.array([1]), 2)
        zval = LabeledPoint(np.zeros(2), 1)
        assert counts_full(ds, TknnConfig(1.0, EUCLID), zval).as_tuple() == (1, 2, 1)

    def test_matches_naive_counter(self, rng):
        ds, zval = make_instance(rng, 100, num_classes=3)
        for metric in (EUCLID, NEGCOS):
            cfg = TknnConfig(pick_tau(rng, ds, zval, metric), metric)
            assert counts_full(ds, cfg, zval) == naive_counts(ds, cfg, zval)

    def test_leave_one_out_examples(self):
        assert counts_leave_one_out(
            NeighborCounts(1, 2, 1), in_threshold=True, label_match=True
        ).as_tuple() == (0, 1, 0)
        assert counts_leave_one_out(
            NeighborCounts(5, 3, 1), in_threshold=False, label_match=False
        ).as_tuple() == (4, 3, 1)

    def test_leave_one_out_matches_recount(self, rng):
        ds, zval = make_instance(rng, 40, num_classes=3)
        cfg = TknnConfig(pick_tau(rng, ds, zval, EUCLID), EUCLID)
        full = counts_full(ds, cfg, zval)
        for i in range(ds.n):
            p = ds.point(i)
            inside = distance(EUCLID, p.features, zval.features) <= cfg.tau
            loo = counts_leave_one_out(full, inside, p.label == zval.label)
            assert loo == counts_full(ds.without(i), cfg, zval)

    def test_inconsistent_decrement_raises(self):
        full = NeighborCounts(3, 1, 0)  # no neighbors: removing one is impossible
        with pytest.raises(ParameterError, match="leave-one-out"):
            counts_leave_one_out(full, in_threshold=True, label_match=False)

    def test_count_invariants_enforced(self):
        with pytest.raises(ParameterError):
            NeighborCounts(2, 4, 0)  # c_x > c + 1
        with pytest.raises(ParameterError):
            NeighborCounts(2, 2, 2)  # c_zplus > c_x - 1


class TestClosedForm:
    def test_out_of_threshold_is_exactly_zero(self):
        value = tknn_shapley_from_counts(NeighborCounts(5, 3, 1), True, False, 2)
        assert value == 0.0

    def test_lone_point_value(self):
        assert tknn_shapley_from_counts(NeighborCounts(0, 1, 0), True, True, 2) == 0.5

    def test_two_point_frozen_value(self):
        # Matches the N = 2 enumeration oracle instance: (1, 2, 1), mismatch.
        value = tknn_shapley_from_counts(NeighborCounts(1, 2, 1), False, True, 2)
        assert value == pytest.approx(-0.5, abs=1e-12)

    def test_matches_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(0, 11))
            c = int(rng.integers(2, 4))
            metric = EUCLID if rng.random() < 0.5 else NEGCOS
            ds, zval = make_instance(rng, n, num_classes=c)
            cfg = TknnConfig(pick_tau(rng, ds, zval, metric), metric)
            fast = tknn_shapley_single(ds, cfg, zval, c)
            if n == 0:
                assert fast.scores.shape == (0,)
                continue
            oracle = shapley_oracle(ds, tknn_utility(cfg.tau, c), zval, metric)
            assert np.max(np.abs(fast.scores - oracle.scores)) < 1e-9

    def test_sign_structure(self, rng):
        # In-threshold points: matching labels are worth > 0, mismatching < 0.
        for _ in range(20):
            ds, zval = make_instance(rng, int(rng.integers(2, 10)))
            cfg = TknnConfig(pick_tau(rng, ds, zval, EUCLID), EUCLID)
            scores = tknn_shapley_single(ds, cfg, zval, 2).scores
            from nnshapley.dataset import distances_to

            within = distances_to(EUCLID, ds.features, zval.features) <= cfg.tau
            match = ds.labels == zval.label
            assert np.all(scores[within & match] > 0)
            assert np.all(scores[within & ~match] < 0)
            assert np.all(scores[~within] == 0.0)

    def test_all_out_of_threshold_gives_zero_vector(self, rng):
        ds, _ = make_instance(rng, 8)
        far = Dataset(ds.features + 100.0, ds.labels, 2)
        dval = Dataset(np.zeros((3, 3)), np.zeros(3, dtype=int), 2)
        res = tknn_shapley_all(far, TknnConfig(1.0, EUCLID), dval, 2)
        assert np.array_equal(res.scores, np.zeros(8))

    def test_per_validation_point_efficiency(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 10))
            c = int(rng.integers(2, 4))
            ds, zval = make_instance(rng, n, num_classes=c)
            cfg = TknnConfig(pick_tau(rng, ds, zval, EUCLID), EUCLID)
            scores = tknn_shapley_single(ds, cfg, zval, c).scores
            v_full = utility(tknn_utility(cfg.tau, c), ds, zval, EUCLID)
            assert scores.sum() == pytest.approx(v_full - 1 / c, abs=1e-9)

    def test_validation_set_linearity(self, rng):
        ds, _ = make_instance(rng, 9)
        dval, _ = make_instance(rng, 4)
        cfg = TknnConfig(1.2, EUCLID)
        total = tknn_shapley_all(ds, cfg, dval, 2)
        summed = sum(tknn_shapley_single(ds, cfg, dval.point(i), 2).scores for i in range(dval.n))
        assert np.max(np.abs(total.scores - summed)) < 1e-12

    def test_thread_count_does_not_change_scores(self, monkeypatch):
        monkeypatch.setattr(dataset, "_SCORE_CHUNK_ELEMS", 2_000)
        ds = generate_gaussian_synthetic(400, 5, seed=3)
        dval = generate_gaussian_synthetic(80, 5, seed=4)
        assert len(validation_chunks(dval.n, ds.n)) >= 2
        cfg = TknnConfig(-0.2, NEGCOS)
        one = tknn_shapley_all(ds, cfg, dval, 2, threads=1).scores
        two = tknn_shapley_all(ds, cfg, dval, 2, threads=2).scores
        assert np.array_equal(one, two)


class TestA2:
    @pytest.mark.parametrize("c,c_x", [(1, 2), (5, 2), (10, 4), (100, 7), (1000, 3), (10000, 50)])
    def test_recurrence_matches_direct_sum(self, c, c_x):
        assert a2_term(c, c_x) == pytest.approx(a2_direct(c, c_x), rel=1e-10)

    def test_degenerate_arguments(self):
        with pytest.raises(ParameterError):
            a2_term(3, 0)
        with pytest.raises(ParameterError):
            a2_term(3, 5)

    def test_elementwise_over_arrays(self):
        c = np.array([1, 5, 10, 100, 1000, 10000])
        c_x = np.array([2, 2, 4, 7, 3, 50])
        values = a2_term(c, c_x)
        assert values.shape == c.shape
        for i in range(c.size):
            assert values[i] == a2_term(int(c[i]), int(c_x[i]))

    @pytest.mark.parametrize("bad", [(3, 0), (3, 5), (-1, 1)])
    def test_one_bad_element_raises(self, bad):
        c = np.array([4, 4, bad[0], 4])
        c_x = np.array([1, 5, bad[1], 3])
        with pytest.raises(ParameterError):
            a2_term(c, c_x)

    def test_harmonic_identity_exact(self):
        # A2(c, c_x) = H_{c_x} - 1, from sum_{j=1}^{n} C(n-j, m)/j = C(n, m)(H_n - H_m).
        for c in range(30):
            for c_x in range(1, c + 2):
                denom = math.comb(c + 1, c_x)
                exact = sum(
                    (1 - Fraction(math.comb(c - k, c_x), denom)) / (k + 1) for k in range(c + 1)
                ) - 1
                harmonic = sum(Fraction(1, j) for j in range(1, c_x + 1))
                assert exact == harmonic - 1
                assert a2_term(c, c_x) == pytest.approx(float(exact), rel=1e-14, abs=1e-15)

    def test_all_neighbors_case(self):
        # c_x = c + 1 zeroes every binomial ratio: A2 = H(c + 1) - 1.
        c = 20
        harmonic = sum(1.0 / j for j in range(1, c + 2))
        assert a2_term(c, c + 1) == pytest.approx(harmonic - 1.0, rel=1e-12)


def old_clamp(c, c_x, c_zplus):
    """The scalar clamp the value table replaced, transcribed literally."""
    ci = max(int(c), 0)
    cxi = min(max(int(c_x), 1), ci + 1)
    czi = min(max(int(c_zplus), 0), cxi - 1)
    return ci, cxi, czi


def old_table_entry(triple, nb, m, num_classes):
    """Leave-one-out decrement, re-clamp and closed form, as scalar code."""
    c, c_x, c_zplus = old_clamp(triple[0] - 1, triple[1] - nb, triple[2] - (nb if m else 0))
    a2 = float(digamma(c_x + 1.0)) + np.euler_gamma - 1.0
    mv = 1.0 if m else 0.0
    base = (mv - 1.0 / num_classes) / c_x
    if c_x < 2:
        return base
    return base + (mv / c_x - c_zplus / (c_x * (c_x - 1.0))) * a2


class TestValueTable:
    @staticmethod
    def noisy_triples():
        return np.array(
            [
                (c, c_x, c_z)
                for c in range(-2, 13)
                for c_x in range(-2, c + 4)
                for c_z in range(-2, c_x + 3)
            ],
            dtype=np.float64,
        )

    def test_clamp_matches_scalar_clamp(self):
        noisy = self.noisy_triples()
        clamped = np.stack(clamp_counts(*noisy.T), axis=1)
        for row, out in zip(noisy, clamped):
            assert tuple(int(v) for v in out) == old_clamp(*row)

    @pytest.mark.parametrize("num_classes", [2, 3, 7])
    def test_bitwise_equal_to_scalar_chain(self, num_classes):
        # Exhaustive over small noisy triples, clamped as a privatized triple
        # is, then every flag pair through the vectorized table.
        triples = np.stack(clamp_counts(*self.noisy_triples().T), axis=1)
        with np.errstate(all="raise"):
            table = tknn_value_table(*triples.T, num_classes)
        assert table.shape == (triples.shape[0], 2, 2)
        for row, triple in enumerate(triples.astype(int).tolist()):
            for nb, m in np.ndindex(2, 2):
                expected = old_table_entry(triple, nb, m, num_classes)
                assert table[row, nb, m].tobytes() == np.float64(expected).tobytes()

    def test_from_counts_is_a_table_entry(self):
        for c, c_x, c_z in [(0, 1, 0), (1, 2, 1), (5, 3, 1), (12, 13, 4)]:
            for match in (False, True):
                m = int(match)
                entry = tknn_value_table(c + 1, c_x + 1, c_z + m, 2)[1, m]
                value = tknn_shapley_from_counts(NeighborCounts(c, c_x, c_z), match, True, 2)
                assert value == entry == old_table_entry((c + 1, c_x + 1, c_z + m), 1, m, 2)


class TestGenericSemivalue:
    def test_shapley_weight_matches_closed_form(self, rng):
        for n in (1, 5, 20, 50):
            ds, zval = make_instance(rng, n)
            cfg = TknnConfig(pick_tau(rng, ds, zval, EUCLID), EUCLID)
            generic = tknn_semivalue_generic(ds, cfg, shapley_weight(), zval, 2)
            closed = tknn_shapley_single(ds, cfg, zval, 2)
            scale = max(1.0, float(np.max(np.abs(closed.scores))))
            assert np.max(np.abs(generic.scores - closed.scores)) / scale < 1e-6

    def test_banzhaf_matches_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            ds, zval = make_instance(rng, n)
            cfg = TknnConfig(pick_tau(rng, ds, zval, EUCLID), EUCLID)
            generic = tknn_semivalue_generic(ds, cfg, banzhaf_weight(), zval, 2)
            oracle = semivalue_oracle(ds, tknn_utility(cfg.tau, 2), banzhaf_weight(), zval, EUCLID)
            assert np.max(np.abs(generic.scores - oracle.scores)) < 1e-9

    def test_out_of_threshold_zero_for_any_weight(self, rng):
        ds, _ = make_instance(rng, 6)
        far = Dataset(ds.features + 50.0, ds.labels, 2)
        zval = LabeledPoint(np.zeros(3), 0)
        cfg = TknnConfig(1.0, EUCLID)
        for weight in (shapley_weight(), banzhaf_weight()):
            res = tknn_semivalue_generic(far, cfg, weight, zval, 2)
            assert np.array_equal(res.scores, np.zeros(6))

    def test_size_guard(self, rng):
        ds, zval = make_instance(rng, 12)
        with pytest.raises(EnumerationLimitError):
            tknn_semivalue_generic(ds, TknnConfig(1.0, EUCLID), shapley_weight(), zval, 2, max_n=10)

    def test_unnormalized_weight_rejected(self, rng):
        ds, zval = make_instance(rng, 4)
        bad = custom_weight(lambda k, n: 0.3)
        with pytest.raises(ParameterError):
            tknn_semivalue_generic(ds, TknnConfig(1.0, EUCLID), bad, zval, 2)


class TestConfig:
    def test_tau_range_for_cosine(self):
        with pytest.raises(ParameterError):
            TknnConfig(-1.5, NEGCOS)
        TknnConfig(-0.5, NEGCOS)
        TknnConfig(99.0, EUCLID)  # unrestricted for euclidean
