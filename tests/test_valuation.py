import json
import math

import numpy as np
import pytest

from nnshapley.dataset import Dataset, DistanceMetric, LabeledPoint
from nnshapley.dp import DpParams
from nnshapley.errors import EnumerationLimitError, ParameterError
from nnshapley.mia import MiaConfig
from nnshapley.valuation import (
    KnnConfig,
    TknnConfig,
    ValuationResult,
    aggregate_over_validation,
    banzhaf_weight,
    custom_weight,
    enumerate_semivalue,
    semivalue_oracle,
    shapley_oracle,
    shapley_weight,
    subset_utilities,
    describe,
    utility,
)
from tests.conftest import make_instance, pick_tau

EUCLID = DistanceMetric.EUCLIDEAN


def two_point_instance():
    """Both points within tau = 1 of the validation point; labels (match, mismatch)."""
    ds = Dataset(np.array([[0.1], [0.2]]), np.array([0, 1]), 2)
    zval = LabeledPoint(np.array([0.0]), 0)
    return ds, zval


class TestUtility:
    def test_tknn_no_neighbors_random_guess(self):
        ds = Dataset(np.array([[5.0]]), np.array([0]), 2)
        zval = LabeledPoint(np.array([0.0]), 0)
        assert utility(TknnConfig(1.0, EUCLID), ds, zval) == 0.5

    def test_knn_soft_singleton(self):
        ds = Dataset(np.array([[1.0]]), np.array([0]), 2)
        zval = LabeledPoint(np.array([0.0]), 0)
        assert utility(KnnConfig(3, EUCLID), ds, zval) == 1.0

    def test_knn_old_singleton(self):
        ds = Dataset(np.array([[1.0]]), np.array([0]), 2)
        zval = LabeledPoint(np.array([0.0]), 0)
        assert utility(KnnConfig(3, EUCLID, "old"), ds, zval) == pytest.approx(1 / 3)

    def test_empty_set_conventions(self):
        ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
        zval = LabeledPoint(np.array([0.0]), 0)
        assert utility(KnnConfig(3, EUCLID), ds, zval) == 0.5
        assert utility(KnnConfig(3, EUCLID, "old"), ds, zval) == 0.0
        assert utility(TknnConfig(1.0, EUCLID), ds, zval) == 0.5


class TestShapleyOracle:
    def test_single_point_tknn(self):
        ds = Dataset(np.array([[0.1]]), np.array([0]), 2)
        zval = LabeledPoint(np.array([0.0]), 0)
        res = shapley_oracle(ds, TknnConfig(1.0, EUCLID), zval)
        assert res.scores[0] == pytest.approx(0.5)  # v({z}) - v(empty) = 1 - 1/2

    def test_two_point_tknn_frozen(self):
        # Enumerating the 4 subsets by hand gives (1/2, -1/2).
        ds, zval = two_point_instance()
        res = shapley_oracle(ds, TknnConfig(1.0, EUCLID), zval)
        assert res.scores == pytest.approx([0.5, -0.5], abs=1e-12)

    @pytest.mark.parametrize("kind_name", ["knn-soft", "knn-old", "tknn"])
    def test_efficiency(self, rng, kind_name):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            ds, zval = make_instance(rng, n, num_classes=int(rng.integers(2, 4)))
            if kind_name == "tknn":
                cfg = TknnConfig(pick_tau(rng, ds, zval, EUCLID), EUCLID)
            elif kind_name == "knn-soft":
                cfg = KnnConfig(int(rng.integers(1, 6)), EUCLID)
            else:
                cfg = KnnConfig(int(rng.integers(1, 6)), EUCLID, "old")
            res = shapley_oracle(ds, cfg, zval)
            expected = utility(cfg, ds, zval) - utility(cfg, ds.subset([]), zval)
            assert res.scores.sum() == pytest.approx(expected, abs=1e-9)

    def test_symmetry_between_duplicates(self, rng):
        feats = rng.standard_normal((6, 2))
        feats[4] = feats[1]
        labels = np.array([0, 1, 0, 1, 1, 0])
        ds = Dataset(feats, labels, 2)
        zval = LabeledPoint(rng.standard_normal(2), 1)
        for cfg in (KnnConfig(2, EUCLID), TknnConfig(1.5, EUCLID)):
            res = shapley_oracle(ds, cfg, zval)
            assert abs(res.scores[1] - res.scores[4]) < 1e-12

    def test_dummy_point_is_exactly_zero(self, rng):
        feats = np.vstack([rng.standard_normal((5, 2)), [[50.0, 50.0]]])
        ds = Dataset(feats, rng.integers(0, 2, 6), 2)
        zval = LabeledPoint(np.zeros(2), 0)
        res = shapley_oracle(ds, TknnConfig(5.0, EUCLID), zval)
        assert res.scores[5] == 0.0

    def test_enumeration_guard(self, rng):
        ds, zval = make_instance(rng, 6)
        with pytest.raises(EnumerationLimitError):
            shapley_oracle(ds, TknnConfig(1.0, EUCLID), zval, max_n=5)

    def test_linearity_in_utilities(self, rng):
        # oracle(a v1 + b v2) = a oracle(v1) + b oracle(v2), via mask utilities.
        ds, zval = make_instance(rng, 6)
        _, zval2 = make_instance(rng, 1)
        cfg = TknnConfig(1.2, EUCLID)
        v1 = subset_utilities(ds, cfg, zval)
        v2 = subset_utilities(ds, cfg, zval2)
        w = shapley_weight().values(ds.n)
        a, b = 0.7, -1.3
        combined = enumerate_semivalue(ds.n, a * v1 + b * v2, w)
        parts = a * enumerate_semivalue(ds.n, v1, w) + b * enumerate_semivalue(ds.n, v2, w)
        assert combined == pytest.approx(parts, abs=1e-9)


class TestSemivalueOracle:
    def test_shapley_weight_matches_shapley_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            ds, zval = make_instance(rng, n)
            cfg = KnnConfig(2, EUCLID)
            a = shapley_oracle(ds, cfg, zval)
            b = semivalue_oracle(ds, cfg, shapley_weight(), zval)
            assert np.max(np.abs(a.scores - b.scores)) < 1e-12

    def test_banzhaf_two_points(self):
        # phi_1 = 1/2 [(v({1}) - v(0)) + (v({1,2}) - v({2}))]
        ds, zval = two_point_instance()
        cfg = TknnConfig(1.0, EUCLID)
        res = semivalue_oracle(ds, cfg, banzhaf_weight(), zval)
        v = subset_utilities(ds, cfg, zval)
        expected_1 = 0.5 * ((v[0b01] - v[0]) + (v[0b11] - v[0b10]))
        expected_2 = 0.5 * ((v[0b10] - v[0]) + (v[0b11] - v[0b01]))
        assert res.scores == pytest.approx([expected_1, expected_2], abs=1e-12)

    def test_dummy_point_zero_for_any_weight(self, rng):
        feats = np.vstack([rng.standard_normal((4, 2)), [[40.0, 40.0]]])
        ds = Dataset(feats, rng.integers(0, 2, 5), 2)
        zval = LabeledPoint(np.zeros(2), 0)
        cfg = TknnConfig(3.0, EUCLID)
        for weight in (shapley_weight(), banzhaf_weight()):
            res = semivalue_oracle(ds, cfg, weight, zval)
            assert res.scores[4] == 0.0

    def test_weight_normalization_enforced(self):
        bad = custom_weight(lambda k, n: 1.0)  # sums to 2^{N-1}, not N
        with pytest.raises(ParameterError, match="normalization"):
            bad.values(4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_fail_normalization(self, bad, rng):
        weight = custom_weight(lambda k, n: bad)
        with pytest.raises(ParameterError, match="normalization"):
            weight.values(4)
        ds, zval = make_instance(rng, 4)
        with pytest.raises(ParameterError, match="normalization"):
            semivalue_oracle(ds, TknnConfig(1.0, EUCLID), weight, zval)

    def test_custom_weight_matching_shapley(self, rng):
        w = custom_weight(lambda k, n: 1.0 / math.comb(n - 1, k - 1))
        ds, zval = make_instance(rng, 5)
        cfg = KnnConfig(3, EUCLID)
        a = semivalue_oracle(ds, cfg, w, zval)
        b = shapley_oracle(ds, cfg, zval)
        assert np.max(np.abs(a.scores - b.scores)) < 1e-12


class TestAggregate:
    def _result(self, scores):
        from nnshapley.valuation import MethodDescriptor

        return ValuationResult(
            np.asarray(scores, dtype=float),
            MethodDescriptor(name="test", num_classes=2),
            validation_size=1,
        )

    def test_single_identity(self):
        res = self._result([1.0, -2.0])
        agg = aggregate_over_validation([res])
        assert np.array_equal(agg.scores, res.scores)
        assert agg.validation_size == 1

    def test_cancellation(self):
        s = np.array([0.3, -1.2, 4.0])
        agg = aggregate_over_validation([self._result(s), self._result(-s)])
        assert np.array_equal(agg.scores, np.zeros(3))
        assert agg.validation_size == 2

    def test_heterogeneous_inputs_rejected(self):
        a = self._result([1.0, 2.0])
        b = self._result([1.0])
        with pytest.raises(ParameterError):
            aggregate_over_validation([a, b])

    def test_matches_oracle_on_summed_utility(self, rng):
        # Sum over a 3-point validation set equals the oracle on the summed
        # utility (linearity); checked against a custom mask-utility oracle.
        ds, _ = make_instance(rng, 6)
        zvals = [make_instance(rng, 1)[1] for _ in range(3)]
        cfg = TknnConfig(1.4, EUCLID)
        per_point = [shapley_oracle(ds, cfg, z) for z in zvals]
        agg = aggregate_over_validation(per_point)
        summed = sum(subset_utilities(ds, cfg, z) for z in zvals)
        direct = enumerate_semivalue(ds.n, summed, shapley_weight().values(ds.n))
        assert agg.scores == pytest.approx(direct, abs=1e-9)
        assert agg.validation_size == 3


class TestOracleDescriptor:
    CFGS = (KnnConfig(2, EUCLID), KnnConfig(2, EUCLID, "old"), TknnConfig(1.0, EUCLID))

    def test_each_utility_has_its_own_descriptor(self, rng):
        ds, zval = make_instance(rng, 5, num_classes=3)
        results = [shapley_oracle(ds, cfg, zval) for cfg in self.CFGS]
        methods = [res.method for res in results]
        assert [m.name for m in methods] == ["oracle-knn", "oracle-knn-old", "oracle-tknn"]
        assert len(set(methods)) == 3
        assert [m.num_classes for m in methods] == [ds.num_classes] * 3
        with pytest.raises(ParameterError, match="different methods"):
            aggregate_over_validation(results[:2])

    def test_empty_set_value_takes_the_dataset_class_count(self):
        # One matching point within tau: worth v({z}) - v(empty) = 1 - 1/3 on a
        # 3-class dataset, except under the older KNN utility (1/K - 0).
        ds = Dataset(np.array([[0.1]]), np.array([0]), 3)
        zval = LabeledPoint(np.array([0.0]), 0)
        scores = [shapley_oracle(ds, cfg, zval).scores[0] for cfg in self.CFGS]
        assert scores == pytest.approx([2 / 3, 1 / 2, 2 / 3], abs=1e-12)


class TestResultJson:
    def test_round_trip_fields(self):
        from nnshapley.valuation import MethodDescriptor

        res = ValuationResult(
            np.array([0.25, -0.5]),
            MethodDescriptor(name="tknn-shapley", num_classes=2, tau=-0.5, metric="negative-cosine"),
            validation_size=4,
        )
        payload = res.to_json_dict()
        assert payload["scores"] == [0.25, -0.5]
        assert payload["method"]["name"] == "tknn-shapley"
        assert payload["validation_size"] == 4


# Each integer field of a configuration, as (constructor of a value, field name).
INTEGER_FIELDS = [
    (lambda v: KnnConfig(v), "k"),
    (lambda v: DpParams(delta=1e-4, sigma=1.0, seed=v), "seed"),
    (lambda v: MiaConfig(shadow_count=v), "shadow_count"),
    (lambda v: MiaConfig(shadow_size=v), "shadow_size"),
    (lambda v: MiaConfig(seed=v), "seed"),
]


@pytest.mark.parametrize("make,field", INTEGER_FIELDS, ids=[
    "KnnConfig.k", "DpParams.seed", "MiaConfig.shadow_count", "MiaConfig.shadow_size",
    "MiaConfig.seed",
])
class TestIntegerFields:
    @pytest.mark.parametrize("bad", [2.5, 3.5, math.nan, math.inf, "3"])
    def test_non_integers_are_rejected(self, make, field, bad):
        with pytest.raises(ParameterError):
            make(bad)

    @pytest.mark.parametrize("good", [3, np.int64(3), np.uint8(3), 3.0])
    def test_integers_are_stored_as_python_ints(self, make, field, good):
        value = getattr(make(good), field)
        assert type(value) is int and value == 3


def test_integer_k_descriptors_are_plain_json():
    ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), 2)
    assert json.loads(json.dumps(describe("knn", ds, KnnConfig(np.int64(3))).to_dict()))["k"] == 3
    assert json.loads(json.dumps(describe("knn", ds, KnnConfig(True)).to_dict()))["k"] == 1
