import numpy as np
import pytest

from nnshapley import dataset, knn, tknn
from nnshapley.dataset import Dataset, DistanceMetric, flip_labels, generate_gaussian_synthetic
from nnshapley.dp import DpParams, dp_knn_shapley_all, dp_tknn_shapley_all
from nnshapley.errors import ParameterError
from nnshapley.evaluation import (
    METHODS,
    MethodConfig,
    auroc,
    bench_runtime,
    compute_values,
    run_detection,
    tknn_consistency_check,
)
from nnshapley.knn import KnnConfig, knn_shapley_all
from nnshapley.tknn import TknnConfig, tknn_shapley_all


class TestAuroc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        assert auroc(scores, [0, 1]) == 1.0

    def test_all_equal_is_exactly_half(self):
        scores = np.zeros(10)
        assert auroc(scores, [0, 3, 7]) == 0.5

    def test_negated_ranking_example(self):
        # Scores (3, 1, 2) with the low-value point corrupted: ranking by
        # ascending value puts it first, so negated scores give AUROC 1.
        scores = np.array([3.0, 1.0, 2.0])
        assert auroc(-scores, [1]) == 1.0

    def test_complement_identity_without_ties(self, rng):
        for _ in range(50):
            scores = rng.permutation(30).astype(float)
            positives = rng.choice(30, size=8, replace=False)
            assert auroc(scores, positives) + auroc(-scores, positives) == pytest.approx(1.0)

    def test_invariance_under_monotone_transform(self, rng):
        scores = rng.standard_normal(40)
        positives = rng.choice(40, size=10, replace=False)
        base = auroc(scores, positives)
        assert auroc(np.exp(scores), positives) == pytest.approx(base)
        assert auroc(3.0 * scores + 7.0, positives) == pytest.approx(base)

    def test_empty_class_rejected(self):
        with pytest.raises(ParameterError):
            auroc(np.array([1.0, 2.0]), [])
        with pytest.raises(ParameterError):
            auroc(np.array([1.0, 2.0]), [0, 1])


NEGCOS = DistanceMetric.NEGATIVE_COSINE
_DP = DpParams(delta=1e-4, sigma=0.3, q=0.5, seed=4)
_DP_FULL_RATE = DpParams(delta=1e-4, sigma=0.3, q=1.0, seed=4)

# Registry case -> (config, the same run as a direct driver call).
REGISTRY_CASES = {
    "tknn": (
        MethodConfig("tknn", tau=-0.4),
        lambda t, v: tknn_shapley_all(t, TknnConfig(-0.4), v),
    ),
    "knn": (
        MethodConfig("knn", k=3),
        lambda t, v: knn_shapley_all(t, KnnConfig(3, NEGCOS, "refined"), v),
    ),
    "knn-old": (
        MethodConfig("knn-old", k=3),
        lambda t, v: knn_shapley_all(t, KnnConfig(3, NEGCOS, "old"), v),
    ),
    "dp-tknn": (
        MethodConfig("dp-tknn", tau=-0.4, dp=_DP),
        lambda t, v: dp_tknn_shapley_all(t, TknnConfig(-0.4), v, _DP)[0],
    ),
    "dp-knn": (
        MethodConfig("dp-knn", k=3, dp=_DP_FULL_RATE),
        lambda t, v: dp_knn_shapley_all(t, KnnConfig(3, NEGCOS, "old"), v, _DP_FULL_RATE),
    ),
    "dp-knn-subsampled": (
        MethodConfig("dp-knn", k=3, dp=_DP),
        lambda t, v: dp_knn_shapley_all(t, KnnConfig(3, NEGCOS, "old"), v, _DP),
    ),
}


class TestMethodConfig:
    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            MethodConfig(name="mystery")

    def test_dp_methods_require_params(self):
        # The noise of a private release is checked where the method runs.
        train = generate_gaussian_synthetic(10, 2, seed=1)
        dval = generate_gaussian_synthetic(3, 2, seed=2)
        for name in ("dp-tknn", "dp-knn"):
            with pytest.raises(ParameterError, match="requires DP parameters"):
                compute_values(train, dval, MethodConfig(name=name))

    @pytest.mark.parametrize("name", ["tknn", "knn", "knn-old"])
    def test_non_private_methods_reject_dp_params(self, name):
        # A dp on a plain method would be dropped: the caller would get an
        # unnoised release while asking for a private one.
        train = generate_gaussian_synthetic(30, 3, seed=1)
        dval = generate_gaussian_synthetic(4, 3, seed=2)
        method = MethodConfig(name, dp=DpParams(1e-4, 5.0, 0.5, seed=3))
        with pytest.raises(ParameterError, match="takes no DP parameters"):
            compute_values(train, dval, method)
        with pytest.raises(ParameterError, match="takes no DP parameters"):
            run_detection(*flip_labels(train, 0.2, seed=4), method, dval)

    @pytest.mark.parametrize("name", list(REGISTRY_CASES))
    def test_dispatch_matches_direct_calls(self, name):
        train = generate_gaussian_synthetic(60, 4, seed=1)
        dval = generate_gaussian_synthetic(10, 4, seed=2)
        method, direct = REGISTRY_CASES[name]
        res = compute_values(train, dval, method)
        assert res.method == direct(train, dval).method
        assert np.array_equal(res.scores, direct(train, dval).scores)

    @pytest.mark.parametrize("name", list(REGISTRY_CASES))
    def test_empty_validation_set_rejected(self, name):
        train = generate_gaussian_synthetic(20, 3, seed=1)
        empty = generate_gaussian_synthetic(4, 3, seed=2).subset([])
        method, _ = REGISTRY_CASES[name]
        with pytest.raises(ParameterError, match="validation set"):
            compute_values(train, empty, method)

    @pytest.mark.parametrize("name", list(REGISTRY_CASES))
    def test_validation_set_of_another_class_count_rejected_before_distances(
        self, name, monkeypatch
    ):
        # The utilities score an empty neighbourhood 1/C with the training
        # set's C, so a validation set declaring another C is malformed input.
        def no_distances(*args, **kwargs):
            raise AssertionError("distances computed")

        for module in (dataset, knn, tknn):
            monkeypatch.setattr(module, "distance_matrix", no_distances)
        monkeypatch.setattr(dataset, "training_norms", no_distances)
        train = generate_gaussian_synthetic(20, 3, seed=1)
        dval = generate_gaussian_synthetic(4, 3, seed=2)
        method, direct = REGISTRY_CASES[name]
        with pytest.raises(AssertionError, match="distances computed"):
            compute_values(train, dval, method)  # the patches are live
        dval = Dataset(dval.features, dval.labels, 5)
        for run in (lambda: compute_values(train, dval, method), lambda: direct(train, dval)):
            with pytest.raises(ParameterError, match="declares 5 classes, training set 2"):
                run()

    def test_registry_covers_every_case(self):
        assert {method.name for method, _ in REGISTRY_CASES.values()} == set(METHODS)

    @pytest.mark.parametrize("flags", [{"k": 0}, {"tau": 7.0}])
    @pytest.mark.parametrize("name", ["tknn", "knn", "knn-old"])
    def test_hyperparameters_validated_for_every_method(self, name, flags):
        with pytest.raises(ParameterError):
            MethodConfig(name, **flags)


class TestDetection:
    def test_flip_detection_end_to_end(self):
        train = generate_gaussian_synthetic(400, 6, seed=3)
        dval = generate_gaussian_synthetic(60, 6, seed=4)
        corrupted, record = flip_labels(train, 0.1, seed=5)
        report = run_detection(corrupted, record, MethodConfig("tknn", tau=-0.5), dval, seed=5)
        assert 0.0 <= report.auroc <= 1.0
        assert report.auroc > 0.6  # flipped labels are clearly down-ranked
        assert report.corruption == "label-flip"
        assert report.wall_time > 0.0

    def test_detection_deterministic(self):
        train = generate_gaussian_synthetic(200, 4, seed=6)
        dval = generate_gaussian_synthetic(30, 4, seed=7)
        corrupted, record = flip_labels(train, 0.2, seed=8)
        method = MethodConfig("dp-tknn", tau=-0.5, dp=DpParams(delta=1e-4, sigma=1.0, q=0.5, seed=9))
        a = run_detection(corrupted, record, method, dval, seed=9)
        b = run_detection(corrupted, record, method, dval, seed=9)
        assert a.auroc == b.auroc

    def test_report_json_shape(self):
        train = generate_gaussian_synthetic(100, 3, seed=1)
        dval = generate_gaussian_synthetic(20, 3, seed=2)
        corrupted, record = flip_labels(train, 0.1, seed=3)
        report = run_detection(corrupted, record, MethodConfig("knn", k=5), dval, seed=3)
        # Wall time stays an attribute; no seed reproduces it, so the dict leaves it out.
        assert set(report.to_json_dict()) == {"auroc", "method", "corruption", "seed"}
        assert report.wall_time >= 0.0


class TestBench:
    def test_rows_and_schema(self):
        rows = bench_runtime([100, 200], d=4, n_val=10, methods=("tknn", "knn"), repeats=3)
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"n", "method", "median_seconds", "repeats"}
            assert row["median_seconds"] > 0.0

    def test_requires_ascending_sizes(self):
        with pytest.raises(ParameterError):
            bench_runtime([200, 100], repeats=3)

    def test_requires_three_repeats(self):
        with pytest.raises(ParameterError):
            bench_runtime([100], repeats=1)


class TestScaling:
    @pytest.mark.slow
    def test_doubling_factors_in_linear_regime(self):
        # Doubling N at fixed N_val multiplies wall time by at most 2.6 for
        # the sorting-based method and 2.2 for the threshold method.
        rows = bench_runtime(
            [100_000, 200_000], d=10, n_val=50, methods=("tknn", "knn"), repeats=3, seed=1
        )
        t = {(r["n"], r["method"]): r["median_seconds"] for r in rows}
        knn, tknn = (t[(200_000, m)] / t[(100_000, m)] for m in ("knn", "tknn"))
        times = f"median seconds {t}; 2e5/1e5 ratios knn {knn:.2f}, tknn {tknn:.2f}"
        assert knn <= 2.6, times
        assert tknn <= 2.2, times

    @pytest.mark.slow
    def test_repeat_stability(self):
        # Repeat-to-repeat variation stays within 20% of the median.
        import time as _time

        from nnshapley.evaluation import compute_values

        train = generate_gaussian_synthetic(100_000, 10, seed=2)
        dval = generate_gaussian_synthetic(50, 10, seed=3)
        compute_values(train, dval, MethodConfig("tknn", tau=-0.5))  # warmup
        times = []
        for _ in range(5):
            start = _time.perf_counter()
            compute_values(train, dval, MethodConfig("tknn", tau=-0.5))
            times.append(_time.perf_counter() - start)
        med = float(np.median(times))
        assert float(np.std(times)) < 0.2 * med


class TestConsistency:
    def test_wide_threshold_predicts_global_mean(self):
        # tau covering [0, 1] entirely makes every prediction the sample mean,
        # so the MSE approaches Var(x) = 1/12.
        rows = tknn_consistency_check([4000], tau_rule=lambda n: 2.0, seed=1)
        assert rows[0][1] == pytest.approx(1 / 12, abs=0.01)

    def test_empty_neighborhood_predicts_zero(self):
        from nnshapley.evaluation import _tknn_regression_mse

        xs = np.array([0.5])
        tests = np.array([0.9])
        # no training point within 0.1 of 0.9: prediction 0, error 0.81
        assert _tknn_regression_mse(xs, tests, 0.1) == pytest.approx(0.81)

    def test_mse_decreases_with_n(self):
        rows = tknn_consistency_check([100, 10_000], seed=2)
        assert rows[1][1] < rows[0][1]

    def test_ascending_grid_required(self):
        with pytest.raises(ParameterError):
            tknn_consistency_check([100, 50])
