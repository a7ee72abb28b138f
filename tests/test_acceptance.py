"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the suite exercises public APIs only.
"""

import math
import time

import numpy as np
import pytest

from nnshapley.accountant import (
    AccountantQuery,
    analytic_gaussian_epsilon,
    calibrate_sigma_for_budget,
    compose,
    epsilon_at_delta,
    gaussian_pld,
    subsampled_gaussian_pld,
)
from nnshapley.dataset import (
    Dataset,
    DistanceMetric,
    LabeledPoint,
    flip_labels,
    generate_gaussian_synthetic,
)
from nnshapley.dp import (
    COUNTS_SENSITIVITY,
    DpParams,
    dp_tknn_shapley_all,
    knn_old_sensitivity,
)
from nnshapley.evaluation import MethodConfig, bench_runtime, run_detection, tknn_consistency_check
from nnshapley.knn import KnnConfig, knn_shapley_single
from nnshapley.mia import MiaConfig, mia_auroc, value_scorer
from nnshapley.tknn import TknnConfig, counts_full
from nnshapley.valuation import (
    aggregate_over_validation,
    enumerate_semivalue,
    knn_old_utility,
    knn_soft_utility,
    shapley_oracle,
    shapley_weight,
    subset_utilities,
    tknn_utility,
    utility,
)
from tests.conftest import make_instance, pick_tau

EUCLID = DistanceMetric.EUCLIDEAN
NEGCOS = DistanceMetric.NEGATIVE_COSINE
S3 = math.sqrt(3.0)


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {message}")


def test_criterion_1_oracle_equivalence():
    """200 random instances: all three closed forms match enumeration."""
    from nnshapley.knn import knn_shapley_all
    from nnshapley.tknn import tknn_shapley_all

    start = time.monotonic()
    rng = np.random.default_rng(11001)
    worst = 0.0
    for trial in range(200):
        metric = EUCLID if trial % 2 == 0 else NEGCOS
        n = int(rng.integers(1, 11))
        c = int(rng.integers(2, 4))
        k = int(rng.integers(1, 6))
        n_val = 2 if trial % 10 == 0 else 1
        ds, zval = make_instance(rng, n, num_classes=c, metric=metric)
        dval, _ = make_instance(rng, n_val, num_classes=c, metric=metric)
        tau = pick_tau(rng, ds, zval, metric)
        zvals = [dval.point(i) for i in range(n_val)]

        fast = tknn_shapley_all(ds, TknnConfig(tau, metric), dval, c)
        oracle = sum(shapley_oracle(ds, tknn_utility(tau, c), z, metric).scores for z in zvals)
        worst = max(worst, float(np.max(np.abs(fast.scores - oracle), initial=0.0)))

        refined = knn_shapley_all(ds, KnnConfig(k, metric, "refined"), dval, c)
        oracle = sum(shapley_oracle(ds, knn_soft_utility(k, c), z, metric).scores for z in zvals)
        worst = max(worst, float(np.max(np.abs(refined.scores - oracle))))

        old = knn_shapley_all(ds, KnnConfig(k, metric, "old"), dval, c)
        oracle = sum(shapley_oracle(ds, knn_old_utility(k, c), z, metric).scores for z in zvals)
        worst = max(worst, float(np.max(np.abs(old.scores - oracle))))
        assert worst < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, f"200 instances, worst |closed form - oracle| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_axiom_suite():
    """Efficiency, symmetry, dummy, and linearity on the oracle corpus."""
    rng = np.random.default_rng(11002)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        c = int(rng.integers(2, 4))
        ds, zval = make_instance(rng, n, num_classes=c)
        tau = pick_tau(rng, ds, zval, EUCLID)
        k = int(rng.integers(1, 6))
        for kind in (tknn_utility(tau, c), knn_soft_utility(k, c), knn_old_utility(k, c)):
            scores = shapley_oracle(ds, kind, zval, EUCLID).scores
            gain = utility(kind, ds, zval, EUCLID) - kind.empty_set_value
            assert abs(scores.sum() - gain) < 1e-9  # efficiency

    # symmetry: exact duplicates receive equal values
    feats = rng.standard_normal((7, 3))
    feats[5] = feats[2]
    ds = Dataset(feats, np.array([0, 1, 1, 0, 1, 1, 0]), 2)
    zval = LabeledPoint(rng.standard_normal(3), 1)
    for kind in (tknn_utility(1.5, 2), knn_soft_utility(3, 2), knn_old_utility(3, 2)):
        scores = shapley_oracle(ds, kind, zval, EUCLID).scores
        assert abs(scores[2] - scores[5]) < 1e-12

    # dummy: an out-of-threshold point is worth exactly zero
    feats = np.vstack([rng.standard_normal((6, 3)), [[80.0, 80.0, 80.0]]])
    ds = Dataset(feats, rng.integers(0, 2, 7), 2)
    zval = LabeledPoint(np.zeros(3), 0)
    assert shapley_oracle(ds, tknn_utility(4.0, 2), zval, EUCLID).scores[6] == 0.0

    # linearity: aggregation over validation points equals the oracle of the
    # summed utility
    ds, _ = make_instance(rng, 6)
    zvals = [make_instance(rng, 1)[1] for _ in range(3)]
    kind = tknn_utility(1.3, 2)
    agg = aggregate_over_validation([shapley_oracle(ds, kind, z, EUCLID) for z in zvals])
    summed = sum(subset_utilities(ds, kind, z, EUCLID) for z in zvals)
    direct = enumerate_semivalue(ds.n, summed, shapley_weight().values(ds.n))
    assert np.max(np.abs(agg.scores - direct)) < 1e-9
    report(2, "efficiency, symmetry, dummy, linearity hold at 1e-9 on the oracle corpus")


def test_criterion_3_sensitivity_bounds():
    """Empirical and constructed sensitivity bounds for the DP mechanisms."""
    rng = np.random.default_rng(11003)
    # 10^4 random adjacent pairs for the old variant
    worst_ratio = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 11))
        ds, zval = make_instance(rng, n)
        cfg = KnnConfig(k, EUCLID, "old")
        base = knn_shapley_single(ds, cfg, zval, 2).scores
        extra, _ = make_instance(rng, 1)
        after = knn_shapley_single(ds.with_point(extra.point(0)), cfg, zval, 2).scores[:n]
        change = float(np.max(np.abs(after - base)))
        bound = 1.0 / (k * (k + 1))
        assert change <= bound + 1e-12
        worst_ratio = max(worst_ratio, change / bound)

    # the constructed pair achieves the bound exactly
    for k in (1, 2, 5, 8):
        feats = np.arange(1, k + 1, dtype=float)[:, None]
        ds = Dataset(feats, np.zeros(k, dtype=int), 2)
        zval = LabeledPoint(np.array([0.0]), 0)
        cfg = KnnConfig(k, EUCLID, "old")
        before = knn_shapley_single(ds, cfg, zval, 2).scores[k - 1]
        after = knn_shapley_single(
            ds.with_point(LabeledPoint(np.array([k + 0.5]), 0)), cfg, zval, 2
        ).scores[k - 1]
        assert abs(abs(before - after) - 1.0 / (k * (k + 1))) < 1e-12

    # refined-variant lower-bound construction
    zval = LabeledPoint(np.array([0.0]), 0)
    for k in (1, 2, 4):
        cfg = KnnConfig(k, EUCLID, "refined")
        small = Dataset(np.array([[1.0]]), np.array([0]), 2)
        big = Dataset(np.array([[0.5], [1.0]]), np.array([0, 0]), 2)
        gap = abs(
            knn_shapley_single(small, cfg, zval, 2).scores[0]
            - knn_shapley_single(big, cfg, zval, 2).scores[1]
        )
        assert gap >= 0.5 * (1.0 - 0.5) - 1e-12

    # count-vector l2 sensitivity never exceeds sqrt(3)
    for _ in range(1_000):
        n = int(rng.integers(1, 40))
        ds, zval = make_instance(rng, n, metric=NEGCOS)
        cfg = TknnConfig(pick_tau(rng, ds, zval, NEGCOS), NEGCOS)
        change = math.dist(
            counts_full(ds, cfg, zval).as_tuple(),
            counts_full(ds.without(int(rng.integers(0, n))), cfg, zval).as_tuple(),
        )
        assert change <= S3 + 1e-12
    report(3, f"old-variant bound tight (max observed ratio {worst_ratio:.3f}); "
              "constructions exact; count sensitivity <= sqrt(3)")


def test_criterion_4_dp_degeneracy_and_reuse():
    """sigma = 0, q = 1 release is bit-exact; draw count is 3 per validation point."""
    from nnshapley.tknn import tknn_shapley_all

    dval = generate_gaussian_synthetic(11, 6, seed=42)
    cfg = TknnConfig(-0.3, NEGCOS)
    for n in (50, 500):
        ds = generate_gaussian_synthetic(n, 6, seed=n)
        nonpriv = tknn_shapley_all(ds, cfg, dval, 2)
        priv, audit = dp_tknn_shapley_all(
            ds, cfg, dval, 2, DpParams(delta=1e-4, sigma=0.0, q=1.0, seed=1)
        )
        assert np.array_equal(nonpriv.scores, priv.scores)
        assert len(audit) == dval.n and priv.method.dp["draws"] == 3 * dval.n
    report(4, "degenerate DP-TKNN release bit-exact; 3 draws per validation point at N=50 and N=500")


def test_criterion_5_accountant():
    """Composition accuracy against the analytic Gaussian; amplification."""
    start = time.monotonic()
    composed = compose([gaussian_pld(S3, 20.0)] * 100)
    eps = epsilon_at_delta(composed, AccountantQuery(1e-4))
    analytic = analytic_gaussian_epsilon(S3, 2.0, 1e-4)
    rel = abs(eps - analytic) / analytic
    assert rel < 0.05

    sigma = 5.3198
    eps_low = epsilon_at_delta(subsampled_gaussian_pld(S3, sigma, 0.01), 1e-4)
    eps_full = epsilon_at_delta(subsampled_gaussian_pld(S3, sigma, 1.0), 1e-4)
    assert eps_low < eps_full
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(5, f"100-fold composed eps {eps:.4f} vs analytic {analytic:.4f} "
              f"({100 * rel:.2f}% off); eps(q=0.01)={eps_low:.4f} < eps(q=1)={eps_full:.4f}; "
              f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def detection_medians():
    """Five-seed detection medians for the four methods at desk scale."""
    start = time.monotonic()
    cal_tknn = calibrate_sigma_for_budget(
        COUNTS_SENSITIVITY, 1.0, 1e-4, q=0.01, mechanisms=200
    )
    cal_knn = calibrate_sigma_for_budget(
        knn_old_sensitivity(5), 1.0, 1e-4, q=1.0, mechanisms=200
    )
    assert cal_tknn.epsilon <= 1.0 and cal_knn.epsilon <= 1.0
    rows = {"tknn": [], "knn": [], "dp-tknn": [], "dp-knn": []}
    for seed in range(5):
        train = generate_gaussian_synthetic(2000, 10, seed=500 + seed)
        dval = generate_gaussian_synthetic(200, 10, seed=900 + seed)
        corrupted, record = flip_labels(train, 0.1, seed=700 + seed)
        methods = {
            "tknn": MethodConfig("tknn", tau=-0.5),
            "knn": MethodConfig("knn", k=5),
            "dp-tknn": MethodConfig(
                "dp-tknn", tau=-0.5,
                dp=DpParams(delta=1e-4, sigma=cal_tknn.sigma, q=0.01, seed=seed),
            ),
            "dp-knn": MethodConfig(
                "dp-knn", k=5,
                dp=DpParams(delta=1e-4, sigma=cal_knn.sigma, q=1.0, seed=seed),
            ),
        }
        for name, method in methods.items():
            rows[name].append(run_detection(corrupted, record, method, dval, seed=seed).auroc)
    medians = {name: float(np.median(v)) for name, v in rows.items()}
    medians["_elapsed"] = time.monotonic() - start
    return medians


@pytest.mark.slow
def test_criterion_6_detection_at_desk_scale(detection_medians):
    """Synthetic mislabel detection: absolute and relative AUROC gates."""
    m = detection_medians
    assert m["_elapsed"] < 300.0
    assert m["tknn"] >= 0.8
    assert abs(m["tknn"] - m["knn"]) <= 0.08
    assert abs(m["dp-tknn"] - m["tknn"]) <= 0.05
    assert m["dp-knn"] <= 0.6
    report(6, f"5-seed medians: tknn {m['tknn']:.3f}, knn {m['knn']:.3f}, "
              f"dp-tknn {m['dp-tknn']:.3f}, dp-knn {m['dp-knn']:.3f} "
              f"({m['_elapsed']:.0f}s)")


@pytest.mark.slow
def test_criterion_7_runtime_scaling():
    """Large-N wall time: threshold variant no slower, and linear in N."""
    rows = bench_runtime(
        [100_000, 1_000_000], d=10, n_val=100, methods=("tknn", "knn"), repeats=3, seed=0
    )
    t = {(r["n"], r["method"]): r["median_seconds"] for r in rows}
    ratio = t[(1_000_000, "tknn")] / t[(100_000, "tknn")]
    times = f"median seconds {t}; tknn 1e6/1e5 ratio {ratio:.2f}"
    assert t[(100_000, "tknn")] <= t[(100_000, "knn")], times
    assert t[(1_000_000, "tknn")] <= t[(1_000_000, "knn")], times
    assert 8.0 <= ratio <= 13.0, times
    speedup = 1.0 - t[(1_000_000, "tknn")] / t[(1_000_000, "knn")]
    report(7, f"N=1e6: tknn {t[(1_000_000, 'tknn')]:.1f}s <= knn "
              f"{t[(1_000_000, 'knn')]:.1f}s ({100 * speedup:.0f}% faster, not gated); "
              f"tknn 1e6/1e5 ratio {ratio:.1f} in [8, 13]")


@pytest.fixture(scope="module")
def attack_setup():
    def pools(seed, nval):
        pool = generate_gaussian_synthetic(800 + nval, 10, seed=1000 + seed)
        return (
            pool.subset(range(0, 200)),        # members = server dataset
            pool.subset(range(200, 400)),      # nonmembers
            pool.subset(range(400, 800)),      # shadow pool
            pool.subset(range(800, 800 + nval)),
        )

    return pools


@pytest.mark.slow
def test_criterion_8_membership_inference(attack_setup):
    """The attack works on plain scores and collapses under the DP release."""
    start = time.monotonic()
    knn_aurocs = []
    for seed in range(5):
        members, nonmembers, shadow, zvals = attack_setup(seed, 64)
        scorer = value_scorer(MethodConfig("knn", k=1, metric=NEGCOS))
        knn_aurocs.append(
            mia_auroc(scorer, members, nonmembers, shadow, members,
                      MiaConfig(shadow_count=32, seed=seed), zvals)
        )
    knn_median = float(np.median(knn_aurocs))
    assert knn_median > 0.55

    cal = calibrate_sigma_for_budget(COUNTS_SENSITIVITY, 1.0, 1e-4, q=0.01, mechanisms=16)
    assert cal.epsilon <= 1.0
    dp_aurocs = []
    for seed in range(5):
        members, nonmembers, shadow, zvals = attack_setup(seed, 16)
        scorer = value_scorer(MethodConfig(
            "dp-tknn", tau=-0.5, metric=NEGCOS,
            dp=DpParams(delta=1e-4, sigma=cal.sigma, q=0.01),
        ))
        dp_aurocs.append(
            mia_auroc(scorer, members, nonmembers, shadow, members,
                      MiaConfig(shadow_count=32, seed=seed), zvals)
        )
    dp_median = float(np.median(dp_aurocs))
    assert 0.4 <= dp_median <= 0.6
    report(8, f"attack medians over 5 seeds: non-private knn {knn_median:.3f} > 0.55; "
              f"dp-tknn at eps=1 {dp_median:.3f} in [0.4, 0.6] "
              f"({time.monotonic() - start:.0f}s)")


def test_criterion_9_consistency():
    """Threshold-regressor MSE strictly decreases with n under tau_n = n^(-1/4)."""
    mses_100 = []
    mses_10k = []
    for seed in range(5):
        rows = dict(tknn_consistency_check([100, 10_000], seed=seed))
        mses_100.append(rows[100])
        mses_10k.append(rows[10_000])
    med_100 = float(np.median(mses_100))
    med_10k = float(np.median(mses_10k))
    assert med_10k < med_100
    report(9, f"5-seed median MSE drops from {med_100:.4f} (n=100) to {med_10k:.4f} (n=10000)")
