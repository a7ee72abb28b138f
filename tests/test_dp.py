import itertools
import math
import warnings

import numpy as np
import pytest

from nnshapley import dataset, dp, tknn
from nnshapley.dataset import (
    Dataset,
    DistanceMetric,
    LabeledPoint,
    distances_to,
    generate_gaussian_synthetic,
    validation_chunks,
)
from nnshapley._rng import TAG_NOISE, TAG_SUBSAMPLE, stream, streams
from nnshapley.dp import (
    COUNTS_SENSITIVITY,
    DpParams,
    _poisson_mask,
    dp_knn_shapley_all,
    dp_tknn_shapley_all,
    knn_old_sensitivity,
    poisson_subsample,
    privatize_counts,
)
from nnshapley.errors import ParameterError
from nnshapley.evaluation import MethodConfig, compute_values
from nnshapley.knn import KnnConfig, knn_shapley_all, knn_shapley_single
from nnshapley.tknn import (
    NeighborCounts,
    TknnConfig,
    counts_full,
    tknn_shapley_all,
    tknn_value_table,
)
from tests.conftest import make_instance, pick_tau, set_chunk_rows

EUCLID = DistanceMetric.EUCLIDEAN
NEGCOS = DistanceMetric.NEGATIVE_COSINE

# (row group, column tile) for the tiled TKNN pass; the first is the default.
GEOMETRIES = [(32, 4096), (1, 13), (3, 7), (16, 67)]


class TestCalibration:
    def test_knn_old_sensitivity_value(self):
        assert knn_old_sensitivity(5) == pytest.approx(1 / 30)

    def test_params_require_a_calibrated_sigma(self):
        # The noise of a release is a sigma; epsilon is the accountant's input.
        with pytest.raises(TypeError):
            DpParams(delta=1e-4)
        with pytest.raises(TypeError):
            DpParams(delta=1e-4, epsilon=1.0)
        params = DpParams(1e-4, 2.0, 0.5, 7)
        assert (params.delta, params.sigma, params.q, params.seed) == (1e-4, 2.0, 0.5, 7)
        assert params.manifest(draws=6) == {
            "delta": 1e-4, "sigma": 2.0, "q": 0.5, "seed": 7, "draws": 6,
        }

    @pytest.mark.parametrize(
        "budget", [dict(sigma=math.nan), dict(sigma=math.inf), dict(sigma=-1.0),
                   dict(sigma=1.0, delta=0.0), dict(sigma=1.0, delta=1.0),
                   dict(sigma=1.0, delta=math.nan), dict(sigma=1.0, q=0.0),
                   dict(sigma=1.0, q=1.5), dict(sigma=1.0, q=math.nan)],
        ids=lambda budget: ",".join(f"{k}={v}" for k, v in budget.items()),
    )
    def test_params_reject_non_finite_and_out_of_range(self, budget):
        with pytest.raises(ParameterError):
            DpParams(**{"delta": 1e-4, **budget})

    def test_params_reject_a_negative_seed(self):
        with pytest.raises(ParameterError, match="seed"):
            DpParams(delta=1e-4, sigma=1.0, seed=-1)

    def test_params_allow_zero_sigma(self):
        # The degenerate release: no noise, scores equal the non-private ones.
        assert DpParams(delta=1e-4, sigma=0.0).sigma == 0.0


class TestPrivatizeCounts:
    def test_zero_noise_identity(self):
        counts = NeighborCounts(10, 4, 2)
        priv = privatize_counts(counts, 0.0, 123)
        assert priv.counts == counts
        assert priv.raw_noise_draws == (0.0, 0.0, 0.0)

    def test_clamping_to_valid_range(self, rng):
        # Huge noise must still produce a self-consistent triple.
        for seed in range(200):
            priv = privatize_counts(NeighborCounts(5, 3, 2), 50.0, seed)
            c, c_x, c_z = priv.counts.as_tuple()
            assert c >= 0 and 1 <= c_x <= c + 1 and 0 <= c_z <= c_x - 1

    def test_upper_clamp_example(self):
        # Force c_zplus far above c_x - 1 via a deterministic fake generator.
        class FakeGen(np.random.Generator):
            pass

        rng = np.random.default_rng(0)
        priv = privatize_counts(NeighborCounts(100, 3, 2), 0.0, rng)
        assert priv.counts.c_zplus <= priv.counts.c_x - 1

    def test_seeded_determinism(self):
        a = privatize_counts(NeighborCounts(9, 5, 1), 2.5, 42)
        b = privatize_counts(NeighborCounts(9, 5, 1), 2.5, 42)
        assert a == b


class TestPoissonSubsample:
    def test_q_one_is_identity(self):
        ds = generate_gaussian_synthetic(50, 3, seed=1)
        assert poisson_subsample(ds, 1.0, 0) is ds

    def test_determinism(self):
        ds = generate_gaussian_synthetic(100, 3, seed=1)
        a = poisson_subsample(ds, 0.3, 5)
        b = poisson_subsample(ds, 0.3, 5)
        assert np.array_equal(a.owners, b.owners)

    def test_size_concentration(self):
        # Mean subsample size over 100 seeds within q N +- 3 sqrt(N q (1-q)).
        n, q = 1000, 0.05
        ds = generate_gaussian_synthetic(n, 2, seed=1)
        sizes = [poisson_subsample(ds, q, seed).n for seed in range(100)]
        spread = 3 * math.sqrt(n * q * (1 - q)) / math.sqrt(100)
        assert abs(np.mean(sizes) - q * n) <= 3 * spread + 1

    def test_q_out_of_range(self):
        ds = generate_gaussian_synthetic(10, 2, seed=1)
        with pytest.raises(ParameterError):
            poisson_subsample(ds, 0.0, 1)

    def test_owners_preserved(self):
        ds = generate_gaussian_synthetic(200, 2, seed=1)
        sub = poisson_subsample(ds, 0.5, 3)
        assert np.array_equal(sub.features, ds.features[sub.owners])


class TestDpTknn:
    def test_degenerate_release_is_bit_exact(self):
        ds = generate_gaussian_synthetic(80, 6, seed=1)
        dval = generate_gaussian_synthetic(9, 6, seed=2)
        cfg = TknnConfig(-0.3, NEGCOS)
        nonpriv = tknn_shapley_all(ds, cfg, dval)
        priv_res, audit = dp_tknn_shapley_all(
            ds, cfg, dval, DpParams(delta=1e-4, sigma=0.0, q=1.0, seed=0)
        )
        assert np.array_equal(nonpriv.scores, priv_res.scores)
        assert all(p.raw_noise_draws == (0.0, 0.0, 0.0) for p in audit)

    def test_degenerate_release_is_bit_exact_over_chunks(self, monkeypatch):
        monkeypatch.setattr(tknn, "_ROW_GROUP", 7)
        monkeypatch.setattr(tknn, "_COLUMN_TILE", 50)
        ds = generate_gaussian_synthetic(400, 6, seed=1)
        dval = generate_gaussian_synthetic(80, 6, seed=2)
        cfg = TknnConfig(-0.3, NEGCOS)
        nonpriv = tknn_shapley_all(ds, cfg, dval, threads=2)
        priv_res, _ = dp_tknn_shapley_all(
            ds, cfg, dval, DpParams(delta=1e-4, sigma=0.0, q=1.0, seed=0)
        )
        assert np.array_equal(nonpriv.scores, priv_res.scores)

    def test_three_draws_per_validation_point(self):
        for n in (10, 200):
            ds = generate_gaussian_synthetic(n, 4, seed=1)
            dval = generate_gaussian_synthetic(6, 4, seed=2)
            res, audit = dp_tknn_shapley_all(
                ds, TknnConfig(-0.2, NEGCOS), dval,
                DpParams(delta=1e-4, sigma=1.0, q=1.0, seed=3),
            )
            assert len(audit) == dval.n  # 3 Gaussian draws per entry
            assert res.method.dp["draws"] == 3 * dval.n

    def test_collusion_resistant_recompute(self, monkeypatch):
        # Any owner's released score is reproducible bit-for-bit from the one
        # privatized triple plus that owner's own attributes, also when the
        # release runs over several row groups and column tiles.
        monkeypatch.setattr(tknn, "_ROW_GROUP", 2)
        monkeypatch.setattr(tknn, "_COLUMN_TILE", 16)
        ds = generate_gaussian_synthetic(60, 5, seed=4)
        dval = generate_gaussian_synthetic(7, 5, seed=5)
        cfg = TknnConfig(-0.4, NEGCOS)
        res, audit = dp_tknn_shapley_all(
            ds, cfg, dval, DpParams(delta=1e-4, sigma=3.0, q=1.0, seed=6)
        )
        rebuilt = np.zeros(ds.n)
        for v in range(dval.n):
            zval = dval.point(v)
            within = distances_to(NEGCOS, ds.features, zval.features) <= cfg.tau
            match = ds.labels == zval.label
            table = tknn_value_table(*audit[v].counts.as_tuple(), 2)
            for i in range(ds.n):
                rebuilt[i] += table[int(within[i]), int(match[i])] if within[i] else 0.0
        assert np.array_equal(rebuilt, res.scores)

    def test_collusion_resistant_recompute_with_subsampling(self, monkeypatch):
        # With q < 1 an owner also needs its own subsample membership, which the
        # keyed stream reproduces; in-threshold points outside the sample differ.
        monkeypatch.setattr(tknn, "_ROW_GROUP", 2)
        monkeypatch.setattr(tknn, "_COLUMN_TILE", 16)
        ds = generate_gaussian_synthetic(60, 5, seed=4)
        dval = generate_gaussian_synthetic(7, 5, seed=5)
        cfg = TknnConfig(-0.4, NEGCOS)
        params = DpParams(delta=1e-4, sigma=3.0, q=0.5, seed=6)
        res, audit = dp_tknn_shapley_all(ds, cfg, dval, params)
        rebuilt = np.zeros(ds.n)
        differs = False
        for v in range(dval.n):
            zval = dval.point(v)
            within = distances_to(NEGCOS, ds.features, zval.features) <= cfg.tau
            keep = _poisson_mask(ds.n, params.q, stream(params.seed, TAG_SUBSAMPLE, v))
            in_nb = within & keep
            differs |= bool((within != in_nb).any())
            match = ds.labels == zval.label
            table = tknn_value_table(*audit[v].counts.as_tuple(), 2)
            for i in range(ds.n):
                rebuilt[i] += table[int(in_nb[i]), int(match[i])] if within[i] else 0.0
        assert differs
        assert np.array_equal(rebuilt, res.scores)

    @pytest.mark.parametrize("q", [1.0, 0.4])
    def test_release_does_not_depend_on_geometry_or_chunking(
        self, monkeypatch, no_validation_chunks, q
    ):
        # Duplicate validation rows sit in different row groups; at sigma = 0
        # and q = 1 their released triples must be equal. At N = 1200, d = 10
        # and the (32, 4096) geometry, the one row group's cosine product
        # spans two blocks of the distance GEMM.
        for n, d in ((202, 5), (1200, 10)):
            ds = generate_gaussian_synthetic(n, d, seed=21)
            base = generate_gaussian_synthetic(9, d, seed=22)
            order = np.r_[np.arange(9), np.arange(9)[::-1], [0, 4, 4, 8, 2]]
            dval = base.subset(order)
            cfg = TknnConfig(-0.2, NEGCOS)
            runs = {}
            for sigma in (0.0, 0.7):
                params = DpParams(delta=1e-4, sigma=sigma, q=q, seed=5)
                for rows, cols in GEOMETRIES:
                    monkeypatch.setattr(tknn, "_ROW_GROUP", rows)
                    monkeypatch.setattr(tknn, "_COLUMN_TILE", cols)
                    res, audit = dp_tknn_shapley_all(ds, cfg, dval, params)
                    triples = [(p.counts.as_tuple(), p.raw_noise_draws) for p in audit]
                    first = runs.setdefault(sigma, (res.scores, triples))
                    assert np.array_equal(res.scores, first[0]) and triples == first[1]
            if q == 1.0:
                exact = [counts for counts, _ in runs[0.0][1]]
                for v, w in itertools.combinations(range(dval.n), 2):
                    if order[v] == order[w]:
                        assert exact[v] == exact[w]

    def test_seeded_determinism_with_subsampling(self):
        ds = generate_gaussian_synthetic(120, 4, seed=7)
        dval = generate_gaussian_synthetic(4, 4, seed=8)
        params = DpParams(delta=1e-4, sigma=1.5, q=0.2, seed=11)
        a, _ = dp_tknn_shapley_all(ds, TknnConfig(-0.3, NEGCOS), dval, params)
        b, _ = dp_tknn_shapley_all(ds, TknnConfig(-0.3, NEGCOS), dval, params)
        assert np.array_equal(a.scores, b.scores)

    def test_privatized_counts_always_valid(self):
        ds = generate_gaussian_synthetic(30, 3, seed=9)
        dval = generate_gaussian_synthetic(8, 3, seed=10)
        _, audit = dp_tknn_shapley_all(
            ds, TknnConfig(-0.1, NEGCOS), dval,
            DpParams(delta=1e-4, sigma=25.0, q=0.5, seed=12),
        )
        for p in audit:
            c, c_x, c_z = p.counts.as_tuple()
            assert c >= 0 and 1 <= c_x <= c + 1 and 0 <= c_z <= c_x - 1

    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_clamped_release_with_an_empty_row_warns_nothing(self, q):
        # Heavy noise forces clamping, and the last validation point lies far
        # from every training point, so its row has no in-threshold point.
        ds = generate_gaussian_synthetic(40, 3, seed=13)
        dval = generate_gaussian_synthetic(5, 3, seed=14)
        dval = Dataset(np.vstack([dval.features[:-1], [100.0, 100.0, 100.0]]), dval.labels, 2)
        cfg = TknnConfig(1.5, EUCLID)
        fulls = [counts_full(ds, cfg, dval.point(v)) for v in range(dval.n)]
        assert fulls[-1].c_x == 1 and all(f.c_x > 1 for f in fulls[:-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, audit = dp_tknn_shapley_all(
                ds, cfg, dval, DpParams(delta=1e-4, sigma=20.0, q=q, seed=15)
            )
        assert np.all(np.isfinite(res.scores))
        if q == 1.0:  # the noised triples are the full-data ones; some were clamped
            noisy = [np.rint(np.add(f.as_tuple(), p.raw_noise_draws)) for f, p in zip(fulls, audit)]
            assert any(tuple(n) != p.counts.as_tuple() for n, p in zip(noisy, audit))


def _per_owner_subsampled_reference(ds, cfg, dval, num_classes, params):
    """The subsampled DP-KNN baseline as a per-owner loop: for every
    (validation point, owner) pair, one subset copy, one distance row and one
    sort, with the point's noise drawn one owner at a time."""
    if dval.n == 0:
        raise ParameterError("validation set must be nonempty")
    sigma = params.sigma
    n = ds.n
    total = np.zeros(n)
    for v in range(dval.n):
        zval = dval.point(v)
        noise_rng = stream(params.seed, TAG_NOISE, v)
        for i in range(n):
            keep = _poisson_mask(n, params.q, stream(params.seed, TAG_SUBSAMPLE, v, i))
            keep[i] = True  # the owner's own point is always present
            sub = ds.subset(keep)
            pos = int(np.searchsorted(np.flatnonzero(keep), i))
            phi_i = knn_shapley_single(sub, cfg, zval).scores[pos]
            noise = float(noise_rng.normal(0.0, sigma)) if sigma > 0.0 else 0.0
            total[i] += phi_i + noise
    return total


def _baseline_instance(rng):
    """Random training set in which some points are copied with another label."""
    n, d, num_classes = int(rng.integers(2, 13)), int(rng.integers(1, 4)), int(rng.integers(2, 4))
    feats = rng.standard_normal((n, d))
    labels = rng.integers(0, num_classes, n)
    copies = rng.integers(0, n, int(rng.integers(0, 4)))
    feats = np.concatenate([feats, feats[copies]])
    labels = np.concatenate([labels, (labels[copies] + 1) % num_classes])
    ds = Dataset(feats, labels, num_classes)
    v = int(rng.integers(1, 4))
    dval = Dataset(rng.standard_normal((v, d)), rng.integers(0, num_classes, v), num_classes)
    return ds, dval, num_classes


class TestDpKnnBaseline:
    def test_subsampled_equals_the_per_owner_loop_bitwise(self):
        rng = np.random.default_rng(8)
        for case in range(320):
            metric = (EUCLID, NEGCOS)[case % 2]
            ds, dval, num_classes = _baseline_instance(rng)
            cfg = KnnConfig(int(rng.integers(1, 6)), metric, "old")
            params = DpParams(
                delta=1e-4,
                sigma=(0.0, 0.05)[case // 2 % 2],
                q=(0.3, 0.7, 1.0)[case % 3],
                seed=case,
            )
            res = dp_knn_shapley_all(ds, cfg, dval, params)
            ref = _per_owner_subsampled_reference(ds, cfg, dval, num_classes, params)
            assert np.array_equal(res.scores, ref), case

    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_empty_training_set_rejected(self, q):
        ds = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        dval = generate_gaussian_synthetic(3, 3, seed=2)
        params = DpParams(delta=1e-4, sigma=0.1, q=q)
        with pytest.raises(ParameterError, match="empty dataset"):
            dp_knn_shapley_all(ds, KnnConfig(3, EUCLID, "old"), dval, params)

    def test_subsampled_over_chunks_only_reorders_the_sum(self, monkeypatch):
        monkeypatch.setattr(dataset, "_SCORE_CHUNK_ELEMS", 60)
        ds = generate_gaussian_synthetic(20, 3, seed=1)
        dval = generate_gaussian_synthetic(7, 3, seed=2)
        assert len(validation_chunks(dval.n, ds.n)) >= 3
        cfg = KnnConfig(3, NEGCOS, "old")
        params = DpParams(delta=1e-4, sigma=0.05, q=0.5, seed=3)
        res = dp_knn_shapley_all(ds, cfg, dval, params)
        ref = _per_owner_subsampled_reference(ds, cfg, dval, 2, params)
        assert res.scores.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("q", [1.0, 0.5], ids=["q1", "q0.5"])
    @pytest.mark.parametrize("metric", [EUCLID, NEGCOS])
    def test_scores_do_not_depend_on_chunk_height(self, monkeypatch, metric, q):
        # Noised score rows are added in validation order whatever the row
        # groups: one-row groups, ragged groups (11 = 3 * 3 + 2 = 7 + 4) or one.
        ds = generate_gaussian_synthetic(40, 3, seed=11)
        ds = ds.subset(np.r_[np.arange(40), 2, 9, 9])  # exact duplicates among the ranks
        dval = generate_gaussian_synthetic(11, 3, seed=12)
        cfg = KnnConfig(3, metric, "old")
        params = DpParams(delta=1e-4, sigma=0.05, q=q, seed=13)
        scores = []
        for rows in (1, 3, 7, None):
            set_chunk_rows(monkeypatch, ds, rows)
            res = dp_knn_shapley_all(ds, cfg, dval, params)
            scores.append(res.scores.tobytes())
        assert scores == scores[:1] * 4

    def test_subsampled_at_full_rate_and_zero_noise_is_the_plain_release(self):
        ds = generate_gaussian_synthetic(30, 3, seed=4)
        ds = ds.subset(np.r_[np.arange(30), 0, 5])  # exact duplicates among the ranks
        dval = generate_gaussian_synthetic(5, 3, seed=5)
        for metric in (EUCLID, NEGCOS):
            cfg = KnnConfig(3, metric, "old")
            params = DpParams(delta=1e-4, sigma=0.0, q=1.0, seed=6)
            res = dp_knn_shapley_all(ds, cfg, dval, params)
            assert np.array_equal(res.scores, knn_shapley_all(ds, cfg, dval).scores)

    def test_full_rate_draws_no_subsample(self, monkeypatch):
        # At q = 1 every mask would keep every point: the release builds no
        # subsample stream and keeps the plain name. Keys are counted whether
        # they are requested one at a time or in batches over a range of the
        # last key word.
        keys = []

        def counting_stream(seed, *key):
            keys.append(key)
            return stream(seed, *key)

        def counting_streams(seed, key, lo, hi):
            keys.extend((*key, v) for v in range(lo, hi))
            return streams(seed, key, lo, hi)

        monkeypatch.setattr(dp, "stream", counting_stream, raising=False)
        monkeypatch.setattr(dp, "streams", counting_streams)
        ds = generate_gaussian_synthetic(30, 3, seed=4)
        dval = generate_gaussian_synthetic(5, 3, seed=5)
        cfg = KnnConfig(3, NEGCOS, "old")
        for q, subsample_streams, suffix in ((1.0, 0, ""), (0.5, ds.n * dval.n, "-subsampled")):
            keys.clear()
            params = DpParams(delta=1e-4, sigma=0.2, q=q, seed=6)
            res = dp_knn_shapley_all(ds, cfg, dval, params)
            assert sum(key[0] == TAG_SUBSAMPLE for key in keys) == subsample_streams
            noise_keys = [key for key in keys if key[0] == TAG_NOISE]
            assert noise_keys == [(TAG_NOISE, v) for v in range(dval.n)]
            assert res.method.name == "dp-knn-shapley-old" + suffix
            assert res.method.dp == params.manifest(draws=ds.n * dval.n)

    def test_requires_old_variant(self):
        ds = generate_gaussian_synthetic(10, 2, seed=1)
        dval = generate_gaussian_synthetic(2, 2, seed=2)
        with pytest.raises(ParameterError):
            dp_knn_shapley_all(
                ds, KnnConfig(3, EUCLID, "refined"), dval,
                DpParams(delta=1e-4, sigma=0.1),
            )

    def test_degenerate_noise_matches_nonprivate(self):
        ds = generate_gaussian_synthetic(40, 4, seed=1)
        dval = generate_gaussian_synthetic(6, 4, seed=2)
        cfg = KnnConfig(5, NEGCOS, "old")
        nonpriv = knn_shapley_all(ds, cfg, dval)
        priv = dp_knn_shapley_all(ds, cfg, dval, DpParams(delta=1e-4, sigma=0.0, seed=3))
        assert np.array_equal(nonpriv.scores, priv.scores)

    def test_draw_count_is_n_times_nval(self):
        ds = generate_gaussian_synthetic(25, 3, seed=1)
        dval = generate_gaussian_synthetic(4, 3, seed=2)
        res = dp_knn_shapley_all(
            ds, KnnConfig(2, EUCLID, "old"), dval, DpParams(delta=1e-4, sigma=0.5, seed=3)
        )
        assert res.method.dp["draws"] == 25 * 4

    def test_manifest_reports_the_rate_the_release_ran_at(self):
        # The release runs at the rate of its DpParams, whatever that rate,
        # so the manifest records the rate it was given.
        ds = generate_gaussian_synthetic(20, 3, seed=1)
        dval = generate_gaussian_synthetic(3, 3, seed=2)
        cfg = KnnConfig(3, EUCLID, "old")
        for q in (0.5, 1.0):
            params = DpParams(delta=1e-4, sigma=0.1, q=q, seed=3)
            res = dp_knn_shapley_all(ds, cfg, dval, params)
            assert res.method.dp == params.manifest(draws=ds.n * dval.n)

    @pytest.mark.parametrize("through", ["direct", "compute_values"])
    def test_a_rate_below_one_subsamples(self, through):
        # A rate below 1 is never replaced by 1: called directly or through
        # the method registry, the release subsamples at that rate, names
        # itself subsampled and records the rate.
        ds = generate_gaussian_synthetic(20, 3, seed=1)
        dval = generate_gaussian_synthetic(3, 3, seed=2)
        cfg = KnnConfig(3, NEGCOS, "old")
        params = DpParams(delta=1e-4, sigma=0.1, q=0.5, seed=3)
        if through == "direct":
            res = dp_knn_shapley_all(ds, cfg, dval, params)
        else:
            res = compute_values(ds, dval, MethodConfig("dp-knn", k=3, metric=NEGCOS, dp=params))
        ref = _per_owner_subsampled_reference(ds, cfg, dval, 2, params)
        assert res.scores.tobytes() == ref.tobytes()
        assert res.method.name == "dp-knn-shapley-old-subsampled"
        assert res.method.dp["q"] == 0.5

    def test_subsampled_baseline_runs_and_degenerates(self):
        ds = generate_gaussian_synthetic(20, 3, seed=1)
        dval = generate_gaussian_synthetic(3, 3, seed=2)
        cfg = KnnConfig(3, EUCLID, "old")
        res = dp_knn_shapley_all(ds, cfg, dval, DpParams(delta=1e-4, sigma=0.0, q=1.0, seed=3))
        nonpriv = knn_shapley_all(ds, cfg, dval)
        # q = 1 keeps every point, so zero noise reduces to the plain scores.
        assert np.allclose(res.scores, nonpriv.scores, atol=1e-12)


class TestSensitivity:
    def test_count_triple_l2_bounded_by_sqrt3(self, rng):
        cfg = TknnConfig(0.0, NEGCOS)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            ds, zval = make_instance(rng, n, metric=NEGCOS)
            cfg = TknnConfig(pick_tau(rng, ds, zval, NEGCOS), NEGCOS)
            before = counts_full(ds, cfg, zval)
            after = counts_full(ds.without(int(rng.integers(0, n))), cfg, zval)
            change = math.dist(before.as_tuple(), after.as_tuple())
            assert change <= COUNTS_SENSITIVITY + 1e-12

    def test_old_knn_empirical_sensitivity(self, rng):
        # Max per-point score change when one point is added never exceeds
        # 1 / (K (K + 1)).
        for _ in range(800):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, 8))
            ds, zval = make_instance(rng, n)
            cfg = KnnConfig(k, EUCLID, "old")
            base = knn_shapley_single(ds, cfg, zval).scores
            extra, _ = make_instance(rng, 1)
            bigger = ds.with_point(extra.point(0))
            after = knn_shapley_single(bigger, cfg, zval).scores[:n]
            change = float(np.max(np.abs(after - base)))
            assert change <= 1 / (k * (k + 1)) + 1e-12

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_old_knn_tight_pair(self, k):
        # K matching points at distances 1..K; adding a matching point just
        # beyond them changes the K-th point's score by exactly 1/(K(K+1)).
        feats = np.arange(1, k + 1, dtype=float)[:, None]
        ds = Dataset(feats, np.zeros(k, dtype=int), 2)
        zval = LabeledPoint(np.array([0.0]), 0)
        cfg = KnnConfig(k, EUCLID, "old")
        before = knn_shapley_single(ds, cfg, zval).scores[k - 1]
        bigger = ds.with_point(LabeledPoint(np.array([float(k) + 0.5]), 0))
        after = knn_shapley_single(bigger, cfg, zval).scores[k - 1]
        assert abs(before - after) == pytest.approx(1 / (k * (k + 1)), abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_refined_lower_bound_construction(self, k):
        # D = {z2} against D' = {z1, z2} with y1 = y_val moves z2's score by
        # at least (1[y2 = y_val] - 1/C) / 2.
        z1 = LabeledPoint(np.array([0.5]), 0)
        z2 = LabeledPoint(np.array([1.0]), 0)
        zval = LabeledPoint(np.array([0.0]), 0)
        cfg = KnnConfig(k, EUCLID, "refined")
        small = Dataset(z2.features[None, :], np.array([z2.label]), 2)
        big = Dataset(np.vstack([z1.features, z2.features]), np.array([0, 0]), 2)
        phi_small = knn_shapley_single(small, cfg, zval).scores[0]
        phi_big = knn_shapley_single(big, cfg, zval).scores[1]
        assert abs(phi_small - phi_big) >= 0.5 * (1 - 0.5) - 1e-12
