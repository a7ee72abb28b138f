import itertools
import tracemalloc

import numpy as np
import pytest

import nnshapley.dataset as dataset_module
from nnshapley.dataset import (
    Dataset,
    DistanceMetric,
    LabeledPoint,
    distance_matrix,
    generate_gaussian_synthetic,
    training_norms,
    validation_chunks,
)
from nnshapley.errors import ParameterError
from nnshapley.knn import (
    KnnConfig,
    _index_ordered_argsort,
    _old_sorted_batch,
    _refined_sorted_batch,
    knn_score_matrix,
    knn_shapley_all,
    knn_shapley_single,
)
from nnshapley.tknn import TknnConfig, tknn_shapley_all, tknn_shapley_single
from nnshapley.valuation import aggregate_over_validation, shapley_oracle, utility
from tests.conftest import make_instance, set_chunk_rows

EUCLID = DistanceMetric.EUCLIDEAN
NEGCOS = DistanceMetric.NEGATIVE_COSINE


def sorted_label_instance(labels, zval_label=0):
    """Points at distances 1, 2, 3, ... so the given labels are the sort order."""
    feats = np.arange(1, len(labels) + 1, dtype=float)[:, None]
    ds = Dataset(feats, np.asarray(labels), 2)
    return ds, LabeledPoint(np.array([0.0]), zval_label)


class TestRefinedRecursion:
    def test_single_point_base_case(self):
        ds, zval = sorted_label_instance([0])
        res = knn_shapley_single(ds, KnnConfig(5, EUCLID, "refined"), zval)
        assert res.scores[0] == pytest.approx(1 - 0.5)
        ds2, zval2 = sorted_label_instance([1])
        res2 = knn_shapley_single(ds2, KnnConfig(5, EUCLID, "refined"), zval2)
        assert res2.scores[0] == pytest.approx(0 - 0.5)

    def test_three_point_hand_unrolled(self):
        # K=1, C=2, sorted labels (match, mismatch, match); unrolling the
        # recursion by hand gives (2/3, -1/3, 1/6), which sums to
        # v(D) - v(empty) = 1 - 1/2.
        ds, zval = sorted_label_instance([0, 1, 0])
        cfg = KnnConfig(1, EUCLID, "refined")
        res = knn_shapley_single(ds, cfg, zval)
        assert res.scores == pytest.approx([2 / 3, -1 / 3, 1 / 6], abs=1e-12)
        oracle = shapley_oracle(ds, cfg, zval)
        assert res.scores == pytest.approx(oracle.scores, abs=1e-12)

    def test_efficiency(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, 6))
            c = int(rng.integers(2, 4))
            ds, zval = make_instance(rng, n, num_classes=c)
            cfg = KnnConfig(k, EUCLID, "refined")
            res = knn_shapley_single(ds, cfg, zval)
            v_full = utility(cfg, ds, zval)
            assert res.scores.sum() == pytest.approx(v_full - 1 / c, abs=1e-9)

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ParameterError):
            knn_shapley_single(ds, KnnConfig(1, EUCLID), LabeledPoint(np.zeros(1), 0))


class TestOldRecursion:
    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 3), (4, 4), (2, 5)])
    def test_small_n_closed_form(self, rng, n, k):
        # For N <= K every point is worth exactly 1[match] / K.
        ds, zval = make_instance(rng, n)
        res = knn_shapley_single(ds, KnnConfig(k, EUCLID, "old"), zval)
        expected = (ds.labels == zval.label).astype(float) / k
        assert res.scores == pytest.approx(expected, abs=1e-12)

    def test_efficiency_with_zero_empty_value(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, 6))
            ds, zval = make_instance(rng, n)
            cfg = KnnConfig(k, EUCLID, "old")
            res = knn_shapley_single(ds, cfg, zval)
            v_full = utility(cfg, ds, zval)
            assert res.scores.sum() == pytest.approx(v_full, abs=1e-9)


class TestOracleEquivalence:
    @pytest.mark.parametrize("metric", [EUCLID, NEGCOS])
    def test_both_variants_match_oracle(self, rng, metric):
        for _ in range(30):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, 6))
            c = int(rng.integers(2, 4))
            ds, zval = make_instance(rng, n, num_classes=c)
            soft_cfg, old_cfg = KnnConfig(k, metric, "refined"), KnnConfig(k, metric, "old")
            refined = knn_shapley_single(ds, soft_cfg, zval)
            oracle_soft = shapley_oracle(ds, soft_cfg, zval)
            assert np.max(np.abs(refined.scores - oracle_soft.scores)) < 1e-9
            old = knn_shapley_single(ds, old_cfg, zval)
            oracle_old = shapley_oracle(ds, old_cfg, zval)
            assert np.max(np.abs(old.scores - oracle_old.scores)) < 1e-9


class TestValidationSet:
    def test_single_point_val_set_equals_single(self):
        # Bit for bit: the single-point entry, the release on a one-point
        # validation set and the one-row kernel. N = 4099 is not a multiple of
        # 16, and two copied points tie in the order.
        ds = generate_gaussian_synthetic(4097, 5, seed=5).subset(np.r_[np.arange(4097), 7, 4000])
        dval = generate_gaussian_synthetic(3, 5, seed=6)
        for metric, variant in itertools.product((EUCLID, NEGCOS), ("refined", "old")):
            cfg = KnnConfig(3, metric, variant)
            for v, zval in enumerate(dval.points()):
                single = knn_shapley_single(ds, cfg, zval).scores
                release = knn_shapley_all(ds, cfg, dval.subset([v])).scores
                kernel = knn_score_matrix(ds, cfg, zval.features[None, :], [zval.label])[0]
                assert single.tobytes() == release.tobytes() == kernel.tobytes(), (metric, variant)

    @pytest.mark.parametrize(
        "single, cfg",
        [
            (knn_shapley_single, KnnConfig(1, EUCLID)),
            (tknn_shapley_single, TknnConfig(1.0, EUCLID)),
        ],
    )
    def test_single_point_label_out_of_range_rejected(self, rng, single, cfg):
        # The one-point validation set checks the label as every Dataset does.
        ds, zval = make_instance(rng, 5)
        with pytest.raises(ParameterError, match="num_classes"):
            single(ds, cfg, LabeledPoint(zval.features, 2))

    def test_matches_aggregate_of_singles(self, rng):
        ds, _ = make_instance(rng, 9)
        dval, _ = make_instance(rng, 5)
        cfg = KnnConfig(2, EUCLID)
        all_res = knn_shapley_all(ds, cfg, dval)
        singles = [knn_shapley_single(ds, cfg, dval.point(i)) for i in range(dval.n)]
        agg = aggregate_over_validation(singles)
        assert np.max(np.abs(all_res.scores - agg.scores)) < 1e-12
        assert all_res.validation_size == dval.n

    def test_matches_oracle_summed(self, rng):
        ds, _ = make_instance(rng, 7)
        dval, _ = make_instance(rng, 3)
        for k in (1, 2, 3):
            cfg = KnnConfig(k, EUCLID)
            all_res = knn_shapley_all(ds, cfg, dval)
            total = sum(shapley_oracle(ds, cfg, dval.point(i)).scores for i in range(dval.n))
            assert np.max(np.abs(all_res.scores - total)) < 1e-9

    def test_empty_validation_rejected(self, rng):
        ds, _ = make_instance(rng, 5)
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ParameterError):
            knn_shapley_all(ds, KnnConfig(1, EUCLID), empty)

    def test_threads_match_sequential(self):
        ds = generate_gaussian_synthetic(300, 4, seed=3)
        dval = generate_gaussian_synthetic(40, 4, seed=4)
        cfg = KnnConfig(5, NEGCOS)
        seq = knn_shapley_all(ds, cfg, dval, threads=1)
        par = knn_shapley_all(ds, cfg, dval, threads=4)
        assert np.array_equal(seq.scores, par.scores)


class TestPermutationInvariance:
    def test_owner_keyed_scores_stable_under_shuffle(self, rng):
        ds, zval = make_instance(rng, 12)
        cfg = KnnConfig(3, EUCLID)
        base = knn_shapley_single(ds, cfg, zval).scores
        perm = rng.permutation(12)
        shuffled = Dataset(ds.features[perm], ds.labels[perm], 2)
        res = knn_shapley_single(shuffled, cfg, zval).scores
        # scores keyed by owner: res[i] belongs to original index perm[i]
        assert np.max(np.abs(res - base[perm])) < 1e-12

    @pytest.mark.parametrize("metric", [EUCLID, NEGCOS])
    def test_validation_order_moves_scores_only_by_rounding(self, rng, metric):
        # A permutation reorders the sum over validation rows, so scores may
        # move by its rounding. Distance bits may also depend on a row's place
        # in a BLAS block; the drawn data keeps every distance clear of tau
        # and of its row neighbours, so no flag or order can flip.
        ds = generate_gaussian_synthetic(300, 4, seed=21)
        dval = generate_gaussian_synthetic(70, 4, seed=22)
        perm = rng.permutation(dval.n)
        shuffled = dval.subset(perm)
        norms = training_norms(metric, ds.features)
        dist = np.sort(distance_matrix(metric, ds.features, dval.features, norms))
        assert np.diff(dist, axis=1).min() > 1e-9
        flat = np.sort(dist, axis=None)
        k = flat.size // 3
        tau = float((flat[k] + flat[k + 1]) / 2)
        assert np.abs(dist - tau).min() > 1e-9
        pairs = [(TknnConfig(tau, metric), tknn_shapley_all)] + [
            (KnnConfig(4, metric, variant), knn_shapley_all) for variant in ("refined", "old")
        ]
        for cfg, value_all in pairs:
            base = value_all(ds, cfg, dval).scores
            moved = value_all(ds, cfg, shuffled).scores
            assert np.allclose(moved, base, rtol=0, atol=1e-12)


def tied_instance(rng, n_base=40, copies=(2, 3, 5), d=3, c=3, half=9):
    """Training rows with exact copies that carry different labels, plus a
    validation set of ``2 * half`` rows: copies of training rows (Euclidean
    distance exactly 0.0 to each copy) and fresh points."""
    base = rng.standard_normal((n_base, d))
    rows = [base]
    for i, m in enumerate(copies):
        rows.append(np.repeat(base[i : i + 1], m, axis=0))  # runs of m + 1 equal rows
    feats = np.vstack(rows)[rng.permutation(n_base + sum(copies))]
    labels = rng.integers(0, c, feats.shape[0])
    ds = Dataset(feats, labels, c)
    val_feats = np.vstack([feats[rng.integers(0, ds.n, half)], rng.standard_normal((half, d))])
    dval = Dataset(val_feats, rng.integers(0, c, val_feats.shape[0]), c)
    return ds, dval


def stable_reference(ds, cfg, dval, c):
    """knn_shapley_all rebuilt on the stable sort: distances chunk by chunk,
    each row's scores added to the total in validation order."""
    norms = training_norms(cfg.metric, ds.features)
    total = np.zeros(ds.n)
    for lo, hi in validation_chunks(dval.n, ds.n):
        dist = distance_matrix(cfg.metric, ds.features, dval.features[lo:hi], norms)
        order = np.argsort(dist, axis=1, kind="stable")
        match = ds.labels[order] == dval.labels[lo:hi, None]
        if cfg.variant == "refined":
            sorted_scores = _refined_sorted_batch(match, cfg.k, c)
        else:
            sorted_scores = _old_sorted_batch(match, cfg.k)
        for row in range(hi - lo):
            total[order[row]] += sorted_scores[row]  # order[row] is a permutation
    return total


class TestTieOrder:
    def test_matches_stable_argsort(self, rng):
        for _ in range(300):
            v, n = (int(x) for x in rng.integers(1, 50, size=2))
            dist = rng.integers(0, int(rng.integers(1, 8)), size=(v, n)).astype(float)
            for value, share in ((np.nan, 0.2), (-0.0, 0.3), (np.inf, 0.2)):
                if rng.random() < 0.3:
                    dist[rng.random((v, n)) < share] = value
            assert np.array_equal(
                _index_ordered_argsort(dist), np.argsort(dist, axis=1, kind="stable")
            )

    @pytest.mark.parametrize("metric", [EUCLID, NEGCOS])
    def test_forced_ties_across_chunks_match_stable_sort(self, rng, metric, monkeypatch):
        ds, dval = tied_instance(rng)
        monkeypatch.setattr(dataset_module, "_SCORE_CHUNK_ELEMS", 4 * ds.n)
        chunks = validation_chunks(dval.n, ds.n)
        assert len(chunks) > 3
        norms = training_norms(metric, ds.features)
        tied_runs = 0
        for lo, hi in chunks:
            dist = distance_matrix(metric, ds.features, dval.features[lo:hi], norms)
            stable = np.argsort(dist, axis=1, kind="stable")
            assert np.array_equal(_index_ordered_argsort(dist), stable)
            ranked = np.take_along_axis(dist, stable, axis=1)
            tied_runs += int(np.sum(ranked[:, 2:] == ranked[:, :-2]))  # runs of 3 or more
        assert tied_runs > 0
        if metric is EUCLID:
            own = distance_matrix(metric, ds.features, dval.features[:9])
            assert np.all(np.sum(own == 0.0, axis=1) >= 1)
        for variant in ("refined", "old"):
            cfg = KnnConfig(3, metric, variant)
            expected = stable_reference(ds, cfg, dval, 3)
            for threads in (1, 2):
                got = knn_shapley_all(ds, cfg, dval, threads=threads).scores
                assert got.tobytes() == expected.tobytes()


class TestInvariance:
    @pytest.mark.parametrize("metric", [EUCLID, NEGCOS])
    def test_same_label_duplicates_score_identically(self, rng, metric):
        base = rng.standard_normal((30, 4))
        labels = rng.integers(0, 2, 30)
        src = np.array([0, 0, 5, 7, 7, 7])
        ds = Dataset(np.vstack([base, base[src]]), np.concatenate([labels, labels[src]]), 2)
        dval = generate_gaussian_synthetic(12, 4, seed=5)
        for variant in ("refined", "old"):
            scores = knn_shapley_all(ds, KnnConfig(4, metric, variant), dval).scores
            for j, i in enumerate(src):
                assert scores[30 + j].tobytes() == scores[i].tobytes()

    def test_chunk_rows_equal_single_row_calls(self, rng):
        ds, dval = tied_instance(rng)
        for variant in ("refined", "old"):
            cfg = KnnConfig(3, EUCLID, variant)
            chunk = knn_score_matrix(ds, cfg, dval.features, dval.labels)
            for v in range(dval.n):
                row = knn_score_matrix(ds, cfg, dval.features[v : v + 1], dval.labels[v : v + 1])
                assert row[0].tobytes() == chunk[v].tobytes()


# One-row groups, ragged groups (18 = 6 * 3 = 2 * 7 + 4, 24 = 8 * 3 = 3 * 7 + 3)
# and one group.
CHUNK_ROWS = [1, 3, 7, None]

# The default tied instance, and two of N = 1200, d = 10: with 24 validation
# rows, whose one-group cosine product spans two column blocks (a 7-row
# group's product is one block), and with 200, whose one-group product is
# also split into row blocks of 96.
TIED_SHAPES = [{}, {"n_base": 1190, "d": 10, "half": 12}, {"n_base": 1190, "d": 10, "half": 100}]


class TestChunkInvariance:
    @pytest.mark.parametrize("metric", [EUCLID, NEGCOS])
    @pytest.mark.parametrize("variant", ["refined", "old"])
    def test_scores_do_not_depend_on_chunk_height_or_threads(
        self, rng, monkeypatch, metric, variant
    ):
        # Every column is ((0 + s_0) + s_1) + ... in validation order. Chunk
        # sums added to the total would show in the bits from 3-row groups on.
        for shape in TIED_SHAPES:
            ds, dval = tied_instance(rng, **shape)
            if shape:
                assert dataset_module._gemm_block(dval.n, ds.n, ds.dimension)[1] < ds.n
            cfg = KnnConfig(3, metric, variant)
            reference = None
            for rows in CHUNK_ROWS:
                set_chunk_rows(monkeypatch, ds, rows)
                expected = stable_reference(ds, cfg, dval, 3)
                reference = expected if reference is None else reference
                assert expected.tobytes() == reference.tobytes(), (ds.n, rows)
                for threads in (1, 2, 3):
                    got = knn_shapley_all(ds, cfg, dval, threads=threads).scores
                    assert got.tobytes() == expected.tobytes(), (ds.n, rows, threads)


def test_peak_memory_does_not_grow_with_the_validation_set():
    # One V x N float64 matrix at N = 2e5, V = 64 is 102.4 MB. A row group
    # has _SCORE_CHUNK_ELEMS // N = 5 rows, and its kernel holds a few (5, N)
    # 8-byte arrays at once (8 MB each), whatever V; the total and the
    # training norms are (N,) vectors. Half the matrix bounds that with room
    # to spare; groups of 20 rows (a 2**22 budget) do not fit.
    ds = generate_gaussian_synthetic(200_000, 10, seed=1)
    dval = generate_gaussian_synthetic(64, 10, seed=2)
    matrix_bytes = dval.n * ds.n * 8
    tracemalloc.start()
    try:
        knn_shapley_all(ds, KnnConfig(5, NEGCOS), dval, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 2, f"peak {peak / 1e6:.1f} MB"


def test_euclidean_peak_memory_does_not_grow_with_the_validation_set():
    # The Euclidean twin of the test above. Its distances take a (rows, N, d)
    # difference tensor, held to the same _SCORE_CHUNK_ELEMS budget as the
    # row groups: at N * d = 2e6 that is one row at a time (16 MB), on top of
    # the group's (5, N) work arrays. A tensor of all 5 rows of a group
    # (80 MB) does not fit under half of the 102.4 MB matrix.
    ds = generate_gaussian_synthetic(200_000, 10, seed=1)
    dval = generate_gaussian_synthetic(64, 10, seed=2)
    matrix_bytes = dval.n * ds.n * 8
    tracemalloc.start()
    try:
        knn_shapley_all(ds, KnnConfig(5, EUCLID), dval, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 2, f"peak {peak / 1e6:.1f} MB"
