import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from nnshapley import tknn
from nnshapley.dataset import (
    Dataset,
    DistanceMetric,
    LabeledPoint,
    distance,
    distances_to,
    generate_gaussian_synthetic,
)
from nnshapley.dp import DpParams, dp_tknn_shapley_all
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
        assert tknn_shapley_single(ds, TknnConfig(1.0, EUCLID), zval, 2).scores.shape == (0,)

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

    @pytest.mark.parametrize("metric", [EUCLID, NEGCOS])
    def test_single_is_the_one_point_release(self, metric):
        # N = 4099 spans two column tiles and is not a multiple of 16. The
        # single-point entry is the release on a one-point validation set, and
        # each in-threshold entry is the closed form of the point's own
        # leave-one-out triple, bit for bit.
        ds = generate_gaussian_synthetic(4099, 5, seed=5)
        dval = generate_gaussian_synthetic(3, 5, seed=6)
        cfg = TknnConfig(-0.3 if metric is NEGCOS else 2.5, metric)
        for v, zval in enumerate(dval.points()):
            single = tknn_shapley_single(ds, cfg, zval, 2).scores
            release = tknn_shapley_all(ds, cfg, dval.subset([v]), 2).scores
            assert single.tobytes() == release.tobytes()
            full = counts_full(ds, cfg, zval)
            inside = distances_to(metric, ds.features, zval.features) <= cfg.tau
            flags = list(zip(inside.tolist(), (ds.labels == zval.label).tolist()))
            value = {
                (w, m): tknn_shapley_from_counts(counts_leave_one_out(full, w, m), m, w, 2)
                for w, m in set(flags)
            }
            assert single.tobytes() == np.array([value[f] for f in flags]).tobytes()

    def test_validation_set_linearity(self, rng):
        ds, _ = make_instance(rng, 9)
        dval, _ = make_instance(rng, 4)
        cfg = TknnConfig(1.2, EUCLID)
        total = tknn_shapley_all(ds, cfg, dval, 2)
        summed = sum(tknn_shapley_single(ds, cfg, dval.point(i), 2).scores for i in range(dval.n))
        assert np.max(np.abs(total.scores - summed)) < 1e-12

    def test_thread_count_does_not_change_scores(self, monkeypatch):
        set_geometry(monkeypatch, 16, 64)  # 7 tiles, so two workers split them
        ds = generate_gaussian_synthetic(400, 5, seed=3)
        dval = generate_gaussian_synthetic(80, 5, seed=4)
        cfg = TknnConfig(-0.2, NEGCOS)
        one = tknn_shapley_all(ds, cfg, dval, 2, threads=1).scores
        two = tknn_shapley_all(ds, cfg, dval, 2, threads=2).scores
        assert np.array_equal(one, two)


# (row group, column tile) pairs for the tiled pass: single rows, ragged last
# tiles, a one-column tile under 16-row groups (202 = 3 * 67 + 1; numpy would
# sum a single column of more than 8 rows pairwise), the default.
GEOMETRIES = [(1, 13), (3, 7), (16, 67), (8, 50), (32, 4096)]


def set_geometry(monkeypatch, rows, cols):
    monkeypatch.setattr(tknn, "_ROW_GROUP", rows)
    monkeypatch.setattr(tknn, "_COLUMN_TILE", cols)


def duplicated_instance(metric, n=200, d=5):
    """n + 2 training points with copies; 13 validation points repeated to 37
    rows, so copies sit in different row groups and at different rows of a group."""
    ds = generate_gaussian_synthetic(n, d, seed=21)
    ds = ds.subset(np.r_[np.arange(n), 3, 150])
    base = generate_gaussian_synthetic(13, d, seed=22)
    base = Dataset(base.features, np.arange(13) % 3, 3)
    order = np.r_[np.arange(13), np.arange(13)[::-1], [0, 5, 5, 12, 3, 3, 7, 0, 9, 1, 1]]
    tau = -0.2 if metric is NEGCOS else 2.8 * math.sqrt(d / 5)
    return ds, base, order, TknnConfig(tau, metric)


def single_rows(ds, cfg, dval):
    """Each validation point's score row, from the single-point entry."""
    return np.array([tknn_shapley_single(ds, cfg, z, 3).scores for z in dval.points()])


def row_ordered_sum(rows):
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total


@pytest.mark.parametrize("metric", [NEGCOS, EUCLID])
class TestTiledPass:
    def test_rows_are_summed_in_validation_order(self, monkeypatch, metric):
        ds, base, order, cfg = duplicated_instance(metric)
        dval = base.subset(order)
        expected = row_ordered_sum(single_rows(ds, cfg, dval))
        for rows, cols in GEOMETRIES:
            set_geometry(monkeypatch, rows, cols)
            assert np.array_equal(tknn_shapley_all(ds, cfg, dval, 3).scores, expected)

    def test_scores_do_not_depend_on_geometry_chunking_or_threads(
        self, monkeypatch, no_validation_chunks, metric
    ):
        # At N = 1200, d = 10 and the (32, 4096) geometry, a row group's
        # cosine product spans two blocks of the distance GEMM.
        for shape in ((200, 5), (1198, 10)):
            ds, base, order, cfg = duplicated_instance(metric, *shape)
            dval = base.subset(order)
            reference = tknn_shapley_all(ds, cfg, dval, 3).scores
            for rows, cols in GEOMETRIES:
                set_geometry(monkeypatch, rows, cols)
                for threads in (1, 2, 3):
                    scores = tknn_shapley_all(ds, cfg, dval, 3, threads).scores
                    assert np.array_equal(scores, reference), (shape, rows, cols, threads)

    def test_duplicate_validation_rows_contribute_identically(self, monkeypatch, metric):
        # Every copy of a validation point adds exactly the point's own score row.
        ds, base, order, cfg = duplicated_instance(metric)
        expected = row_ordered_sum(single_rows(ds, cfg, base)[order])
        for rows, cols in GEOMETRIES:
            set_geometry(monkeypatch, rows, cols)
            for threads in (1, 2):
                scores = tknn_shapley_all(ds, cfg, base.subset(order), 3, threads).scores
                assert np.array_equal(scores, expected), (rows, cols, threads)


@pytest.fixture(scope="module")
def large_instance():
    ds = generate_gaussian_synthetic(200_000, 10, seed=1)
    return ds, generate_gaussian_synthetic(64, 10, seed=2)


@pytest.mark.parametrize("private", [False, True])
def test_peak_memory_stays_far_below_one_score_matrix(large_instance, private):
    # One V x N float64 matrix at N = 2e5, V = 64 is 102.4 MB. The tiled pass
    # holds a 32 x N uint8 flag code (6.4 MB), a few (N,) float64 vectors
    # (1.6 MB each), (32, 4096) tile temporaries (1 MiB each) and, for q < 1,
    # one row's Poisson draws (1.6 MB); the training norms are computed over
    # blocks of rows, with 1 MiB temporaries. A quarter of the matrix bounds all
    # of that with room to spare; a pass holding (V, N) float64 work arrays
    # for more than a quarter of the validation rows at once does not fit.
    ds, dval = large_instance
    cfg = TknnConfig(-0.5, NEGCOS)
    matrix_bytes = dval.n * ds.n * 8
    tracemalloc.start()
    try:
        if private:
            dp_tknn_shapley_all(ds, cfg, dval, 2, DpParams(delta=1e-5, sigma=1.0, q=0.5, seed=3))
        else:
            tknn_shapley_all(ds, cfg, dval, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 4, f"peak {peak / 1e6:.1f} MB"


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

    @pytest.mark.parametrize("bad", [(3, 0), (3, 5), (-1, 1), (40, 42)])
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

    def test_within_one_ulp_of_exact_harmonic(self):
        # Every table entry (n < 32) and the series up to n = 3000 against the
        # exactly rounded H_n - 1.
        n = np.arange(1, 3001)
        harmonic = itertools.accumulate(Fraction(1, k) for k in n.tolist())
        exact = np.array([float(h - 1) for h in harmonic])
        values = a2_term(n + 7, n)
        ulps = np.abs(values.view(np.int64) - exact.view(np.int64))
        assert ulps.max() <= 1
        assert np.array_equal(values[:31], exact[:31])

    def test_series_against_a_40_digit_sum(self):
        # The cut-off (31 is the last table entry) and about 50 n up to 1e6,
        # against H_n summed in 40-digit decimal arithmetic.
        rng = np.random.default_rng(3)
        wanted = {31, 32, 33, 10**6, *rng.integers(34, 10**6, 47).tolist()}
        reference = {}
        with localcontext() as ctx:
            ctx.prec = 40
            h = Decimal(0)
            for k in range(1, max(wanted) + 1):
                h += Decimal(1) / k
                if k in wanted:
                    reference[k] = float(h - 1)
        n = np.array(sorted(reference))
        exact = np.array([reference[k] for k in n.tolist()])
        ulps = np.abs(a2_term(n, n).view(np.int64) - exact.view(np.int64))
        assert ulps.max() <= 1

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


def exact_harmonic_minus_one(n):
    """H_n - 1, exactly rounded from the rational sum."""
    return float(sum(Fraction(1, j) for j in range(1, n + 1)) - 1)


def old_table_entry(triple, nb, m, num_classes):
    """Leave-one-out decrement, re-clamp and closed form, as scalar code."""
    c, c_x, c_zplus = old_clamp(triple[0] - 1, triple[1] - nb, triple[2] - (nb if m else 0))
    a2 = exact_harmonic_minus_one(c_x)
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

    @pytest.mark.parametrize("metric", [NEGCOS, EUCLID])
    def test_nan_tau_rejected_for_every_metric(self, metric):
        with pytest.raises(ParameterError, match="NaN"):
            TknnConfig(math.nan, metric)

    def test_infinite_tau_takes_every_point_or_none(self, rng):
        ds = Dataset(rng.standard_normal((9, 3)), np.arange(9) % 2, 2)
        dval = Dataset(rng.standard_normal((4, 3)), np.arange(4) % 2, 2)

        def scores(tau):
            return tknn_shapley_all(ds, TknnConfig(tau, EUCLID), dval, 2).scores

        assert np.array_equal(scores(math.inf), scores(1e300))
        assert np.array_equal(scores(-math.inf), np.zeros(9))
