import csv
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from nnshapley import dataset as dataset_module
from nnshapley.dataset import (
    Dataset,
    DistanceMetric,
    LabeledPoint,
    add_feature_noise,
    add_rows,
    distance,
    distance_matrix,
    distances_to,
    flip_labels,
    generate_gaussian_synthetic,
    load_csv,
    sum_over_validation,
    training_norms,
)
from nnshapley.errors import DataError, DataWarning, ParameterError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_rows_two_classes(self, tmp_path):
        path = write(tmp_path, "a.csv", "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds = load_csv(path)
        assert ds.n == 3
        assert ds.num_classes == 2
        assert ds.dimension == 2

    def test_l2_normalization(self, tmp_path):
        path = write(tmp_path, "a.csv", "3,4,0\n0,1,1\n")
        ds = load_csv(path, l2_normalize=True)
        assert np.allclose(ds.features[0], [0.6, 0.8])

    def test_unused_class_convention(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,0\n2,2\n")
        with pytest.warns(DataWarning, match="makes 3 classes"):
            ds = load_csv(path)
        assert ds.num_classes == 3  # label 1 unused

    def test_stray_label_warns(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,0\n2,1\n3,1e12\n4,1\n")
        with pytest.warns(DataWarning, match=r"1000000000000.*999999999998 of them.*num_classes"):
            ds = load_csv(path)
        assert ds.num_classes == 10**12 + 1

    def test_no_warning_when_every_class_occurs_or_is_declared(self, tmp_path, recwarn):
        load_csv(write(tmp_path, "a.csv", "1,0\n2,2\n3,1\n"))
        load_csv(write(tmp_path, "b.csv", "1,0\n2,2\n"), num_classes=3)
        assert not [w for w in recwarn if issubclass(w.category, DataWarning)]

    def test_header_and_label_by_name(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,y,label\n1,2,0\n3,4,1\n")
        ds = load_csv(path, label_column="label")
        assert ds.n == 2
        assert list(ds.labels) == [0, 1]

    def test_missing_label_column_names_it(self, tmp_path):
        path = write(tmp_path, "a.csv", "x,y,target\n1,2,0\n")
        with pytest.raises(DataError, match="label"):
            load_csv(path, label_column="label")

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2,0\n1,1\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2,0\nx,4,1\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_zero_vector_under_normalization(self, tmp_path):
        path = write(tmp_path, "a.csv", "0,0,0\n1,2,1\n")
        with pytest.raises(DataError, match="normalize"):
            load_csv(path, l2_normalize=True)

    @pytest.mark.parametrize("count", [2.5, float("nan"), float("inf"), 1, -3])
    def test_bad_explicit_class_count_rejected_before_reading(self, tmp_path, count):
        # Not truncated, and checked before the file is opened: it need not exist.
        with pytest.raises(ParameterError, match="num_classes"):
            load_csv(tmp_path / "absent.csv", num_classes=count)

    def test_integral_float_class_count_accepted(self, tmp_path):
        ds = load_csv(write(tmp_path, "a.csv", "1,0\n2,1\n"), num_classes=3.0)
        assert ds.num_classes == 3 and type(ds.num_classes) is int

    def test_inferred_class_count_below_two_keeps_its_hint(self, tmp_path):
        with pytest.raises(DataError, match="pass num_classes explicitly"):
            load_csv(write(tmp_path, "a.csv", "1,0\n2,0\n"))

    def test_non_integer_label(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2,0.5\n")
        with pytest.raises(DataError, match="integer"):
            load_csv(path)

    def test_float_integral_label_accepted(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2,1.0\n3,4,0\n")
        assert list(load_csv(path).labels) == [1, 0]

    @pytest.mark.parametrize(
        "text, kwargs",
        [
            pytest.param("\n1,2,0\n\n   \n , ,\t\n3,4,1\n\n", {}, id="blank-rows-skipped"),
            pytest.param('"",""\n1,2,0\n" ",,\n3,4,1\n', {}, id="quoted-blank-rows-skipped"),
            pytest.param('"1","2","0"\n" 3 ",4,"1"\n', {}, id="quoted-cells"),
            pytest.param("1,2,0\r\n3,4,1\r\n", {}, id="crlf"),
            pytest.param("1,2,0\r3,4,1\r", {}, id="cr"),
            pytest.param(" 1 , 2 ,0\n3,\t4 , 1 \n", {}, id="spaces-around-numbers"),
            pytest.param(
                '"x","y, z","the label"\n1,2,0\n3,4,1\n',
                {"label_column": "the label"},
                id="quoted-header-label-by-name",
            ),
            pytest.param("0,1,2\n1.0,3,4e0\n", {"label_column": 0}, id="integer-valued-label"),
        ],
    )
    def test_accepted_grammar(self, tmp_path, text, kwargs):
        ds = load_csv(write(tmp_path, "a.csv", text), **kwargs)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "text, kwargs, message",
        [
            pytest.param(
                "1,2,0\n3,4,1 # x\n", {}, "row 2: label '1 # x' does not parse", id="hash-in-row"
            ),
            pytest.param(
                "1,2,0\n#3,4,1\n", {}, "row 2: non-numeric feature", id="hash-leading-row"
            ),
            pytest.param(
                "x,y,label\n\n1,2,0\n \n3,4\n", {}, "ragged row 2: expected 3 fields, got 2",
                id="ragged",
            ),
            pytest.param(
                "x,y,label\n1,2,0\n,,\n\nabc,4,1\n", {}, "row 2: non-numeric feature",
                id="non-numeric-feature",
            ),
            pytest.param(
                "x,y,label\n1,2,0\n\n3,4,0.5\n", {}, "row 2: label '0.5' does not parse",
                id="fractional-label",
            ),
            pytest.param(
                "\n1,2,0\n \n3,4, abc\n", {}, "row 2: label ' abc' does not parse",
                id="text-label",
            ),
            pytest.param(
                "1,2,0\n3,4,inf\n", {}, "row 2: label 'inf' does not parse", id="inf-label"
            ),
            pytest.param(
                "1,2,0\n3,,1\n5,6,1.5\n", {}, "row 2: non-numeric feature", id="first-bad-row-wins"
            ),
            pytest.param('1,"2\n",0\n', {}, "ragged row 2", id="quote-across-lines"),
            pytest.param("1_000,2,0\n3,4,1\n", {}, "1_000", id="digit-group-underscore"),
            pytest.param("1,\u0663,0\n3,4,1\n", {}, "\u0663", id="non-ascii-digit"),
            pytest.param("1,2,1e20\n3,4,0\n", {}, r"below 2\*\*63", id="label-beyond-int64"),
            pytest.param(
                "a,b,c,label\n1,2\n", {"label_column": "label"},
                "label column 'label' out of range for 2 columns", id="named-label-past-row-end",
            ),
        ],
    )
    def test_rejected_rows_keep_their_numbers(self, tmp_path, text, kwargs, message):
        path = write(tmp_path, "a.csv", text)
        with pytest.raises(DataError, match=message):
            load_csv(path, **kwargs)

    def test_one_table_parse_and_csv_reader_on_the_first_line_only(self, tmp_path, monkeypatch):
        calls = []

        def counted(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted("loadtxt", np.loadtxt))
        monkeypatch.setattr(csv, "reader", counted("reader", csv.reader))
        path = write(tmp_path, "a.csv", "x,y,label\n" + "1,2,0\n\n3,4,1\n" * 50)
        assert load_csv(path).n == 100
        assert calls == ["reader", "loadtxt"]  # the header decision, then the table

    def test_values_parse_bitwise_like_float(self, tmp_path, rng):
        values = rng.standard_normal(600) * 10.0 ** rng.uniform(-320, 300, 600)
        cells = ["%.17g" % x for x in values] + [
            "-0.0", "5e-324", "-1e-310", "1e-400", "2.4703282292062328e-324",
            "1.00000000000000011102230246251565404236316680908203125",
            "1.7976931348623158e308", "9007199254740993", "0.1e1",
        ]
        rows = [cells[i:i + 3] for i in range(0, len(cells), 3)]
        text = "".join(",".join(row) + f",{i % 2}\n" for i, row in enumerate(rows))
        expected = np.array([[float(cell) for cell in row] for row in rows])
        assert load_csv(write(tmp_path, "a.csv", text)).features.tobytes() == expected.tobytes()

    def test_rows_are_parsed_as_the_file_is_read(self, tmp_path):
        # Neither the file's text nor a list of its lines is held: the peak is
        # the table, its feature copy and the dataset's own copy, about 2.3x
        # the table's bytes. Text plus lines take about 5x more here.
        rng = np.random.default_rng(3)
        table = np.column_stack([rng.standard_normal((100_000, 10)), rng.integers(0, 2, 100_000)])
        path = tmp_path / "a.csv"
        np.savetxt(path, table, delimiter=",", fmt="%.6f")
        tracemalloc.start()
        try:
            ds = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n == table.shape[0]
        assert peak < 3 * table.nbytes, f"peak {peak / 1e6:.1f} MB"


class TestDistance:
    def test_euclidean_identity(self):
        a = np.array([1.0, -2.0, 3.0])
        assert distance(DistanceMetric.EUCLIDEAN, a, a) == 0.0

    def test_negative_cosine_parallel(self):
        a = np.array([2.0, 1.0])
        assert distance(DistanceMetric.NEGATIVE_COSINE, a, a) == pytest.approx(-1.0)

    def test_negative_cosine_orthogonal(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 3.0])
        assert distance(DistanceMetric.NEGATIVE_COSINE, a, b) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            distance(DistanceMetric.EUCLIDEAN, np.zeros(2), np.zeros(3))

    def test_zero_vector_cosine(self):
        with pytest.raises(DataError):
            distance(DistanceMetric.NEGATIVE_COSINE, np.zeros(2), np.ones(2))

    def test_cosine_overflow_is_rejected(self):
        a = np.array([1e200, 1e200])
        b = np.array([1e200, 3e200])
        with pytest.raises(DataError, match="overflows"):
            distance(DistanceMetric.NEGATIVE_COSINE, a, b)

    def test_symmetry(self, rng):
        for _ in range(200):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            for metric in DistanceMetric:
                assert distance(metric, a, b) == pytest.approx(distance(metric, b, a), abs=1e-14)

    def test_negative_cosine_range(self, rng):
        a = rng.standard_normal((10_000, 5))
        b = rng.standard_normal(5)
        d = distances_to(DistanceMetric.NEGATIVE_COSINE, a, b)
        assert np.all(d >= -1.0 - 1e-12)
        assert np.all(d <= 1.0 + 1e-12)

    def test_matrix_matches_rowwise(self, rng):
        feats = rng.standard_normal((40, 4))
        vals = rng.standard_normal((7, 4))
        for metric in DistanceMetric:
            mat = distance_matrix(metric, feats, vals)
            for i in range(7):
                row = distances_to(metric, feats, vals[i])
                assert np.allclose(mat[i], row, atol=1e-12)

    def test_row_norms_in_blocks_equal_the_one_shot_norm(self, rng, monkeypatch):
        shapes = [(1, 1), (5, 1), (37, 3), (200, 10), (33, 40)]
        for block in (1, 7, 64, 1 << 17):
            monkeypatch.setattr(dataset_module, "_NORM_BLOCK_ELEMS", block)
            for n, d in shapes:
                # Row scales up to 1e160, so some squares overflow to inf.
                feats = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-150, 160, (n, 1))
                with np.errstate(over="ignore"):
                    expected = np.linalg.norm(feats, axis=1)
                norms = training_norms(DistanceMetric.NEGATIVE_COSINE, feats)
                assert norms.tobytes() == expected.tobytes(), (block, n, d)

    def test_euclidean_rows_do_not_depend_on_the_chunk_budget(self, rng, monkeypatch):
        # Each entry sums over its own (validation, training) pair alone, so a
        # row has the same bits whether its chunk holds one row or all of them.
        vals = rng.standard_normal((23, 6)) * 10.0 ** rng.integers(-5, 5, (23, 1))
        feats = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-5, 5, (40, 1))
        vals[4] = feats[7]  # an exact duplicate, at distance exactly zero
        expected = np.sqrt(((vals[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2))
        whole = distance_matrix(DistanceMetric.EUCLIDEAN, feats, vals)  # one chunk
        for rows in (1, 2, 5, 22):
            monkeypatch.setattr(dataset_module, "_SCORE_CHUNK_ELEMS", rows * feats.size)
            got = distance_matrix(DistanceMetric.EUCLIDEAN, feats, vals)
            assert got.tobytes() == whole.tobytes(), rows
        assert np.allclose(whole, expected, rtol=1e-12) and whole[4, 7] == 0.0

    @pytest.mark.parametrize("v", [1, 10, 32, 200])
    def test_cosine_products_stay_under_the_threading_cutoff(self, rng, monkeypatch, v):
        # OpenBLAS runs a GEMM of at most 4 * 65536 multiply-adds on the
        # calling thread; the blocks must tile the whole (V, N) product.
        matmul, sizes = np.matmul, []

        def spy(a, b, *args, **kwargs):
            sizes.append(a.shape[0] * b.shape[1] * a.shape[1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        for n in (1, 1200, 20011, 100_000):
            feats = rng.standard_normal((n, 10))
            vals = rng.standard_normal((v, 10))
            sizes.clear()
            got = distance_matrix(DistanceMetric.NEGATIVE_COSINE, feats, vals)
            assert max(sizes) <= 1 << 18 and sum(sizes) == v * n * 10, (n, max(sizes))
            expected = -(vals @ feats.T) / np.outer(
                np.linalg.norm(vals, axis=1), np.linalg.norm(feats, axis=1)
            )
            assert np.allclose(got, expected, rtol=0, atol=1e-15)

    def test_cosine_product_above_the_dimension_cutoff_is_one_product(self, rng, monkeypatch):
        # From d = 33 on, OpenBLAS's threads do real work: one product, as
        # before the blocks.
        matmul, shapes = np.matmul, []

        def spy(a, b, *args, **kwargs):
            shapes.append((a.shape, b.shape))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        for d, blocks in ((32, 7), (33, 1), (512, 1)):  # 816-column blocks at d = 32
            shapes.clear()
            distance_matrix(
                DistanceMetric.NEGATIVE_COSINE,
                rng.standard_normal((5000, d)),
                rng.standard_normal((10, d)),
            )
            assert len(shapes) == blocks, d

    @pytest.mark.parametrize(
        "v, n", [(200, 5000), (33, 20011), (7, 100_000), (200, 4096), (129, 4096)]
    )
    def test_cosine_blocks_equal_the_blocks_computed_one_at_a_time(self, rng, v, n):
        # Each block is written in place into the (V, N) output; a block alone
        # is one product, so the two must agree bit for bit. Where N is a
        # multiple of 16, so are all the splits and no column falls in an
        # edge panel: there the blocks also equal the one product, rows split
        # into 96-row blocks included.
        feats = rng.standard_normal((n, 10))
        vals = rng.standard_normal((v, 10))
        norms = training_norms(DistanceMetric.NEGATIVE_COSINE, feats)
        whole = distance_matrix(DistanceMetric.NEGATIVE_COSINE, feats, vals, norms)
        rows, cols = dataset_module._gemm_block(v, n, 10)
        assert rows * cols * 10 <= 1 << 18 and cols < n and cols % 16 == 0
        assert rows == v or rows % 16 == 0
        if n % 16 == 0:
            one = -(vals @ feats.T) / np.outer(np.linalg.norm(vals, axis=1), norms)
            assert whole.tobytes() == one.tobytes()
        for r0 in range(0, v, rows):
            for c0 in range(0, n, cols):
                block = distance_matrix(
                    DistanceMetric.NEGATIVE_COSINE,
                    feats[c0 : c0 + cols],
                    vals[r0 : r0 + rows],
                    norms[c0 : c0 + cols],
                )
                assert block.tobytes() == whole[r0 : r0 + rows, c0 : c0 + cols].tobytes()

    def test_duplicate_rows_get_identical_distances(self, rng):
        feats = rng.standard_normal((10, 4))
        feats[7] = feats[3]  # exact duplicate
        vals = rng.standard_normal((3, 4))
        for metric in DistanceMetric:
            mat = distance_matrix(metric, feats, vals)
            assert np.array_equal(mat[:, 3], mat[:, 7])


# Seven row groups of a 20-row validation set, as a caller hands them in.
GROUPS = [(0, 3), (3, 6), (6, 9), (9, 12), (12, 15), (15, 18), (18, 20)]


class TestSumOverValidation:
    @staticmethod
    def part(lo, hi, n):
        # Magnitudes over 16 decades, so the sum depends on the order of terms.
        rng = np.random.default_rng(lo * 1000 + hi)
        return rng.standard_normal((hi - lo, n)) * 10.0 ** rng.integers(-8, 8, (hi - lo, n))

    @pytest.fixture
    def data(self):
        return generate_gaussian_synthetic(30, 4, seed=1), generate_gaussian_synthetic(20, 4, seed=2)

    @pytest.mark.parametrize(
        "threads, groups",
        [
            pytest.param(1, GROUPS, id="1"),
            pytest.param(2, GROUPS, id="2"),
            pytest.param(3, GROUPS, id="3"),
            pytest.param(4, [(lo, lo + 1) for lo in range(20)], id="4-one-row-groups"),
        ],
    )
    def test_chunk_order_sum_at_any_thread_count(self, monkeypatch, data, threads, groups):
        ds, dval = data
        norms_once = training_norms(DistanceMetric.NEGATIVE_COSINE, ds.features)
        norm_calls = []

        def counted_norms(*args):
            norm_calls.append(args)
            return training_norms(*args)

        monkeypatch.setattr(dataset_module, "training_norms", counted_norms)
        seen = []

        def work(lo, hi, norms):
            assert np.array_equal(norms, norms_once)
            seen.append((lo, hi))
            return self.part(lo, hi, ds.n)

        metric = DistanceMetric.NEGATIVE_COSINE
        total = sum_over_validation(ds, dval, metric, groups, work, threads=threads)
        rows = np.concatenate([self.part(lo, hi, ds.n) for lo, hi in groups])
        expected, backwards = np.zeros(ds.n), np.zeros(ds.n)
        for row in rows:
            expected += row
        for row in rows[::-1]:
            backwards += row
        assert not np.array_equal(expected, backwards)  # the order shows in the bits
        assert np.array_equal(total, expected)
        assert sorted(seen) == groups
        assert len(norm_calls) == 1

    @pytest.mark.parametrize(
        "rows, cols", [(1, 1), (9, 1), (40, 1), (1, 5), (3, 2), (20, 7), (65, 4096), (11, 1000)]
    )
    def test_add_rows_adds_one_row_after_the_other(self, rows, cols):
        # A single column of more than 8 rows is where numpy's reduction
        # would sum pairwise; -0.0 entries would show a reduction that starts
        # from its identity instead of from the total.
        rng = np.random.default_rng(rows * 7919 + cols)
        matrix = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 8, (rows, cols))
        matrix[rng.random((rows, cols)) < 0.1] = -0.0
        total = rng.standard_normal(cols) * 10.0 ** rng.integers(-8, 8, cols)
        total[rng.random(cols) < 0.1] = 0.0
        expected = total.copy()
        for row in matrix:
            expected += row
        add_rows(total, matrix.copy())
        assert total.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_add_runs_on_the_calling_thread_in_group_order(self, data, threads):
        ds, dval = data
        caller = threading.get_ident()
        workers, added = set(), []

        def work(lo, hi, norms):
            workers.add(threading.get_ident())
            time.sleep(0.002 * (20 - lo))  # later groups finish first when threaded
            return lo, hi

        def add(total, part):
            assert threading.get_ident() == caller
            added.append(part)

        sum_over_validation(ds, dval, DistanceMetric.EUCLIDEAN, GROUPS, work, add, threads)
        assert added == GROUPS
        assert (workers != {caller}) == (threads > 1)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_at_most_threads_plus_one_results_wait_to_be_added(self, data, threads):
        # A slow add and an instant work: a driver that submitted every group
        # at once would hold all seven results before adding the second.
        ds, dval = data
        lock = threading.Lock()
        done, waiting = [], []

        def work(lo, hi, norms):
            with lock:
                done.append(lo)
            return lo

        def add(total, part):
            time.sleep(0.01)
            with lock:
                waiting.append(len(done) - len(waiting))

        sum_over_validation(ds, dval, DistanceMetric.EUCLIDEAN, GROUPS, work, add, threads)
        assert len(waiting) == len(GROUPS)
        assert max(waiting) <= threads + 1, waiting

    def test_empty_validation_set_rejected(self):
        ds = generate_gaussian_synthetic(10, 3, seed=1)

        def never(*args):
            raise AssertionError("no group of an empty validation set")

        with pytest.raises(ParameterError, match="nonempty"):
            sum_over_validation(ds, ds.subset([]), DistanceMetric.EUCLIDEAN, [(0, 0)], never, never)


class TestSynthetic:
    def test_seeded_determinism(self):
        a = generate_gaussian_synthetic(1000, 10, seed=5)
        b = generate_gaussian_synthetic(1000, 10, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_sign_rule(self):
        ds = generate_gaussian_synthetic(500, 4, seed=9)
        assert np.array_equal(ds.labels, (ds.features.sum(axis=1) > 0).astype(int))

    def test_class_balance(self):
        # Binomial(1000, 1/2) concentrates within +-50 of 500 (beyond 3 sigma).
        ds = generate_gaussian_synthetic(1000, 10, seed=3)
        ones = int(ds.labels.sum())
        assert 450 <= ones <= 550


class TestCorruption:
    def test_flip_count(self):
        ds = generate_gaussian_synthetic(2000, 5, seed=1)
        _, record = flip_labels(ds, 0.1, seed=2)
        assert len(record.corrupted_indices) == 200

    def test_flip_binary_complement(self):
        ds = generate_gaussian_synthetic(300, 4, seed=1)
        flipped, record = flip_labels(ds, 0.25, seed=2)
        idx = list(record.corrupted_indices)
        assert np.array_equal(flipped.labels[idx], 1 - ds.labels[idx])

    def test_flip_never_keeps_label(self, rng):
        feats = rng.standard_normal((200, 3))
        labels = rng.integers(0, 5, 200)
        ds = Dataset(feats, labels, 5)
        flipped, record = flip_labels(ds, 0.5, seed=7)
        idx = list(record.corrupted_indices)
        assert np.all(flipped.labels[idx] != ds.labels[idx])
        assert np.all(flipped.labels < 5)

    def test_flip_preserves_everything_else(self):
        ds = generate_gaussian_synthetic(100, 3, seed=1)
        flipped, record = flip_labels(ds, 0.1, seed=2)
        assert flipped.n == ds.n and flipped.num_classes == ds.num_classes
        assert np.array_equal(flipped.features, ds.features)
        untouched = np.setdiff1d(np.arange(ds.n), record.corrupted_indices)
        assert np.array_equal(flipped.labels[untouched], ds.labels[untouched])

    def test_noise_count_and_untouched_rows(self):
        ds = generate_gaussian_synthetic(2000, 5, seed=1)
        noised, record = add_feature_noise(ds, 0.1, seed=2)
        assert len(record.corrupted_indices) == 200
        untouched = np.setdiff1d(np.arange(ds.n), record.corrupted_indices)
        assert np.array_equal(noised.features[untouched], ds.features[untouched])
        assert np.array_equal(noised.labels, ds.labels)

    def test_noise_scale_per_dimension(self, rng):
        # Column 0 is constant 2 (scale 2), column 1 is all zeros (scale 0).
        feats = np.column_stack(
            [np.full(4000, 2.0), np.zeros(4000), rng.standard_normal(4000)]
        )
        ds = Dataset(feats, rng.integers(0, 2, 4000), 2)
        noised, record = add_feature_noise(ds, 0.5, seed=3)
        idx = list(record.corrupted_indices)
        deltas = noised.features[idx] - ds.features[idx]
        assert np.array_equal(deltas[:, 1], np.zeros(len(idx)))  # zero column untouched
        assert np.std(deltas[:, 0]) == pytest.approx(2.0, rel=0.1)

    def test_rate_out_of_range(self):
        ds = generate_gaussian_synthetic(10, 2, seed=1)
        for rate in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                flip_labels(ds, rate, seed=1)

    def test_seeded_reproducibility(self):
        ds = generate_gaussian_synthetic(500, 4, seed=1)
        a, ra = flip_labels(ds, 0.2, seed=11)
        b, rb = flip_labels(ds, 0.2, seed=11)
        assert np.array_equal(a.labels, b.labels)
        assert ra == rb

    def test_record_json(self):
        ds = generate_gaussian_synthetic(50, 2, seed=1)
        _, record = flip_labels(ds, 0.1, seed=2)
        import json

        payload = json.loads(record.to_json())
        assert payload["kind"] == "label-flip"
        assert sorted(payload["indices"]) == sorted(record.corrupted_indices)


class TestDataset:
    def test_invariants(self, rng):
        with pytest.raises(ParameterError):
            Dataset(rng.standard_normal((3, 2)), [0, 1, 2], 2)  # label 2 out of range
        with pytest.raises(ParameterError):
            Dataset(rng.standard_normal((3, 2)), [0, 1, 0], 1)  # fewer than 2 classes

    @pytest.mark.parametrize("count", [2.5, np.float64(3.5), np.nan, np.inf, "3", None])
    def test_non_integral_class_count_rejected(self, count):
        with pytest.raises(ParameterError, match="num_classes .* is not an integer"):
            Dataset(np.zeros((2, 1)), [0, 1], count)

    @pytest.mark.parametrize("count", [3, np.int64(3), 3.0, np.float64(3.0)])
    def test_integral_class_count_accepted(self, count):
        ds = Dataset(np.zeros((2, 1)), [0, 1], count)
        assert ds.num_classes == 3 and type(ds.num_classes) is int

    @pytest.mark.parametrize(
        "labels", [[0.0, 1.5, 0.0], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0], [-np.inf, 0, 1],
                   [0.0, 1e300, 1.0]],
    )
    def test_non_integral_labels_rejected_without_a_warning(self, rng, labels):
        # Not truncated to an integer, and no RuntimeWarning from casting NaN first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="labels must"):
                Dataset(rng.standard_normal((3, 2)), labels, 2)

    def test_integral_float_labels_accepted(self, rng):
        ds = Dataset(rng.standard_normal((3, 2)), [0.0, 1.0, 1.0], 2)
        assert ds.labels.dtype == np.int64 and list(ds.labels) == [0, 1, 1]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, rng, value):
        feats = rng.standard_normal((3, 2))
        feats[1, 0] = value
        with pytest.raises(ParameterError, match="finite"):
            Dataset(feats, [0, 1, 0], 2)
        with pytest.raises(ParameterError, match="finite"):
            LabeledPoint(feats[1], 0)

    @pytest.mark.parametrize("label", [2.7, np.float64(0.5), np.nan, np.inf, "1"])
    def test_labeled_point_rejects_non_integral_labels(self, label):
        with pytest.raises(ParameterError, match="not an integer"):
            LabeledPoint(np.zeros(2), label)

    @pytest.mark.parametrize("label", [1, np.int64(1), 1.0, np.float64(1.0), True])
    def test_labeled_point_accepts_integral_labels(self, label):
        point = LabeledPoint(np.zeros(2), label)
        assert point.label == 1 and type(point.label) is int

    def test_immutability(self):
        ds = generate_gaussian_synthetic(5, 2, seed=1)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_subset_tracks_owners(self):
        ds = generate_gaussian_synthetic(10, 2, seed=1)
        sub = ds.subset([2, 5, 7])
        assert list(sub.owners) == [2, 5, 7]
        subsub = sub.subset([0, 2])
        assert list(subsub.owners) == [2, 7]

    def test_with_point_appends(self):
        ds = generate_gaussian_synthetic(4, 3, seed=1)
        z = LabeledPoint(np.ones(3), 1)
        bigger = ds.with_point(z)
        assert bigger.n == 5
        assert bigger.point(4).label == 1
