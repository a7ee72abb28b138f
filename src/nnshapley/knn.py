"""Exact KNN-Shapley via the sorted recursion, refined and older variants.

Both recursions run in O(N) after one sort per validation point. The refined
variant scores the soft-label utility that normalizes by min(K, |S|); the
older variant normalizes by K always, which is what makes its global
sensitivity tractable for the DP baseline. Validation points are processed in
batches that share one distance matrix.

Ties: training points at equal distance from a validation point are ordered
by training index, as a stable sort would order them and as the enumeration
oracle does. The order is the same whatever the validation chunking or
thread count.

The sort needs whole rows, so validation points are scored in row groups
whose height N sets (:func:`nnshapley.dataset.validation_chunks`); a group's
(rows, N) work arrays stay within a fixed budget, independent of V. Each
group's score matrix goes to :func:`nnshapley.dataset.sum_over_validation`,
which adds its rows to the total one after the other
(:func:`nnshapley.dataset.add_rows`): every score is ((0 + s_0) + s_1) + ...
in validation order, so scores depend neither on the group height nor on
the thread count.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, DistanceMetric, LabeledPoint, distance_matrix
from .dataset import sum_over_validation, validation_chunks
from .errors import ParameterError
from .valuation import KnnConfig, ValuationResult, describe


def _index_ordered_argsort(dist: np.ndarray) -> np.ndarray:
    """Row-wise ``np.argsort(dist, axis=1, kind="stable")``, computed faster.

    The default sort is several times faster than the stable one but leaves
    equal distances in no set order. Each run of equal sorted distances is
    then put back in training-index order by one sort of ``run * N + index``
    keys over the tied positions only. NaNs, which every sort kind puts last,
    count as equal to each other.
    """
    order = np.argsort(dist, axis=1)
    v, n = dist.shape
    flat = order.reshape(-1)
    starts = np.arange(0, v * n, n)[:, None]  # flat position of each row's start
    order += starts  # flat positions for one take, then indices again
    ranked = dist.take(flat)
    order -= starts
    # after[p]: entry p equals the entry before it in its row. The spare entry
    # at the end lets after[:-1] | after[1:] mark both ends of each equal pair.
    after = np.empty(v * n + 1, dtype=bool)
    np.equal(ranked[1:], ranked[:-1], out=after[1:-1])
    if np.isnan(ranked[n - 1 :: n]).any():
        after[1:-1] |= np.isnan(ranked[1:]) & np.isnan(ranked[:-1])
    del ranked
    after[::n] = False  # each row's start, and the spare entry
    if not after.any():
        return order
    tied = np.flatnonzero(after[:-1] | after[1:])
    keys = np.cumsum(~after[tied]) * n  # runs numbered row by row, in order
    keys += flat[tied]
    keys.sort()
    flat[tied] = keys % n
    return order


def _suffix_scores(match: np.ndarray, step: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The sorted-order recursion shared by both variants.

    ``scores[:, j] = last + sum_{t >= j} step[t] * (match[:, t] - match[:, t + 1])``,
    with the sum accumulated from the far end. The label difference is -1, 0
    or 1, so each term is exactly ``-step[t]``, ``+0.0`` or ``step[t]``.
    """
    v, n = match.shape
    scores = np.empty((v, n))
    scores[:, -1] = last
    if n > 1:
        rest = scores[:, -2::-1]  # columns n-2, ..., 0
        diff = match[:, :-1].view(np.int8) - match[:, 1:].view(np.int8)
        np.multiply(diff[:, ::-1], step[::-1], out=rest)
        np.cumsum(rest, axis=1, out=rest)
        rest += last[:, None]
    return scores


def _refined_sorted_batch(match: np.ndarray, k: int, num_classes: int) -> np.ndarray:
    """Scores in sorted (closest-first) order, vectorized over rows.

    The difference step uses the harmonic sum up to min(K, N-1) with the
    rank-dependent correction applied only when N > K; together these
    reproduce the enumeration oracle for every N, including N <= K.
    """
    n = match.shape[1]
    hit = match[:, -1].astype(np.float64)
    inv_c = 1.0 / num_classes
    if n == 1:
        return (hit - inv_c)[:, None]
    s2 = float(np.sum(1.0 / np.arange(2, min(k, n) + 1)))  # sum_{j=1}^{min(K,N)-1} 1/(j+1)
    mean = match[:, :-1].sum(axis=1) / (n - 1)
    phi_last = (hit - mean) * s2 / n + (hit - inv_c) / n
    i = np.arange(1, n, dtype=np.float64)
    bracket = np.full(n - 1, float(np.sum(1.0 / np.arange(1, min(k, n - 1) + 1))))
    if n > k:
        bracket = bracket + (np.minimum(i, k) * (n - 1) / i - k) / k
    return _suffix_scores(match, (1.0 / (n - 1)) * bracket, phi_last)


def _old_sorted_batch(match: np.ndarray, k: int) -> np.ndarray:
    """Sorted-order scores for the older recursion (utility divides by K)."""
    n = match.shape[1]
    i = np.arange(1, n, dtype=np.float64)
    step = (1.0 / k) * (np.minimum(k, i) / i)
    return _suffix_scores(match, step, match[:, -1] / max(k, n))


def knn_sorted_match(
    ds: Dataset,
    metric: DistanceMetric,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    train_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each validation row's training order and label matches in that order.

    ``order[v]`` lists training indices closest first, ties by index;
    ``match[v, r]`` is whether the rank-r point carries row v's label.
    ``train_norms`` are the training norms from :func:`training_norms`, which
    a caller looping over validation chunks computes once.
    """
    if ds.n == 0:
        raise ParameterError("KNN-Shapley is undefined on an empty dataset")
    order = _index_ordered_argsort(
        distance_matrix(metric, ds.features, val_features, train_norms)
    )
    return order, ds.labels[order] == np.asarray(val_labels)[:, None]


def knn_score_matrix(
    ds: Dataset,
    cfg: KnnConfig,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    train_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Score matrix (one row per validation point), original index order."""
    order, match = knn_sorted_match(ds, cfg.metric, val_features, val_labels, train_norms)
    if cfg.variant == "refined":
        sorted_scores = _refined_sorted_batch(match, cfg.k, ds.num_classes)
    else:
        sorted_scores = _old_sorted_batch(match, cfg.k)
    scores = np.empty_like(sorted_scores)
    np.put_along_axis(scores, order, sorted_scores, axis=1)
    return scores


def knn_shapley_single(
    ds: Dataset,
    cfg: KnnConfig,
    zval: LabeledPoint,
) -> ValuationResult:
    """Exact KNN-Shapley for a single validation point: the release on it alone."""
    dval = Dataset(zval.features[None, :], [zval.label], ds.num_classes)
    return knn_shapley_all(ds, cfg, dval)


def knn_shapley_all(
    ds: Dataset,
    cfg: KnnConfig,
    dval: Dataset,
    threads: int = 1,
) -> ValuationResult:
    """Exact KNN-Shapley summed over a validation set (linearity)."""

    def scores(lo: int, hi: int, norms: np.ndarray | None) -> np.ndarray:
        return knn_score_matrix(ds, cfg, dval.features[lo:hi], dval.labels[lo:hi], norms)

    chunks = validation_chunks(dval.n, ds.n)
    total = sum_over_validation(ds, dval, cfg.metric, chunks, scores, threads=threads)
    name = "knn-shapley" if cfg.variant == "refined" else "knn-shapley-old"
    return ValuationResult(total, describe(name, ds, cfg), validation_size=dval.n)
