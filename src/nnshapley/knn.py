"""Exact KNN-Shapley via the sorted recursion, refined and older variants.

Both recursions run in O(N) after one sort per validation point. The refined
variant scores the soft-label utility that normalizes by min(K, |S|); the
older variant normalizes by K always, which is what makes its global
sensitivity tractable for the DP baseline. Validation points are processed in
batches that share one distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DistanceMetric, LabeledPoint, distance_matrix, sum_over_validation
from .errors import ParameterError
from .valuation import MethodDescriptor, ValuationResult


@dataclass(frozen=True)
class KnnConfig:
    k: int
    metric: DistanceMetric = DistanceMetric.NEGATIVE_COSINE
    variant: str = "refined"  # "refined" | "old"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ParameterError("K must be at least 1")
        if self.variant not in ("refined", "old"):
            raise ParameterError(f"unknown KNN-Shapley variant: {self.variant!r}")


def _refined_sorted_batch(match: np.ndarray, k: int, num_classes: int) -> np.ndarray:
    """Scores in sorted (closest-first) order, vectorized over rows.

    The difference step uses the harmonic sum up to min(K, N-1) with the
    rank-dependent correction applied only when N > K; together these
    reproduce the enumeration oracle for every N, including N <= K.
    """
    v, n = match.shape
    m = match.astype(np.float64)
    inv_c = 1.0 / num_classes
    if n == 1:
        return m - inv_c
    s2 = float(np.sum(1.0 / np.arange(2, min(k, n) + 1)))  # sum_{j=1}^{min(K,N)-1} 1/(j+1)
    phi_last = (m[:, -1] - m[:, :-1].mean(axis=1)) * s2 / n + (m[:, -1] - inv_c) / n
    i = np.arange(1, n, dtype=np.float64)
    bracket = np.full(n - 1, float(np.sum(1.0 / np.arange(1, min(k, n - 1) + 1))))
    if n > k:
        bracket = bracket + (np.minimum(i, k) * (n - 1) / i - k) / k
    diffs = (m[:, :-1] - m[:, 1:]) / (n - 1) * bracket[None, :]
    scores = np.empty((v, n))
    scores[:, -1] = phi_last
    scores[:, :-1] = phi_last[:, None] + np.cumsum(diffs[:, ::-1], axis=1)[:, ::-1]
    return scores


def _old_sorted_batch(match: np.ndarray, k: int) -> np.ndarray:
    """Sorted-order scores for the older recursion (utility divides by K)."""
    v, n = match.shape
    m = match.astype(np.float64)
    phi_last = m[:, -1] / max(k, n)
    if n == 1:
        return phi_last[:, None]
    i = np.arange(1, n, dtype=np.float64)
    diffs = (m[:, :-1] - m[:, 1:]) / k * (np.minimum(k, i) / i)[None, :]
    scores = np.empty((v, n))
    scores[:, -1] = phi_last
    scores[:, :-1] = phi_last[:, None] + np.cumsum(diffs[:, ::-1], axis=1)[:, ::-1]
    return scores


def knn_score_matrix(
    ds: Dataset,
    cfg: KnnConfig,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    num_classes: int,
    train_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Score matrix (one row per validation point), original index order.

    ``train_norms`` are the training norms from :func:`training_norms`, which
    a caller looping over validation chunks computes once.
    """
    if ds.n == 0:
        raise ParameterError("KNN-Shapley is undefined on an empty dataset")
    dist = distance_matrix(cfg.metric, ds.features, val_features, train_norms)
    order = np.argsort(dist, axis=1, kind="stable")
    match = ds.labels[order] == np.asarray(val_labels)[:, None]
    if cfg.variant == "refined":
        sorted_scores = _refined_sorted_batch(match, cfg.k, num_classes)
    else:
        sorted_scores = _old_sorted_batch(match, cfg.k)
    scores = np.empty_like(sorted_scores)
    np.put_along_axis(scores, order, sorted_scores, axis=1)
    return scores


def knn_shapley_scores(
    ds: Dataset,
    cfg: KnnConfig,
    zval: LabeledPoint,
    num_classes: int,
) -> np.ndarray:
    """Raw score vector (original index order) for one validation point."""
    return knn_score_matrix(
        ds, cfg, zval.features[None, :], np.array([zval.label]), num_classes
    )[0]


def _descriptor(cfg: KnnConfig, num_classes: int) -> MethodDescriptor:
    return MethodDescriptor(
        name="knn-shapley" if cfg.variant == "refined" else "knn-shapley-old",
        num_classes=num_classes,
        metric=cfg.metric.value,
        k=cfg.k,
        weight="shapley",
    )


def knn_shapley_single(
    ds: Dataset,
    cfg: KnnConfig,
    zval: LabeledPoint,
    num_classes: int,
) -> ValuationResult:
    """Exact KNN-Shapley for a single validation point."""
    scores = knn_shapley_scores(ds, cfg, zval, num_classes)
    return ValuationResult(scores, _descriptor(cfg, num_classes), validation_size=1)


def knn_shapley_all(
    ds: Dataset,
    cfg: KnnConfig,
    dval: Dataset,
    num_classes: int,
    threads: int = 1,
) -> ValuationResult:
    """Exact KNN-Shapley summed over a validation set (linearity)."""

    def chunk_sum(lo: int, hi: int, norms: np.ndarray | None) -> np.ndarray:
        return knn_score_matrix(
            ds, cfg, dval.features[lo:hi], dval.labels[lo:hi], num_classes, norms
        ).sum(axis=0)

    total = sum_over_validation(ds, dval, cfg.metric, chunk_sum, threads)
    return ValuationResult(total, _descriptor(cfg, num_classes), validation_size=dval.n)
