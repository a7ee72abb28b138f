"""Shared helpers: random instance generation for oracle-equivalence suites."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from nnshapley import dataset
from nnshapley.dataset import Dataset, DistanceMetric, distances_to
from nnshapley.dp import DpParams, dp_knn_shapley_all
from nnshapley.knn import KnnConfig, knn_shapley_all


def make_instance(
    rng: np.random.Generator,
    n: int,
    num_classes: int = 2,
    d: int = 3,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
):
    """A random labeled dataset plus one validation point."""
    feats = rng.standard_normal((n, d))
    labels = rng.integers(0, num_classes, n)
    ds = Dataset(feats, labels, num_classes)
    zval_feats = rng.standard_normal(d)
    zval_label = int(rng.integers(0, num_classes))
    from nnshapley.dataset import LabeledPoint

    return ds, LabeledPoint(zval_feats, zval_label)


def pick_tau(rng: np.random.Generator, ds: Dataset, zval, metric: DistanceMetric) -> float:
    """A threshold that lands a random fraction of points inside."""
    if ds.n == 0:
        return 0.0 if metric is DistanceMetric.NEGATIVE_COSINE else 1.0
    dist = distances_to(metric, ds.features, zval.features)
    lo, hi = float(dist.min()), float(dist.max())
    u = rng.random()
    tau = lo + u * (hi - lo) + rng.normal(0, 1e-3)
    if metric is DistanceMetric.NEGATIVE_COSINE:
        tau = float(np.clip(tau, -1.0, 1.0))
    return float(tau)


def set_chunk_rows(monkeypatch, ds: Dataset, rows: int | None) -> None:
    """Row groups of ``rows`` rows for the KNN scorers; None gives one group
    for up to ``_SCORE_CHUNK_MAX_ROWS`` validation rows."""
    budget = 1 << 40 if rows is None else rows * ds.n
    monkeypatch.setattr(dataset, "_SCORE_CHUNK_ELEMS", budget)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240801)


@pytest.fixture
def no_validation_chunks(monkeypatch) -> None:
    """Fail a test whose valuation uses the KNN scorers' N-dependent row groups.

    Every module that imported ``validation_chunks`` holds its own binding, so
    each one is patched; the fixture then checks that the KNN and DP-KNN
    releases, which do use those groups, now fail.
    """
    original = dataset.validation_chunks

    def chunks(*args):
        raise AssertionError("validation_chunks called")

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "validation_chunks", None)
        if name.split(".")[0] == "nnshapley" and bound is original:
            monkeypatch.setattr(module, "validation_chunks", chunks)
    ds = dataset.generate_gaussian_synthetic(6, 2, seed=0)
    cfg = KnnConfig(1)
    with pytest.raises(AssertionError, match="validation_chunks called"):
        knn_shapley_all(ds, cfg, ds)
    with pytest.raises(AssertionError, match="validation_chunks called"):
        dp_knn_shapley_all(ds, KnnConfig(1, variant="old"), ds, DpParams(delta=1e-4, sigma=1.0))
