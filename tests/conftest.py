"""Shared helpers: random instance generation for oracle-equivalence suites."""

from __future__ import annotations

import numpy as np
import pytest

from nnshapley import dataset
from nnshapley.dataset import Dataset, DistanceMetric, distances_to


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240801)


@pytest.fixture
def no_validation_chunks(monkeypatch) -> None:
    """Fail a test whose valuation falls back on the chunked validation driver."""

    def chunks(*args):
        raise AssertionError("validation_chunks called")

    monkeypatch.setattr(dataset, "validation_chunks", chunks)
