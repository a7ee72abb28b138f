"""The enumeration oracle against an independent bit-loop reference.

``reference_utility`` and ``reference_subset_utilities`` score coalitions one
Python bitmask at a time, the way the oracle did before it evaluated one
vectorized utility over blocks of coalitions. Every comparison is byte for
byte (``tobytes``), over a seeded corpus that covers N from 0 to 12 with
exact duplicate points and distance ties, both metrics, the refined, older
and threshold utilities, K above N, and tau equal to one of the distances.
"""

import tracemalloc

import numpy as np
import pytest

from nnshapley.dataset import Dataset, DistanceMetric, LabeledPoint, distances_to
from nnshapley.valuation import (
    KnnConfig,
    TknnConfig,
    banzhaf_weight,
    enumerate_semivalue,
    semivalue_oracle,
    shapley_oracle,
    shapley_weight,
    subset_utilities,
    utility,
)

CORPUS_SIZE = 1040  # 80 instances at each N
MAX_N = 12


def reference_empty_value(cfg, ds):
    if isinstance(cfg, KnnConfig) and cfg.variant == "old":
        return 0.0
    return 1.0 / ds.num_classes


def reference_utility(cfg, subset, zval):
    n = subset.n
    if n == 0:
        return reference_empty_value(cfg, subset)
    dist = distances_to(cfg.metric, subset.features, zval.features)
    if isinstance(cfg, TknnConfig):
        within = dist <= cfg.tau
        count = int(within.sum())
        if count == 0:
            return 1.0 / subset.num_classes
        return float((subset.labels[within] == zval.label).sum()) / count
    order = np.argsort(dist, kind="stable")
    top = min(cfg.k, n)
    correct = int((subset.labels[order[:top]] == zval.label).sum())
    return correct / (top if cfg.variant == "refined" else cfg.k)


def reference_subset_utilities(ds, cfg, zval):
    n = ds.n
    values = np.empty(1 << n)
    values[0] = reference_empty_value(cfg, ds)
    if n == 0:
        return values
    dist = distances_to(cfg.metric, ds.features, zval.features)
    match = (ds.labels == zval.label).astype(np.int64)
    if isinstance(cfg, TknnConfig):
        within_bits = 0
        match_bits = 0
        for i in range(n):
            if dist[i] <= cfg.tau:
                within_bits |= 1 << i
                if match[i]:
                    match_bits |= 1 << i
        inv_c = 1.0 / ds.num_classes
        for mask in range(1, 1 << n):
            inside = (mask & within_bits).bit_count()
            values[mask] = (mask & match_bits).bit_count() / inside if inside else inv_c
        return values
    order = np.argsort(dist, kind="stable")
    order_bits = [(1 << int(i), int(match[i])) for i in order]
    k = cfg.k
    old = cfg.variant == "old"
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        top = k if k < size else size
        taken = 0
        correct = 0
        for bit, m in order_bits:
            if mask & bit:
                correct += m
                taken += 1
                if taken == top:
                    break
        values[mask] = correct / (k if old else top)
    return values


def corpus_instance(index):
    """Instance ``index`` of the corpus: (dataset, config, validation point)."""
    rng = np.random.default_rng([20261022, index])
    n = index % (MAX_N + 1)
    metric = (DistanceMetric.EUCLIDEAN, DistanceMetric.NEGATIVE_COSINE)[(index // 13) % 2]
    kind = ("refined", "old", "tknn")[(index // 26) % 3]
    num_classes = int(rng.integers(2, 5))
    d = int(rng.integers(1, 4))
    if rng.random() < 0.5:  # small integers: many distance ties
        feats = rng.integers(-2, 3, (n, d)).astype(np.float64)
        if metric is DistanceMetric.NEGATIVE_COSINE:
            feats[np.all(feats == 0.0, axis=1), 0] = 1.0
    else:
        feats = rng.standard_normal((n, d))
    for _ in range(int(rng.integers(0, n // 2 + 1))):  # exact duplicate points
        src, dst = rng.integers(0, n, 2)
        feats[dst] = feats[src]
    labels = rng.integers(0, num_classes, n)
    ds = Dataset(feats, labels, num_classes)
    zval = LabeledPoint(rng.standard_normal(d) + 0.1, int(rng.integers(0, num_classes)))
    if kind == "tknn":
        dist = distances_to(metric, ds.features, zval.features)
        if n and rng.random() < 0.5:
            tau = float(dist[rng.integers(0, n)])  # a point lies exactly at tau
        else:
            tau = float(rng.uniform(-1.0, 1.0) if n == 0 else rng.uniform(dist.min(), dist.max()))
        if metric is DistanceMetric.NEGATIVE_COSINE:
            tau = float(np.clip(tau, -1.0, 1.0))
        return ds, TknnConfig(tau, metric), zval
    k = int(rng.integers(1, n + 3))  # K above N in about two cases of N + 2
    return ds, KnnConfig(k, metric, kind), zval


@pytest.mark.parametrize("block", range(4))
def test_oracle_is_byte_identical_to_the_bit_loop_reference(block):
    for index in range(block, CORPUS_SIZE, 4):
        ds, cfg, zval = corpus_instance(index)
        reference = reference_subset_utilities(ds, cfg, zval)
        assert subset_utilities(ds, cfg, zval).tobytes() == reference.tobytes(), index
        rng = np.random.default_rng([index, 1])
        for _ in range(3):
            subset = ds.subset(rng.random(ds.n) < rng.random())
            got = np.float64(utility(cfg, subset, zval))
            assert got.tobytes() == np.float64(reference_utility(cfg, subset, zval)).tobytes()
        oracles = [(shapley_oracle(ds, cfg, zval), shapley_weight()),
                   (semivalue_oracle(ds, cfg, banzhaf_weight(), zval), banzhaf_weight())]
        for result, weight in oracles:
            expected = np.zeros(0)
            if ds.n:
                expected = enumerate_semivalue(ds.n, reference, weight.values(ds.n))
            assert result.scores.tobytes() == expected.tobytes(), index


def test_corpus_covers_every_case():
    cases = set()
    for index in range(CORPUS_SIZE):
        ds, cfg, zval = corpus_instance(index)
        cases.add((ds.n, cfg.metric, getattr(cfg, "variant", "tknn")))
        if isinstance(cfg, KnnConfig) and cfg.k > ds.n:
            cases.add("k above n")
        if isinstance(cfg, TknnConfig) and ds.n:
            if cfg.tau in distances_to(cfg.metric, ds.features, zval.features):
                cases.add("tau at a distance")
        if len({row.tobytes() for row in ds.features}) < ds.n:
            cases.add("duplicates")
    assert len(cases) == (MAX_N + 1) * 2 * 3 + 3


def test_subset_utilities_memory_at_n18():
    rng = np.random.default_rng(18)
    ds = Dataset(rng.standard_normal((18, 4)), rng.integers(0, 3, 18), 3)
    zval = LabeledPoint(rng.standard_normal(4), 1)
    for cfg in (KnnConfig(5, DistanceMetric.EUCLIDEAN), TknnConfig(0.0)):
        tracemalloc.start()
        try:
            values = subset_utilities(ds, cfg, zval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (1 << 18,)
        assert peak < 32 * 2**20
