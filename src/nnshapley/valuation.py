"""Utility descriptions, Shapley/semivalue definitions, and the enumeration oracle.

A utility is described once, by the configuration its release takes:
:class:`KnnConfig` (refined or older KNN utility) or :class:`TknnConfig`
(threshold utility). The oracle takes the same configuration:
``utility(cfg, subset, zval)``, ``subset_utilities(ds, cfg, zval)``,
``semivalue_oracle(ds, cfg, weight, zval, max_n)`` and
``shapley_oracle(ds, cfg, zval, max_n)``. The distance metric comes from
``cfg`` and the class count C from the dataset, as in the releases; the
empty set is worth 0 under the older KNN utility and 1/C otherwise.

The oracle enumerates every coalition and is the ground truth the fast
closed-form routines are tested against. It is deliberately independent of
those routines: it only needs a utility value per subset bitmask. Every
:class:`MethodDescriptor`, the oracle's and the releases', is built by
:func:`describe`; the oracle's name says which utility it scored
(``oracle-knn``, ``oracle-knn-old`` or ``oracle-tknn``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import Dataset, DistanceMetric, LabeledPoint, distances_to
from .errors import EnumerationLimitError, ParameterError

DEFAULT_ENUMERATION_GUARD = 20


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


@dataclass(frozen=True)
class TknnConfig:
    tau: float
    metric: DistanceMetric = DistanceMetric.NEGATIVE_COSINE

    def __post_init__(self) -> None:
        if math.isnan(self.tau):  # +-inf are allowed: every point or none is within
            raise ParameterError("tau must be a number, not NaN")
        if self.metric is DistanceMetric.NEGATIVE_COSINE and not -1.0 <= self.tau <= 1.0:
            raise ParameterError("tau must lie in [-1, 1] for negative-cosine distance")


def _empty_set_value(cfg: KnnConfig | TknnConfig, ds: Dataset) -> float:
    # The older KNN utility counts zero correct predictions over K; the others
    # fall back to random-guess accuracy.
    if isinstance(cfg, KnnConfig) and cfg.variant == "old":
        return 0.0
    return 1.0 / ds.num_classes


def utility(cfg: KnnConfig | TknnConfig, subset: Dataset, zval: LabeledPoint) -> float:
    """Value of a training subset for one validation point."""
    n = subset.n
    if n == 0:
        return _empty_set_value(cfg, subset)
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


@dataclass(frozen=True)
class SemivalueWeight:
    """Coalition-size weight w(k); must satisfy sum_k C(N-1, k-1) w(k) = N."""

    kind: str
    fn: Callable[[int, int], float] | None = None  # fn(k, n) for custom weights

    def values(self, n: int) -> np.ndarray:
        if n < 1:
            raise ParameterError("weights need at least one player")
        k = np.arange(1, n + 1)
        if self.kind == "shapley":
            w = np.array([1.0 / math.comb(n - 1, kk - 1) for kk in k])
        elif self.kind == "banzhaf":
            w = np.full(n, n / 2.0 ** (n - 1))
        elif self.kind == "custom":
            if self.fn is None:
                raise ParameterError("custom weight requires a function")
            w = np.array([float(self.fn(int(kk), n)) for kk in k])
        else:
            raise ParameterError(f"unknown weight kind: {self.kind!r}")
        total = sum(math.comb(n - 1, kk - 1) * w[kk - 1] for kk in k)
        if abs(total - n) > 1e-9 * n:
            raise ParameterError(
                f"weight normalization violated: sum C(N-1,k-1) w(k) = {total}, expected {n}"
            )
        return w


def shapley_weight() -> SemivalueWeight:
    return SemivalueWeight("shapley")


def banzhaf_weight() -> SemivalueWeight:
    return SemivalueWeight("banzhaf")


def custom_weight(fn: Callable[[int, int], float]) -> SemivalueWeight:
    return SemivalueWeight("custom", fn=fn)


@dataclass(frozen=True)
class MethodDescriptor:
    """Everything needed to identify how a score vector was produced."""

    name: str
    num_classes: int
    metric: str | None = None
    k: int | None = None
    tau: float | None = None
    weight: str | None = None
    dp: Mapping[str, object] | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "num_classes": self.num_classes}
        for key in ("metric", "k", "tau", "weight"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.dp is not None:
            out["dp"] = dict(self.dp)
        return out


def describe(
    name: str,
    ds: Dataset,
    cfg: KnnConfig | TknnConfig,
    weight: str = "shapley",
    dp: Mapping[str, object] | None = None,
) -> MethodDescriptor:
    """The descriptor of a valuation of ``ds`` under ``cfg``, named ``name``."""
    k = cfg.k if isinstance(cfg, KnnConfig) else None
    tau = cfg.tau if isinstance(cfg, TknnConfig) else None
    return MethodDescriptor(name, ds.num_classes, cfg.metric.value, k, tau, weight, dp)


@dataclass(frozen=True)
class ValuationResult:
    """Per-training-point scores plus the method that produced them."""

    scores: np.ndarray
    method: MethodDescriptor
    validation_size: int

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64).copy()
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method.to_dict(),
            "validation_size": self.validation_size,
            "scores": [float(s) for s in self.scores],
        }


def subset_utilities(ds: Dataset, cfg: KnnConfig | TknnConfig, zval: LabeledPoint) -> np.ndarray:
    """Utility of every subset of ``ds``, indexed by bitmask."""
    n = ds.n
    values = np.empty(1 << n)
    values[0] = _empty_set_value(cfg, ds)
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


def enumerate_semivalue(n: int, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact semivalue of each player from per-bitmask utilities ``values``.

    ``weights[k-1]`` is w(k); the Shapley value uses w(k) = 1/C(N-1, k-1).
    """
    if n == 0:
        return np.zeros(0)
    phi = np.zeros(n)
    for mask in range(1 << n):
        size = mask.bit_count()
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            phi[i] += weights[size] * (values[mask | bit] - values[mask])
    return phi / n


def shapley_oracle(
    ds: Dataset,
    cfg: KnnConfig | TknnConfig,
    zval: LabeledPoint,
    max_n: int = DEFAULT_ENUMERATION_GUARD,
) -> ValuationResult:
    """Exact Shapley values by full enumeration; guarded by ``max_n``."""
    return semivalue_oracle(ds, cfg, shapley_weight(), zval, max_n=max_n)


def semivalue_oracle(
    ds: Dataset,
    cfg: KnnConfig | TknnConfig,
    weight: SemivalueWeight,
    zval: LabeledPoint,
    max_n: int = DEFAULT_ENUMERATION_GUARD,
) -> ValuationResult:
    """Exact semivalues by full enumeration; guarded by ``max_n``."""
    if ds.n > max_n:
        raise EnumerationLimitError(
            f"enumeration over 2^{ds.n} subsets exceeds the guard of N = {max_n}"
        )
    if ds.n == 0:
        scores = np.zeros(0)
    else:
        weights = weight.values(ds.n)
        values = subset_utilities(ds, cfg, zval)
        scores = enumerate_semivalue(ds.n, values, weights)
    if isinstance(cfg, TknnConfig):
        name = "oracle-tknn"
    else:
        name = "oracle-knn" if cfg.variant == "refined" else "oracle-knn-old"
    return ValuationResult(scores, describe(name, ds, cfg, weight.kind), validation_size=1)


def aggregate_over_validation(results: Sequence[ValuationResult]) -> ValuationResult:
    """Sum per-validation-point results; valid by linearity of the value."""
    if not results:
        raise ParameterError("cannot aggregate an empty list of results")
    first = results[0]
    total = np.array(first.scores, dtype=np.float64)
    size = first.validation_size
    for res in results[1:]:
        if res.scores.shape != first.scores.shape:
            raise ParameterError("results disagree on the number of training points")
        if res.method != first.method:
            raise ParameterError("results were produced by different methods")
        total = total + res.scores
        size += res.validation_size
    return ValuationResult(total, first.method, validation_size=size)
