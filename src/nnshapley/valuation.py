"""Utility functions, Shapley/semivalue definitions, and the enumeration oracle.

The oracle enumerates every coalition and is the ground truth the fast
closed-form routines are tested against. It is deliberately independent of
those routines: it only needs a utility value per subset bitmask.
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
class UtilityKind:
    """Which per-validation-point utility scores a training subset.

    ``knn-soft`` divides correct neighbors among min(K, |S|); ``knn-old``
    divides by K always; ``tknn`` averages label matches over all neighbors
    within the threshold tau.
    """

    kind: str
    num_classes: int
    k: int | None = None
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("knn-soft", "knn-old", "tknn"):
            raise ParameterError(f"unknown utility kind: {self.kind!r}")
        if self.kind in ("knn-soft", "knn-old"):
            if self.k is None or self.k < 1:
                raise ParameterError("KNN utilities require K >= 1")
        elif self.tau is None:
            raise ParameterError("the threshold utility requires tau")
        if self.num_classes < 2:
            raise ParameterError("num_classes must be at least 2")

    @property
    def empty_set_value(self) -> float:
        # knn-old counts zero correct predictions over K; the others fall back
        # to random-guess accuracy.
        return 0.0 if self.kind == "knn-old" else 1.0 / self.num_classes


def knn_soft_utility(k: int, num_classes: int) -> UtilityKind:
    return UtilityKind("knn-soft", num_classes, k=k)


def knn_old_utility(k: int, num_classes: int) -> UtilityKind:
    return UtilityKind("knn-old", num_classes, k=k)


def tknn_utility(tau: float, num_classes: int) -> UtilityKind:
    return UtilityKind("tknn", num_classes, tau=tau)


def utility(
    kind: UtilityKind,
    subset: Dataset,
    zval: LabeledPoint,
    metric: DistanceMetric,
) -> float:
    """Value of a training subset for one validation point."""
    n = subset.n
    if n == 0:
        return kind.empty_set_value
    if kind.kind == "tknn":
        dist = distances_to(metric, subset.features, zval.features)
        within = dist <= kind.tau
        count = int(within.sum())
        if count == 0:
            return 1.0 / kind.num_classes
        return float((subset.labels[within] == zval.label).sum()) / count
    dist = distances_to(metric, subset.features, zval.features)
    order = np.argsort(dist, kind="stable")
    top = min(kind.k, n)
    correct = int((subset.labels[order[:top]] == zval.label).sum())
    denom = top if kind.kind == "knn-soft" else kind.k
    return correct / denom


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


def subset_utilities(
    ds: Dataset,
    kind: UtilityKind,
    zval: LabeledPoint,
    metric: DistanceMetric,
) -> np.ndarray:
    """Utility of every subset of ``ds``, indexed by bitmask."""
    n = ds.n
    values = np.empty(1 << n)
    values[0] = kind.empty_set_value
    if n == 0:
        return values
    dist = distances_to(metric, ds.features, zval.features)
    match = (ds.labels == zval.label).astype(np.int64)
    if kind.kind == "tknn":
        within_bits = 0
        match_bits = 0
        for i in range(n):
            if dist[i] <= kind.tau:
                within_bits |= 1 << i
                if match[i]:
                    match_bits |= 1 << i
        inv_c = 1.0 / kind.num_classes
        for mask in range(1, 1 << n):
            inside = (mask & within_bits).bit_count()
            values[mask] = (mask & match_bits).bit_count() / inside if inside else inv_c
        return values
    order = np.argsort(dist, kind="stable")
    order_bits = [(1 << int(i), int(match[i])) for i in order]
    k = kind.k
    old = kind.kind == "knn-old"
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
    kind: UtilityKind,
    zval: LabeledPoint,
    metric: DistanceMetric,
    max_n: int = DEFAULT_ENUMERATION_GUARD,
) -> ValuationResult:
    """Exact Shapley values by full enumeration; guarded by ``max_n``."""
    return semivalue_oracle(ds, kind, shapley_weight(), zval, metric, max_n=max_n)


def semivalue_oracle(
    ds: Dataset,
    kind: UtilityKind,
    weight: SemivalueWeight,
    zval: LabeledPoint,
    metric: DistanceMetric,
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
        values = subset_utilities(ds, kind, zval, metric)
        scores = enumerate_semivalue(ds.n, values, weights)
    descriptor = MethodDescriptor(
        name="oracle",
        num_classes=kind.num_classes,
        metric=metric.value,
        k=kind.k,
        tau=kind.tau,
        weight=weight.kind,
    )
    return ValuationResult(scores, descriptor, validation_size=1)


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
