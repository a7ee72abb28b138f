"""Experiment harness: AUROC, corruption-detection pipelines, runtime
benchmarks, and the threshold-classifier consistency check."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._rng import TAG_DATA, stream
from .dataset import CorruptionRecord, Dataset, DistanceMetric, generate_gaussian_synthetic
from .dp import DpParams, dp_knn_shapley_all, dp_tknn_shapley_all
from .errors import ParameterError
from .knn import KnnConfig, knn_shapley_all
from .tknn import TknnConfig, tknn_shapley_all
from .valuation import MethodDescriptor, ValuationResult

METHOD_NAMES = ("tknn", "knn", "knn-old", "dp-tknn", "dp-knn")


def auroc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative; ties 0.5.

    ``positives`` is a boolean mask or an index collection into ``scores``.
    """
    # Imported here so that a plain valuation never loads scipy.stats.
    from scipy.stats import rankdata

    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positives)
    if pos.dtype != bool:
        mask = np.zeros(scores.shape[0], dtype=bool)
        mask[pos.astype(np.intp)] = True
        pos = mask
    n_pos = int(pos.sum())
    n_neg = scores.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ParameterError("AUROC needs at least one positive and one negative")
    ranks = rankdata(scores, method="average")
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass(frozen=True)
class MethodConfig:
    """Which valuation to run, with its hyperparameters and optional DP budget."""

    name: str
    k: int = 5
    tau: float = -0.5
    metric: DistanceMetric = DistanceMetric.NEGATIVE_COSINE
    dp: DpParams | None = None
    dp_subsampled: bool = False

    def __post_init__(self) -> None:
        if self.name not in METHOD_NAMES:
            raise ParameterError(f"unknown method {self.name!r}; expected one of {METHOD_NAMES}")
        if self.name.startswith("dp-") and self.dp is None:
            raise ParameterError(f"method {self.name!r} requires DP parameters")


def compute_values(
    train: Dataset,
    dval: Dataset,
    method: MethodConfig,
    threads: int = 1,
) -> ValuationResult:
    """Dispatch a full-validation-set valuation run."""
    c = train.num_classes
    if method.name == "tknn":
        return tknn_shapley_all(train, TknnConfig(method.tau, method.metric), dval, c, threads)
    if method.name == "knn":
        return knn_shapley_all(train, KnnConfig(method.k, method.metric, "refined"), dval, c, threads)
    if method.name == "knn-old":
        return knn_shapley_all(train, KnnConfig(method.k, method.metric, "old"), dval, c, threads)
    if method.name == "dp-tknn":
        result, _ = dp_tknn_shapley_all(
            train, TknnConfig(method.tau, method.metric), dval, c, method.dp
        )
        return result
    return dp_knn_shapley_all(
        train,
        KnnConfig(method.k, method.metric, "old"),
        dval,
        c,
        method.dp,
        subsampled=method.dp_subsampled,
    )


@dataclass(frozen=True)
class DetectionReport:
    auroc: float
    method: MethodDescriptor
    corruption: str
    seed: int | None
    wall_time: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.auroc <= 1.0:
            raise ParameterError("AUROC must lie in [0, 1]")

    def to_json_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "auroc": self.auroc,
            "method": self.method.to_dict(),
            "corruption": self.corruption,
            "seed": self.seed,
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out


def run_detection(
    d_corrupted: Dataset,
    record: CorruptionRecord,
    method: MethodConfig,
    dval: Dataset,
    seed: int | None = None,
    threads: int = 1,
) -> DetectionReport:
    """Score the corrupted training set and rank corrupted points by low value.

    Corrupted points are the positives; they should receive low values, so the
    AUROC is computed on negated scores.
    """
    mask = record.mask(d_corrupted.n)
    start = time.perf_counter()
    result = compute_values(d_corrupted, dval, method, threads=threads)
    elapsed = time.perf_counter() - start
    score = auroc(-result.scores, mask)
    return DetectionReport(score, result.method, record.kind, seed, elapsed)


def bench_runtime(
    ns: Sequence[int],
    d: int = 10,
    n_val: int = 100,
    methods: Sequence[str] = ("tknn", "knn"),
    repeats: int = 3,
    seed: int = 0,
    k: int = 5,
    tau: float = -0.5,
    metric: DistanceMetric = DistanceMetric.NEGATIVE_COSINE,
) -> list[dict]:
    """Median wall time of full valuation runs on synthetic data.

    Rows: {"n", "method", "median_seconds", "repeats"}.
    """
    if list(ns) != sorted(ns):
        raise ParameterError("training sizes must be ascending")
    if repeats < 3:
        raise ParameterError("at least 3 repeats are required for a stable median")
    rows: list[dict] = []
    for n in ns:
        train = generate_gaussian_synthetic(int(n), d, seed)
        dval = generate_gaussian_synthetic(n_val, d, seed + 1)
        for name in methods:
            method = MethodConfig(name=name, k=k, tau=tau, metric=metric)
            compute_values(train, dval, method)  # untimed warmup
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                compute_values(train, dval, method)
                times.append(time.perf_counter() - start)
            rows.append(
                {
                    "n": int(n),
                    "method": name,
                    "median_seconds": float(np.median(times)),
                    "repeats": repeats,
                }
            )
    return rows


def tknn_consistency_check(
    n_grid: Sequence[int],
    tau_rule: Callable[[int], float] = lambda n: n ** -0.25,
    seed: int = 0,
    n_test: int = 2000,
) -> list[tuple[int, float]]:
    """Monte-Carlo MSE of the threshold regressor fitted to m(x) = x on [0, 1].

    The prediction is the mean of in-threshold training targets, and 0 when
    the neighborhood is empty. With tau_n -> 0 and n * tau_n -> infinity the
    MSE must vanish; this reports the empirical decay over ``n_grid``.
    """
    if list(n_grid) != sorted(n_grid):
        raise ParameterError("n_grid must be ascending")
    rows: list[tuple[int, float]] = []
    for n in n_grid:
        rng = stream(seed, TAG_DATA, int(n))
        xs = np.sort(rng.random(int(n)))
        tests = rng.random(n_test)
        rows.append((int(n), float(_tknn_regression_mse(xs, tests, tau_rule(int(n))))))
    return rows


def _tknn_regression_mse(xs_sorted: np.ndarray, tests: np.ndarray, tau: float) -> float:
    prefix = np.concatenate([[0.0], np.cumsum(xs_sorted)])
    lo = np.searchsorted(xs_sorted, tests - tau, side="left")
    hi = np.searchsorted(xs_sorted, tests + tau, side="right")
    count = hi - lo
    sums = prefix[hi] - prefix[lo]
    pred = np.where(count > 0, sums / np.maximum(count, 1), 0.0)
    return float(np.mean((pred - tests) ** 2))
