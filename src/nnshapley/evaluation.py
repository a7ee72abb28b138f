"""Experiment harness: AUROC, corruption-detection pipelines, runtime
benchmarks, and the threshold-classifier consistency check."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._rng import TAG_DATA, stream
from .dataset import CorruptionRecord, Dataset, DistanceMetric, generate_gaussian_synthetic
from .dp import (
    COUNTS_SENSITIVITY,
    DpParams,
    dp_knn_shapley_all,
    dp_tknn_shapley_all,
    knn_old_sensitivity,
)
from .errors import ParameterError
from .knn import knn_shapley_all
from .tknn import tknn_shapley_all
from .valuation import KnnConfig, MethodDescriptor, TknnConfig, ValuationResult


def auroc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative; ties 0.5.

    ``positives`` is a boolean mask or an index collection into ``scores``.
    """
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
    if np.isnan(scores).any():
        return float("nan")
    # 1-based ranks, ties given their group's average: exact half-integers,
    # so the sum below is exact.
    order = np.argsort(scores, kind="mergesort")
    ordered = scores[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    dense = np.cumsum(first)
    count = np.append(np.flatnonzero(first), scores.size)
    ranks = np.empty(scores.size)
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass(frozen=True)
class MethodConfig:
    """Which valuation to run, with its hyperparameters and, for a private
    method, the release's noise (``dp``, required by :func:`compute_values`),
    whose rate ``dp.q`` is the rate the release runs at.

    ``k`` and ``tau`` are validated whichever method reads them.
    """

    name: str
    k: int = 5
    tau: float = -0.5
    metric: DistanceMetric = DistanceMetric.NEGATIVE_COSINE
    dp: DpParams | None = None

    def __post_init__(self) -> None:
        if self.name not in METHODS:
            raise ParameterError(f"unknown method {self.name!r}; expected one of {tuple(METHODS)}")
        KnnConfig(self.k, self.metric)
        TknnConfig(self.tau, self.metric)


# Each runner looks its driver up as a module global at call time, so anything
# that rebinds a driver here (a tracer, a test double) sees the call.
def _run_tknn(train: Dataset, dval: Dataset, m: MethodConfig, threads: int) -> ValuationResult:
    cfg = TknnConfig(m.tau, m.metric)
    return tknn_shapley_all(train, cfg, dval, threads)


def _run_knn(train: Dataset, dval: Dataset, m: MethodConfig, threads: int) -> ValuationResult:
    cfg = KnnConfig(m.k, m.metric, "refined")
    return knn_shapley_all(train, cfg, dval, threads)


def _run_knn_old(train: Dataset, dval: Dataset, m: MethodConfig, threads: int) -> ValuationResult:
    cfg = KnnConfig(m.k, m.metric, "old")
    return knn_shapley_all(train, cfg, dval, threads)


def _run_dp_tknn(train: Dataset, dval: Dataset, m: MethodConfig, threads: int) -> ValuationResult:
    cfg = TknnConfig(m.tau, m.metric)
    return dp_tknn_shapley_all(train, cfg, dval, m.dp)[0]


def _run_dp_knn(train: Dataset, dval: Dataset, m: MethodConfig, threads: int) -> ValuationResult:
    cfg = KnnConfig(m.k, m.metric, "old")
    return dp_knn_shapley_all(train, cfg, dval, m.dp)


@dataclass(frozen=True)
class Method:
    """How to run one method and, for a private one, what the accountant sees.

    ``sensitivity(k)`` is the l2 sensitivity of one release and is None for
    a non-private method. A private release runs at the rate of its
    ``DpParams.q``; ``subsampled`` says whether the CLI gives it ``--q``
    without ``--dp-subsampled`` (otherwise it runs at q = 1).
    """

    run: Callable[[Dataset, Dataset, MethodConfig, int], ValuationResult]
    sensitivity: Callable[[int], float] | None = None
    subsampled: bool = False

    @property
    def private(self) -> bool:
        return self.sensitivity is not None


METHODS: dict[str, Method] = {
    "tknn": Method(_run_tknn),
    "knn": Method(_run_knn),
    "knn-old": Method(_run_knn_old),
    "dp-tknn": Method(_run_dp_tknn, sensitivity=lambda k: COUNTS_SENSITIVITY, subsampled=True),
    "dp-knn": Method(_run_dp_knn, sensitivity=knn_old_sensitivity),
}


def compute_values(
    train: Dataset,
    dval: Dataset,
    method: MethodConfig,
    threads: int = 1,
) -> ValuationResult:
    """Run ``method`` over the validation set.

    A private method runs on one thread and needs ``method.dp``, the noise
    of its release (a calibrated sigma; see :class:`nnshapley.dp.DpParams`),
    and Poisson-subsamples exactly when ``method.dp.q`` < 1; any other
    method rejects a ``dp``, which it would not apply.
    """
    spec = METHODS[method.name]
    if spec.private and method.dp is None:
        raise ParameterError(f"method {method.name!r} requires DP parameters")
    if not spec.private and method.dp is not None:
        raise ParameterError(f"method {method.name!r} is not private and takes no DP parameters")
    return spec.run(train, dval, method, threads)


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

    def to_json_dict(self) -> dict:
        """The report without ``wall_time``, which no seed reproduces."""
        return {
            "auroc": self.auroc,
            "method": self.method.to_dict(),
            "corruption": self.corruption,
            "seed": self.seed,
        }


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
    configs = [MethodConfig(name=name, k=k, tau=tau, metric=metric) for name in methods]
    for method in configs:
        if METHODS[method.name].private:
            raise ParameterError(f"bench times non-private methods only; got {method.name!r}")
    rows: list[dict] = []
    for n in ns:
        train = generate_gaussian_synthetic(int(n), d, seed)
        dval = generate_gaussian_synthetic(n_val, d, seed + 1)
        for method in configs:
            compute_values(train, dval, method)  # untimed warmup
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                compute_values(train, dval, method)
                times.append(time.perf_counter() - start)
            rows.append(
                {
                    "n": int(n),
                    "method": method.name,
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
