"""Differentially private score release.

The private TKNN path privatizes the counting triple once per validation
point (three Gaussian draws total) and derives every owner's leave-one-out
triple from that single privatized statistic; releasing all scores this way
is joint-DP and therefore collusion resistant. That post-processing (decrement,
clamp, closed form) is :func:`nnshapley.tknn.tknn_value_table`, the kernel of
the non-private release. The KNN baseline adds independent noise per owner
per validation point instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._rng import TAG_NOISE, TAG_SUBSAMPLE, stream
from .dataset import Dataset, distance_matrix, sum_over_validation
from .errors import ParameterError
from .knn import KnnConfig, _old_sorted_batch, knn_score_matrix, knn_sorted_match
from .tknn import NeighborCounts, TknnConfig, clamp_counts, tknn_gather, tknn_value_table
from .valuation import MethodDescriptor, ValuationResult

COUNTS_SENSITIVITY = math.sqrt(3.0)  # l2 sensitivity of the counting triple


def knn_old_sensitivity(k: int) -> float:
    """Tight global sensitivity of the older KNN-Shapley: 1 / (K (K + 1))."""
    if k < 1:
        raise ParameterError("K must be at least 1")
    return 1.0 / (k * (k + 1))


def calibrate_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """Per-mechanism Gaussian noise scale: sigma = sens * sqrt(ln(1.25/delta)) / eps."""
    if not 0.0 < sensitivity < math.inf:  # also false for NaN
        raise ParameterError("sensitivity must be positive and finite")
    if not 0.0 < epsilon < math.inf:
        raise ParameterError("epsilon must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    return sensitivity * math.sqrt(math.log(1.25 / delta)) / epsilon


@dataclass(frozen=True)
class DpParams:
    """Privacy parameters for one release. Exactly one of epsilon/sigma is set;
    the other is derived through the calibration rule at the point of use."""

    delta: float
    epsilon: float | None = None
    sigma: float | None = None
    q: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ParameterError("delta must lie in (0, 1)")
        if (self.epsilon is None) == (self.sigma is None):
            raise ParameterError("provide exactly one of epsilon and sigma")
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ParameterError("epsilon must be positive and finite")
        if self.sigma is not None and not 0.0 <= self.sigma < math.inf:
            raise ParameterError("sigma must be nonnegative and finite")
        if not 0.0 < self.q <= 1.0:
            raise ParameterError("subsampling rate q must lie in (0, 1]")

    def resolve_sigma(self, sensitivity: float) -> float:
        if self.sigma is not None:
            return self.sigma
        return calibrate_sigma(sensitivity, self.epsilon, self.delta)

    def manifest(self, sensitivity: float, draws: int) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "sigma": self.resolve_sigma(sensitivity),
            "q": self.q,
            "seed": self.seed,
            "draws": draws,
        }


@dataclass(frozen=True)
class PrivatizedCounts:
    """Noisy, rounded, clamped counting triple; raw draws kept for audit only."""

    counts: NeighborCounts
    raw_noise_draws: tuple[float, float, float]


def privatize_counts(
    counts: NeighborCounts,
    sigma: float,
    rng: np.random.Generator | int,
) -> PrivatizedCounts:
    """round(counts + N(0, sigma^2 I_3)), clamped to the valid count ranges."""
    if sigma < 0.0:
        raise ParameterError("sigma must be nonnegative")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    draws = gen.normal(0.0, sigma, 3) if sigma > 0.0 else np.zeros(3)
    noisy = np.rint(np.asarray(counts.as_tuple(), dtype=np.float64) + draws)
    c, c_x, c_zplus = clamp_counts(*noisy)
    return PrivatizedCounts(NeighborCounts(int(c), int(c_x), int(c_zplus)), tuple(draws.tolist()))


def _poisson_mask(n: int, q: float, rng: np.random.Generator | int) -> np.ndarray:
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return gen.random(n) < q


def poisson_subsample(ds: Dataset, q: float, rng: np.random.Generator | int) -> Dataset:
    """Keep each point independently with probability q; owners preserved."""
    if not 0.0 < q <= 1.0:
        raise ParameterError("subsampling rate q must lie in (0, 1]")
    if q == 1.0:
        return ds
    return ds.subset(_poisson_mask(ds.n, q, rng))


def dp_tknn_score_from_privatized(
    priv: PrivatizedCounts,
    within_threshold: bool,
    in_sampled_neighborhood: bool,
    label_match: bool,
    num_classes: int,
) -> float:
    """Deterministic post-processing of one privatized triple into one score.

    Any party holding the privatized triple and a point's own attributes can
    reproduce that point's released score bit-for-bit: it is the point's
    entry of the one-row :func:`tknn_value_table` of the triple.
    """
    if not within_threshold:
        return 0.0
    table = tknn_value_table(*priv.counts.as_tuple(), num_classes)
    return float(table[int(in_sampled_neighborhood), int(label_match)])


def dp_tknn_shapley_all(
    ds: Dataset,
    cfg: TknnConfig,
    dval: Dataset,
    num_classes: int,
    params: DpParams,
) -> tuple[ValuationResult, list[PrivatizedCounts]]:
    """DP-TKNN-Shapley over a validation set.

    Per validation point: one Poisson subsample (when q < 1), one counting
    pass, one 3-draw privatization, then every owner's score by O(1)
    decrements on the shared privatized triple. Exactly 3 * |dval| Gaussian
    draws regardless of N. Per chunk, the counts are taken over all rows at
    once, each row's triple is privatized from its own keyed stream, and the
    released triples go through :func:`tknn_value_table` and
    :func:`tknn_gather`, the kernel of the non-private release.
    """
    sigma = params.resolve_sigma(COUNTS_SENSITIVITY)
    released: list[PrivatizedCounts] = []

    def chunk_sum(lo: int, hi: int, norms: np.ndarray | None) -> np.ndarray:
        dist = distance_matrix(cfg.metric, ds.features, dval.features[lo:hi], norms)
        within = dist <= cfg.tau
        match = ds.labels[None, :] == dval.labels[lo:hi][:, None]
        c = np.full(hi - lo, ds.n)
        in_nb = within
        if params.q < 1.0:
            keys = (stream(params.seed, TAG_SUBSAMPLE, v) for v in range(lo, hi))
            keep = np.array([_poisson_mask(ds.n, params.q, key) for key in keys])
            in_nb = within & keep
            c = keep.sum(axis=1)
        counts = np.stack([c, 1 + in_nb.sum(axis=1), (in_nb & match).sum(axis=1)], axis=1)
        privs = [
            privatize_counts(NeighborCounts(*row), sigma, stream(params.seed, TAG_NOISE, v))
            for v, row in enumerate(counts.tolist(), start=lo)
        ]
        released.extend(privs)
        triples = np.array([p.counts.as_tuple() for p in privs], dtype=np.float64)
        table = tknn_value_table(*triples.T, num_classes)
        return tknn_gather(table, within, match, in_nb).sum(axis=0)

    # One thread keeps ``released`` and the stream keys in validation order.
    total = sum_over_validation(ds, dval, cfg.metric, chunk_sum, threads=1)
    descriptor = MethodDescriptor(
        name="dp-tknn-shapley",
        num_classes=num_classes,
        metric=cfg.metric.value,
        tau=cfg.tau,
        weight="shapley",
        dp=params.manifest(COUNTS_SENSITIVITY, draws=3 * dval.n),
    )
    return ValuationResult(total, descriptor, validation_size=dval.n), released


def dp_knn_shapley_all(
    ds: Dataset,
    cfg: KnnConfig,
    dval: Dataset,
    num_classes: int,
    params: DpParams,
    subsampled: bool = False,
) -> ValuationResult:
    """The naive DP baseline on the older KNN-Shapley variant.

    Independent noise per (owner, validation point): N * |dval| draws, with
    no reuse and hence no collusion resistance. The subsampled form draws a
    fresh Poisson subsample per owner and validation point, always keeping
    the owner, and reruns the recursion on it, because the recursion offers
    no way to share one subsample across owners. A subset keeps index order,
    so its (distance, index) order is the kept part of the row's one order.
    """
    if cfg.variant != "old":
        raise ParameterError("the DP baseline is defined for the old variant only")
    if not subsampled:
        params = replace(params, q=1.0)  # the rate this release runs at, for the manifest
    sensitivity = knn_old_sensitivity(cfg.k)
    sigma = params.resolve_sigma(sensitivity)
    n = ds.n

    def chunk_sum(lo: int, hi: int, norms: np.ndarray | None) -> np.ndarray:
        features, labels = dval.features[lo:hi], dval.labels[lo:hi]
        if not subsampled:
            chunk = knn_score_matrix(ds, cfg, features, labels, num_classes, norms)
        else:
            order, match = knn_sorted_match(ds, cfg.metric, features, labels, norms)
            rank = np.empty_like(order)  # rank[row, i]: position of point i in order[row]
            np.put_along_axis(rank, order, np.arange(n)[None, :], axis=1)
            chunk = np.empty(order.shape)
            for row, v in enumerate(range(lo, hi)):
                for i in range(n):
                    keep = _poisson_mask(n, params.q, stream(params.seed, TAG_SUBSAMPLE, v, i))
                    keep[i] = True  # the owner's own point is always present
                    kept = keep[order[row]]
                    sub = _old_sorted_batch(match[row, kept][None], cfg.k)[0]
                    chunk[row, i] = sub[np.count_nonzero(kept[: rank[row, i]])]
        if sigma > 0.0:
            for v, row in enumerate(chunk, start=lo):
                row += stream(params.seed, TAG_NOISE, v).normal(0.0, sigma, n)
        return chunk.sum(axis=0)

    total = sum_over_validation(ds, dval, cfg.metric, chunk_sum, threads=1)
    descriptor = MethodDescriptor(
        name="dp-knn-shapley-old" + ("-subsampled" if subsampled else ""),
        num_classes=num_classes,
        metric=cfg.metric.value,
        k=cfg.k,
        weight="shapley",
        dp=params.manifest(sensitivity, draws=n * dval.n),
    )
    return ValuationResult(total, descriptor, validation_size=dval.n)


def count_triple_l2_change(before: NeighborCounts, after: NeighborCounts) -> float:
    """l2 distance between two counting triples (for sensitivity checks)."""
    a = np.asarray(before.as_tuple(), dtype=np.float64)
    b = np.asarray(after.as_tuple(), dtype=np.float64)
    return float(np.linalg.norm(a - b))
