"""Differentially private score release.

The private TKNN path privatizes the counting triple once per validation
point (three Gaussian draws total) and derives every owner's leave-one-out
triple from that single privatized statistic; releasing all scores this way
is joint-DP and therefore collusion resistant. That post-processing (decrement,
clamp, closed form) is :func:`nnshapley.tknn.tknn_value_table`, the kernel of
the non-private release, so any party holding the privatized triple and a
point's own attributes can reproduce that point's released score bit for
bit: it is the point's entry of the one-row value table of the triple. The
KNN baseline adds independent noise per owner per validation point instead.

Both releases take their noise scale as given (:class:`DpParams`); finding
the sigma that meets an (epsilon, delta) budget is the accountant's job,
:func:`nnshapley.accountant.calibrate_sigma_for_budget`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._rng import TAG_NOISE, TAG_SUBSAMPLE, streams
from .dataset import Dataset, sum_over_validation, validation_chunks
from .errors import ParameterError
from .knn import _old_sorted_batch, knn_score_matrix, knn_sorted_match
from .tknn import NeighborCounts, clamp_counts, tknn_tiled_sum
from .valuation import KnnConfig, TknnConfig, ValuationResult, describe

COUNTS_SENSITIVITY = math.sqrt(3.0)  # l2 sensitivity of the counting triple


def knn_old_sensitivity(k: int) -> float:
    """Tight global sensitivity of the older KNN-Shapley: 1 / (K (K + 1))."""
    if k < 1:
        raise ParameterError("K must be at least 1")
    return 1.0 / (k * (k + 1))


@dataclass(frozen=True)
class DpParams:
    """The resolved noise of one release: Gaussian scale ``sigma`` per
    mechanism, Poisson rate ``q``, the ``delta`` it is accounted at, and the
    seed of its keyed streams.

    To meet an (epsilon, delta) budget, take sigma from
    :func:`nnshapley.accountant.calibrate_sigma_for_budget`, as the CLI
    does; the release's manifest records that sigma.
    """

    delta: float
    sigma: float
    q: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ParameterError("delta must lie in (0, 1)")
        if not 0.0 <= self.sigma < math.inf:  # also false for NaN
            raise ParameterError("sigma must be nonnegative and finite")
        if not 0.0 < self.q <= 1.0:
            raise ParameterError("subsampling rate q must lie in (0, 1]")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")

    def manifest(self, draws: int) -> dict:
        return {**asdict(self), "draws": draws}


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


def dp_tknn_shapley_all(
    ds: Dataset,
    cfg: TknnConfig,
    dval: Dataset,
    params: DpParams,
) -> tuple[ValuationResult, list[PrivatizedCounts]]:
    """DP-TKNN-Shapley over a validation set.

    Per validation point: one Poisson subsample (when q < 1), one counting
    pass, one 3-draw privatization, then every owner's score by O(1)
    decrements on the shared privatized triple. Exactly 3 * |dval| Gaussian
    draws regardless of N. This is the tiled pass of the non-private release,
    :func:`nnshapley.tknn.tknn_tiled_sum`: each row's mask and noise come
    from its own keyed streams (built for a whole row group in one batch),
    and each row group's count triples are privatized one row at a time, in
    validation order, before its value tables are built.
    """
    released: list[PrivatizedCounts] = []

    def sample(lo: int, hi: int) -> np.ndarray:
        gens = streams(params.seed, (TAG_SUBSAMPLE,), lo, hi)
        return np.array([_poisson_mask(ds.n, params.q, gen) for gen in gens])

    def release(lo: int, *counts: np.ndarray) -> np.ndarray:
        rows = np.stack(counts, axis=1).tolist()
        gens = streams(params.seed, (TAG_NOISE,), lo, lo + len(rows))
        privs = [
            privatize_counts(NeighborCounts(*row), params.sigma, gen)
            for row, gen in zip(rows, gens)
        ]
        released.extend(privs)
        return np.array([p.counts.as_tuple() for p in privs], dtype=np.float64).T

    subsampled = sample if params.q < 1.0 else None
    total = tknn_tiled_sum(ds, cfg, dval, sample=subsampled, release=release)
    descriptor = describe("dp-tknn-shapley", ds, cfg, dp=params.manifest(draws=3 * dval.n))
    return ValuationResult(total, descriptor, validation_size=dval.n), released


def dp_knn_shapley_all(
    ds: Dataset,
    cfg: KnnConfig,
    dval: Dataset,
    params: DpParams,
) -> ValuationResult:
    """The naive DP baseline on the older KNN-Shapley variant.

    Independent noise per (owner, validation point): N * |dval| draws, with
    no reuse and hence no collusion resistance. It runs at the rate
    ``params.q``, as :func:`dp_tknn_shapley_all` does. Below q = 1 it draws a
    fresh Poisson subsample per owner and validation point, always keeping
    the owner, and reruns the recursion on it, because the recursion offers
    no way to share one subsample across owners; its name then ends in
    ``-subsampled``. A subset keeps index order, so its (distance, index)
    order is the kept part of the row's one order. At q = 1 every subsample
    would be the whole set, so none is drawn.
    """
    if cfg.variant != "old":
        raise ParameterError("the DP baseline is defined for the old variant only")
    n = ds.n

    def scores(lo: int, hi: int, norms: np.ndarray | None) -> np.ndarray:
        features, labels = dval.features[lo:hi], dval.labels[lo:hi]
        if params.q == 1.0:  # every mask would keep every point
            chunk = knn_score_matrix(ds, cfg, features, labels, norms)
        else:
            order, match = knn_sorted_match(ds, cfg.metric, features, labels, norms)
            rank = np.empty_like(order)  # rank[row, i]: position of point i in order[row]
            np.put_along_axis(rank, order, np.arange(n)[None, :], axis=1)
            chunk = np.empty(order.shape)
            for row, v in enumerate(range(lo, hi)):
                for i, gen in enumerate(streams(params.seed, (TAG_SUBSAMPLE, v), 0, n)):
                    keep = _poisson_mask(n, params.q, gen)
                    keep[i] = True  # the owner's own point is always present
                    kept = keep[order[row]]
                    sub = _old_sorted_batch(match[row, kept][None], cfg.k)[0]
                    chunk[row, i] = sub[np.count_nonzero(kept[: rank[row, i]])]
        if params.sigma > 0.0:
            for row, gen in zip(chunk, streams(params.seed, (TAG_NOISE,), lo, hi)):
                row += gen.normal(0.0, params.sigma, n)
        return chunk

    total = sum_over_validation(ds, dval, cfg.metric, validation_chunks(dval.n, n), scores)
    name = "dp-knn-shapley-old" + ("-subsampled" if params.q < 1.0 else "")
    descriptor = describe(name, ds, cfg, dp=params.manifest(draws=n * dval.n))
    return ValuationResult(total, descriptor, validation_size=dval.n)
