"""Likelihood-ratio membership inference against value-score releases.

The attacker crafts a copy of the target point, scores it against shadow
datasets with and without the target (IN/OUT populations), fits a Gaussian to
each population, then compares the server's released score for the copy under
the two densities. A member's presence deduplicates the copy and depresses
its score, which is exactly what the IN population models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._rng import (
    TAG_SCORE_IN,
    TAG_SCORE_OBS,
    TAG_SCORE_OUT,
    TAG_SHADOW,
    streams,
    substream_seed,
    substream_seeds,
)
from .dataset import Dataset, LabeledPoint
from .errors import ParameterError
from .evaluation import MethodConfig, auroc, compute_values

# A value scorer maps (context, target, validation set, seed) to the value the
# server would release for a copy of ``target`` when the rest of the dataset
# is ``context``. The seed only matters for randomized (DP) scorers.
ValueScorer = Callable[[Dataset, LabeledPoint, Dataset, int], float]

_LOG_LAMBDA_CAP = 700.0  # keeps exp() finite


@dataclass(frozen=True)
class MiaConfig:
    shadow_count: int = 32
    shadow_size: int | None = None  # defaults to the server dataset size
    variance_floor: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shadow_count < 2:
            raise ParameterError("at least two shadow datasets are required")
        if self.variance_floor <= 0.0:
            raise ParameterError("variance_floor must be positive")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")


@dataclass(frozen=True)
class MiaVerdict:
    lam: float
    mu_in: float
    mu_out: float
    var_in: float
    var_out: float
    phi_obs: float


def likelihood_ratio(
    phi_obs: float,
    mu_in: float,
    var_in: float,
    mu_out: float,
    var_out: float,
    variance_floor: float = 1e-12,
) -> float:
    """Gaussian density ratio p(phi | IN) / p(phi | OUT), floored variances."""
    v_in = max(var_in, variance_floor)
    v_out = max(var_out, variance_floor)
    log_lam = 0.5 * (
        math.log(v_out / v_in)
        + (phi_obs - mu_out) ** 2 / v_out
        - (phi_obs - mu_in) ** 2 / v_in
    )
    return math.exp(min(max(log_lam, -_LOG_LAMBDA_CAP), _LOG_LAMBDA_CAP))


def mia_score(
    value_fn: ValueScorer,
    target: LabeledPoint,
    shadow_pool: Dataset,
    server_dataset: Dataset,
    cfg: MiaConfig,
    zval_set: Dataset,
) -> MiaVerdict:
    """One likelihood-ratio test for one target point.

    ``shadow_pool`` must be disjoint from ``server_dataset``; shadow datasets
    are drawn from it without replacement.
    """
    size = cfg.shadow_size if cfg.shadow_size is not None else server_dataset.n
    if size < 1 or size > shadow_pool.n:
        raise ParameterError(
            f"shadow pool of {shadow_pool.n} points cannot supply shadow datasets of size {size}"
        )
    ins = np.empty(cfg.shadow_count)
    outs = np.empty(cfg.shadow_count)
    worlds = zip(
        streams(cfg.seed, (TAG_SHADOW,), 0, cfg.shadow_count),
        substream_seeds(cfg.seed, (TAG_SCORE_IN,), 0, cfg.shadow_count),
        substream_seeds(cfg.seed, (TAG_SCORE_OUT,), 0, cfg.shadow_count),
    )
    for t, (gen, seed_in, seed_out) in enumerate(worlds):
        idx = gen.choice(shadow_pool.n, size=size, replace=False)
        shadow = shadow_pool.subset(np.sort(idx))
        ins[t] = value_fn(shadow.with_point(target), target, zval_set, seed_in)
        outs[t] = value_fn(shadow, target, zval_set, seed_out)
    phi_obs = value_fn(server_dataset, target, zval_set, substream_seed(cfg.seed, TAG_SCORE_OBS, 0))
    mu_in = float(ins.mean())
    mu_out = float(outs.mean())
    var_in = float(ins.var())
    var_out = float(outs.var())
    lam = likelihood_ratio(phi_obs, mu_in, var_in, mu_out, var_out, cfg.variance_floor)
    return MiaVerdict(lam, mu_in, mu_out, var_in, var_out, phi_obs)


def mia_auroc(
    value_fn: ValueScorer,
    members: Dataset,
    nonmembers: Dataset,
    shadow_pool: Dataset,
    server_dataset: Dataset,
    cfg: MiaConfig,
    zval_set: Dataset,
) -> float:
    """Attack AUROC with members as positives.

    ``server_dataset`` must contain every member and no nonmember.
    """
    lams, labels = mia_lambdas(
        value_fn, members, nonmembers, shadow_pool, server_dataset, cfg, zval_set
    )
    return auroc(lams, labels)


def mia_lambdas(
    value_fn: ValueScorer,
    members: Dataset,
    nonmembers: Dataset,
    shadow_pool: Dataset,
    server_dataset: Dataset,
    cfg: MiaConfig,
    zval_set: Dataset,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-target likelihood ratios plus the membership ground truth."""
    if members.n == 0 or nonmembers.n == 0:
        raise ParameterError("both target populations must be nonempty")
    lams = []
    labels = []
    for group_tag, population, is_member in ((0, members, True), (1, nonmembers, False)):
        target_seeds = substream_seeds(cfg.seed, (group_tag,), 0, population.n)
        for i, seed in enumerate(target_seeds):
            target_cfg = replace(cfg, seed=seed)
            verdict = mia_score(
                value_fn, population.point(i), shadow_pool, server_dataset, target_cfg, zval_set
            )
            lams.append(verdict.lam)
            labels.append(is_member)
    return np.asarray(lams), np.asarray(labels, dtype=bool)


def value_scorer(method: MethodConfig) -> ValueScorer:
    """Value of the target's copy under ``method``.

    A private method draws its noise from the seed of each call, with the
    rest of its DP parameters (a fixed sigma, q and delta) taken as given.
    """

    def score(context: Dataset, target: LabeledPoint, zvals: Dataset, seed: int) -> float:
        m = method if method.dp is None else replace(method, dp=replace(method.dp, seed=seed))
        return float(compute_values(context.with_point(target), zvals, m).scores[-1])

    return score
