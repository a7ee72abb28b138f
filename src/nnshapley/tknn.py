"""Threshold-KNN Shapley: closed form from three counting queries.

For one validation point, the value of a training point depends on its own
threshold membership and label match plus three counts over the rest of the
data: c = |D_-z|, c_x = 1 + (neighbors of the validation point within tau in
D_-z), and c_zplus = same-label neighbors in D_-z. The count triple for every
leave-one-out set follows from the full-data triple by O(1) decrements, which
is what makes the full score vector O(N) per validation point.

The interaction term has the exact closed form A2(c, c_x) = H_{c_x} - 1,
which follows from sum_{j=1}^{n} C(n-j, m)/j = C(n, m)(H_n - H_m) (derived in
:func:`a2_term`). It does not depend on c, so c affects scores only through
the clamping of a privatized triple. Releasing just the two counts that
matter would lower the sensitivity to sqrt(2), but it changes the paper's
mechanism, and the acceptance suite pins three draws per validation point
(criterion 4); it is out of scope.

Within one validation row every in-threshold point takes one of four values,
chosen by its label match and by whether it lies in the row's neighbourhood
(the sampled one, for a subsampled private release). :func:`tknn_value_table`
computes those four values for many rows at once from each row's full-data
triple, exact or privatized: it applies the leave-one-out decrements, clamps
and evaluates the closed form elementwise. :func:`tknn_gather` spreads the
table over the owners. The plain and the private release and both scalar
entry points go through this one kernel, so all of them agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from .dataset import (
    Dataset,
    DistanceMetric,
    LabeledPoint,
    distance_matrix,
    distances_to,
    sum_over_validation,
)
from .errors import EnumerationLimitError, ParameterError
from .valuation import MethodDescriptor, SemivalueWeight, ValuationResult


@dataclass(frozen=True)
class TknnConfig:
    tau: float
    metric: DistanceMetric = DistanceMetric.NEGATIVE_COSINE

    def __post_init__(self) -> None:
        if self.metric is DistanceMetric.NEGATIVE_COSINE and not -1.0 <= self.tau <= 1.0:
            raise ParameterError("tau must lie in [-1, 1] for negative-cosine distance")


@dataclass(frozen=True)
class NeighborCounts:
    """The counting triple (c, c_x, c_zplus) on a leave-one-out dataset."""

    c: int
    c_x: int
    c_zplus: int

    def __post_init__(self) -> None:
        if self.c < 0:
            raise ParameterError("c must be nonnegative")
        if not 1 <= self.c_x <= self.c + 1:
            raise ParameterError(f"c_x = {self.c_x} outside [1, c + 1] for c = {self.c}")
        if not 0 <= self.c_zplus <= self.c_x - 1:
            raise ParameterError(
                f"c_zplus = {self.c_zplus} outside [0, c_x - 1] for c_x = {self.c_x}"
            )

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.c, self.c_x, self.c_zplus)


def counts_full(ds: Dataset, cfg: TknnConfig, zval: LabeledPoint) -> NeighborCounts:
    """One O(N) pass over the full dataset."""
    if ds.n == 0:
        return NeighborCounts(0, 1, 0)
    dist = distances_to(cfg.metric, ds.features, zval.features)
    within = dist <= cfg.tau
    c_x = 1 + int(within.sum())
    c_zplus = int((within & (ds.labels == zval.label)).sum())
    return NeighborCounts(ds.n, c_x, c_zplus)


def counts_leave_one_out(
    full: NeighborCounts,
    in_threshold: bool,
    label_match: bool,
) -> NeighborCounts:
    """Counts on D minus one point, from the full-data counts, in O(1).

    Raises when the decrements would violate the count invariants, which
    signals that the flags do not describe a point of the counted dataset.
    """
    dec = 1 if in_threshold else 0
    try:
        return NeighborCounts(
            full.c - 1,
            full.c_x - dec,
            full.c_zplus - (dec if label_match else 0),
        )
    except ParameterError as exc:
        raise ParameterError(f"inconsistent leave-one-out decrement: {exc}") from exc


def a2_term(c, c_x):
    """A2(c, c_x) = sum_{k=0}^{c} (1 - C(c-k, c_x)/C(c+1, c_x)) / (k+1)  -  1  =  H_{c_x} - 1.

    Substituting j = k + 1 turns the binomial part into
    sum_{j=1}^{n} C(n-j, m)/j with n = c + 1 and m = c_x, and that sum equals
    C(n, m)(H_n - H_m) (induction on n, using Pascal's rule and
    C(n, m)/n = C(n-1, m-1)/m). The harmonic parts H_{c+1} cancel, leaving
    H_{c_x} - 1, which is evaluated as digamma(c_x + 1) + gamma - 1. The count
    c only bounds the admissible c_x, so it reaches the scores only through
    the clamping of a privatized triple; a two-count release is out of scope
    because the three-draw mechanism is pinned by acceptance criterion 4.
    Elementwise over arrays; raises if any element is out of range.
    """
    if np.any((c_x < 1) | (c_x > c + 1)):
        raise ParameterError("a2_term needs 1 <= c_x <= c + 1")
    return digamma(c_x + 1.0) + np.euler_gamma - 1.0


def clamp_counts(c, c_x, c_zplus):
    """Clamp (noisy) counts to a valid triple, elementwise.

    The order keeps the triple self-consistent: c >= 0 first, then
    1 <= c_x <= c + 1, then 0 <= c_zplus <= c_x - 1.
    """
    c = np.maximum(c, 0)
    c_x = np.minimum(np.maximum(c_x, 1), c + 1)
    return c, c_x, np.minimum(np.maximum(c_zplus, 0), c_x - 1)


_NB = np.array([[0.0], [1.0]])  # neighbourhood flag, the table's second-last axis
_M = np.array([0.0, 1.0])  # label match, the table's last axis


def tknn_value_table(c, c_x, c_zplus, num_classes: int) -> np.ndarray:
    """Value of an in-threshold point for each row's full-data triple, (..., 2, 2).

    Entry ``[..., nb, m]`` belongs to a point with neighbourhood flag nb and
    label match m: the row's triple is decremented by (1, nb, nb * m) to the
    point's leave-one-out triple, clamped with :func:`clamp_counts`, and put
    through the closed form, all four flag pairs in one broadcast pass.
    Counts are carried as float64, which is exact below 2**53.
    """
    c, c_x, c_zplus = (np.asarray(a, dtype=np.float64)[..., None, None] for a in (c, c_x, c_zplus))
    lc, lx, lz = clamp_counts(c - 1.0, c_x - _NB, c_zplus - _NB * _M)
    base = (_M - 1.0 / num_classes) / lx
    # The interaction term is dropped at c_x = 1; the guard only keeps that
    # unused entry from dividing 0 by 0.
    inter = (_M / lx - lz / (lx * np.maximum(lx - 1.0, 1.0))) * a2_term(lc, lx)
    return np.where(lx < 2, base, base + inter)


def tknn_shapley_from_counts(
    counts: NeighborCounts,
    label_match: bool,
    in_threshold: bool,
    num_classes: int,
) -> float:
    """The closed-form value given the leave-one-out counting triple.

    A point outside the threshold has value exactly zero. The triple is
    handed to :func:`tknn_value_table` as the full-data triple it was
    decremented from, so the value is that of the table's entry.
    """
    if not in_threshold:
        return 0.0
    m = int(label_match)
    full = (counts.c + 1, counts.c_x + 1, counts.c_zplus + m)
    return float(tknn_value_table(*full, num_classes)[1, m])


def tknn_gather(
    table: np.ndarray, within: np.ndarray, match: np.ndarray, in_nb: np.ndarray
) -> np.ndarray:
    """Score matrix of a chunk of validation rows from their value tables.

    ``table[r, nb, m]`` is the value of an in-threshold point of row r with
    neighbourhood flag nb and label match m; points outside the threshold
    score exactly zero. ``in_nb`` marks the points of each row's sampled
    neighbourhood, which is ``within`` itself when nothing is subsampled.
    """
    rows = table.shape[0]
    lookup = np.zeros((rows, 5))  # column 0 holds the out-of-threshold zero
    lookup[:, 1:] = table.reshape(rows, 4)
    index = in_nb.view(np.uint8) * np.uint8(2)
    index += match.view(np.uint8)
    index += np.uint8(1)
    index *= within.view(np.uint8)
    return lookup.reshape(-1)[np.arange(0, 5 * rows, 5)[:, None] + index]


def _descriptor(cfg: TknnConfig, num_classes: int, weight: str = "shapley") -> MethodDescriptor:
    return MethodDescriptor(
        name="tknn-shapley" if weight == "shapley" else "tknn-semivalue",
        num_classes=num_classes,
        metric=cfg.metric.value,
        tau=cfg.tau,
        weight=weight,
    )


def tknn_score_matrix(
    ds: Dataset,
    cfg: TknnConfig,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    num_classes: int,
    train_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Score matrix (one row per validation point), O(N) per row.

    ``train_norms`` are the training norms from :func:`training_norms`, which
    a caller looping over validation chunks computes once.
    """
    within = distance_matrix(cfg.metric, ds.features, val_features, train_norms) <= cfg.tau
    match = ds.labels[None, :] == np.asarray(val_labels)[:, None]
    table = tknn_value_table(
        ds.n, 1 + within.sum(axis=1), (within & match).sum(axis=1), num_classes
    )
    return tknn_gather(table, within, match, within)


def tknn_shapley_single(
    ds: Dataset,
    cfg: TknnConfig,
    zval: LabeledPoint,
    num_classes: int,
) -> ValuationResult:
    scores = tknn_score_matrix(
        ds, cfg, zval.features[None, :], np.array([zval.label]), num_classes
    )[0]
    return ValuationResult(scores, _descriptor(cfg, num_classes), validation_size=1)


def tknn_shapley_all(
    ds: Dataset,
    cfg: TknnConfig,
    dval: Dataset,
    num_classes: int,
    threads: int = 1,
) -> ValuationResult:
    """Exact TKNN-Shapley summed over a validation set."""

    def chunk_sum(lo: int, hi: int, norms: np.ndarray | None) -> np.ndarray:
        return tknn_score_matrix(
            ds, cfg, dval.features[lo:hi], dval.labels[lo:hi], num_classes, norms
        ).sum(axis=0)

    total = sum_over_validation(ds, dval, cfg.metric, chunk_sum, threads)
    return ValuationResult(total, _descriptor(cfg, num_classes), validation_size=dval.n)


DEFAULT_SEMIVALUE_GUARD = 1000


def tknn_semivalue_generic(
    ds: Dataset,
    cfg: TknnConfig,
    weight: SemivalueWeight,
    zval: LabeledPoint,
    num_classes: int,
    max_n: int = DEFAULT_SEMIVALUE_GUARD,
) -> ValuationResult:
    """Semivalue with an arbitrary normalized weight, by direct summation.

    phi_i = 1[c_x >= 2] A1 (1/N) sum_k w(k+1) B(k)
          + (1[match] - 1/C) (1/N) sum_k w(k+1) C(N - c_x, k)
    with B(k) = C(N, k+1) - C(N - c_x, k+1) - c_x C(N - c_x, k), counts taken
    on the leave-one-out dataset. Exact integer binomials keep the sums stable
    up to the size guard; beyond that a weight-specific simplification (as
    done for the Shapley weight) is required.
    """
    n = ds.n
    if n > max_n:
        raise EnumerationLimitError(
            f"direct semivalue summation is guarded at N = {max_n}; got N = {n}"
        )
    descriptor = _descriptor(cfg, num_classes, weight=weight.kind)
    if n == 0:
        return ValuationResult(np.zeros(0), descriptor, validation_size=1)
    w = weight.values(n)
    dist = distances_to(cfg.metric, ds.features, zval.features)
    within = dist <= cfg.tau
    match = ds.labels == zval.label
    cxp = int(within.sum())  # c_x on the leave-one-out dataset, the same for every point
    s_inter = 0.0
    s_base = 0.0
    for k in range(n):
        base = math.comb(n - cxp, k)
        b_k = math.comb(n, k + 1) - math.comb(n - cxp, k + 1) - cxp * base
        s_inter += w[k] * b_k
        s_base += w[k] * base
    s_inter, s_base = s_inter / n, s_base / n
    m = match[within].astype(np.float64)
    value = (m - 1.0 / num_classes) * s_base
    if cxp >= 2:
        czp = int((within & match).sum()) - m  # c_z+ on the leave-one-out dataset
        value += (m / cxp - czp / (cxp * (cxp - 1.0))) * s_inter
    scores = np.zeros(n)
    scores[within] = value
    return ValuationResult(scores, descriptor, validation_size=1)
