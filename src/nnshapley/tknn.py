"""Threshold-KNN Shapley: closed form from three counting queries.

For one validation point, the value of a training point depends on its own
threshold membership and label match plus three counts over the rest of the
data: c = |D_-z|, c_x = 1 + (neighbors of the validation point within tau in
D_-z), and c_zplus = same-label neighbors in D_-z. The count triple for every
leave-one-out set follows from the full-data triple by O(1) decrements, which
is what makes the full score vector O(N) per validation point.

The interaction term has the exact closed form A2(c, c_x) = H_{c_x} - 1,
which follows from sum_{j=1}^{n} C(n-j, m)/j = C(n, m)(H_n - H_m) (derived in
:func:`a2_term`), and is evaluated in numpy alone: an exactly rounded table
below c_x = 32 and the asymptotic series of H_n from there on. It does not
depend on c, so c affects scores only through the clamping of a privatized
triple. Releasing just the two counts that matter would lower the
sensitivity to sqrt(2), but it changes the paper's mechanism, and the
acceptance suite pins three draws per validation point (criterion 4); it is
out of scope.

Within one validation row every in-threshold point takes one of four values,
chosen by its label match and by whether it lies in the row's neighbourhood
(the sampled one, for a subsampled private release). :func:`tknn_value_table`
computes those four values for many rows at once from each row's full-data
triple, exact or privatized: it applies the leave-one-out decrements, clamps
and evaluates the closed form elementwise. :func:`tknn_gather` spreads the
table over the owners. The plain and the private release and
:func:`tknn_shapley_from_counts` go through this one kernel, so all of them
agree bit for bit; a single-point value, :func:`tknn_shapley_single`, is the
plain release on a one-point validation set.

Both releases sum over the validation set in one tiled pass,
:func:`tknn_tiled_sum`, whose shape does not depend on N: validation rows
are taken in groups of ``_ROW_GROUP`` and training columns in tiles of
``_COLUMN_TILE``, and the row groups go through the one validation driver,
:func:`nnshapley.dataset.sum_over_validation`. Pass 1 is the driver's
``work``: it computes each tile's distances once, adds the tile's threshold
counts to each row's integer (c_x, c_zplus) and writes a uint8 flag code per
(row, point) (:func:`tknn_flag_code`), so a row group holds R x N bytes,
never a float matrix with a row per validation point. It reads nothing but
the data and its own group, so worker threads may run it for several groups
at once. Pass 2 is the driver's ``add``, which runs in the calling thread,
one group at a time in validation order: the private release privatizes
the group's triples there, one row at a time; then it builds the group's
value tables and, tile by tile, gathers the tile's score rows into one
(R, C) buffer allocated once per group and adds them to the tile's columns of
the running total with :func:`nnshapley.dataset.add_rows`, the row adder of
every release, one row after the other, starting from the total. Every
column of the result is therefore ((0 + s_0) + s_1) + ... in validation
order, whatever R, C or the thread count, and the integer counts are exact
in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import (
    Dataset,
    DistanceMetric,
    LabeledPoint,
    add_rows,
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
        if math.isnan(self.tau):  # +-inf are allowed: every point or none is within
            raise ParameterError("tau must be a number, not NaN")
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


def _harmonic_minus_one(size: int) -> np.ndarray:
    """H_n - 1 for n < ``size``, each exactly rounded (entry 0 is H_0 - 1 = -1).

    H_n is carried as an integer ratio p/q, and dividing Python integers
    rounds correctly.
    """
    p, q, values = 0, 1, [-1.0]
    for n in range(1, size):
        p, q = p * n + q, q * n
        values.append((p - q) / q)
    return np.array(values)


_SERIES_FROM = 32  # below it A2 is a table entry, from it on the series
_H_MINUS_ONE = _harmonic_minus_one(_SERIES_FROM)
_GAMMA_MINUS_ONE = np.euler_gamma - 1.0


def a2_term(c, c_x):
    """A2(c, c_x) = sum_{k=0}^{c} (1 - C(c-k, c_x)/C(c+1, c_x)) / (k+1)  -  1  =  H_{c_x} - 1.

    Substituting j = k + 1 turns the binomial part into
    sum_{j=1}^{n} C(n-j, m)/j with n = c + 1 and m = c_x, and that sum equals
    C(n, m)(H_n - H_m) (induction on n, using Pascal's rule and
    C(n, m)/n = C(n-1, m-1)/m). The harmonic parts H_{c+1} cancel, leaving
    H_{c_x} - 1. The count c only bounds the admissible c_x, so it reaches
    the scores only through the clamping of a privatized triple; a two-count
    release is out of scope because the three-draw mechanism is pinned by
    acceptance criterion 4.

    H_n - 1 is evaluated for integer n = c_x without scipy. For n < 32 it is
    a table entry, exactly rounded from the rational H_n. From n = 32 on it
    is the Euler-Maclaurin expansion of sum 1/j,
    H_n = ln n + gamma + 1/(2n) - sum_{k>=1} B_2k / (2k n^2k)
        = ln n + gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4) - 1/(252n^6) + 1/(240n^8) - ...,
    taken through the n^-8 term with r = 1/n^2 in Horner form:
    ln n + (gamma - 1) + 1/(2n) - r(1/12 - r(1/120 - r(1/252 - r/240))).
    The series encloses H_n, so the truncation error is below the first
    omitted term, 1/(132 n^10), which at n = 32 is 6.7e-18, under 2% of an
    ulp of H_32 - 1 (4.4e-16) and smaller beyond. The small terms are summed
    with gamma - 1 before ln n is added, which keeps every value within 1 ulp
    of the exactly rounded one (the tests check n up to 10^6). Elementwise
    over arrays of integer-valued counts; raises if any element is out of
    range.
    """
    if np.any((c_x < 1) | (c_x > c + 1)):
        raise ParameterError("a2_term needs 1 <= c_x <= c + 1")
    n = np.asarray(c_x, dtype=np.float64)
    exact = _H_MINUS_ONE[np.minimum(n, _SERIES_FROM - 1).astype(np.intp)]
    m = np.maximum(n, _SERIES_FROM)  # table elements get a finite series value, discarded below
    r = 1.0 / (m * m)
    tail = 0.5 / m - r * (1.0 / 12 - r * (1.0 / 120 - r * (1.0 / 252 - r / 240)))
    return np.where(n < _SERIES_FROM, exact, np.log(m) + (_GAMMA_MINUS_ONE + tail))[()]


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


def tknn_flag_code(within: np.ndarray, match: np.ndarray, in_nb: np.ndarray) -> np.ndarray:
    """Column of every (row, point) in the row's value lookup, as uint8.

    0 for a point outside the threshold, else ``1 + 2 * nb + m``, the entry
    ``table[r, nb, m]`` of :func:`tknn_gather`'s lookup. ``in_nb`` marks the
    points of each row's sampled neighbourhood, which is ``within`` itself when
    nothing is subsampled.
    """
    code = in_nb.view(np.uint8) * np.uint8(2)
    code += match.view(np.uint8)
    code += np.uint8(1)
    code *= within.view(np.uint8)
    return code


def tknn_gather(table: np.ndarray, code: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Score matrix of validation rows from their value tables and flag codes.

    ``table[r, nb, m]`` is the value of an in-threshold point of row r with
    neighbourhood flag nb and label match m; ``code`` comes from
    :func:`tknn_flag_code` (any column range of the rows), and code 0, a point
    outside the threshold, scores exactly zero. One flat gather, written into
    ``out`` when given.
    """
    rows = table.shape[0]
    lookup = np.zeros((rows, 5))  # column 0 holds the out-of-threshold zero
    lookup[:, 1:] = table.reshape(rows, 4)
    index = np.arange(0, 5 * rows, 5)[:, None] + code
    # Every index is in range; "clip" only lets take write into ``out`` unbuffered.
    return lookup.reshape(-1).take(index, out=out, mode="clip")


def _descriptor(cfg: TknnConfig, num_classes: int, weight: str = "shapley") -> MethodDescriptor:
    return MethodDescriptor(
        name="tknn-shapley" if weight == "shapley" else "tknn-semivalue",
        num_classes=num_classes,
        metric=cfg.metric.value,
        tau=cfg.tau,
        weight=weight,
    )


_ROW_GROUP = 32  # validation rows per group of the tiled pass
_COLUMN_TILE = 4096  # training columns per tile: an (R, C) float64 array is 1 MiB


def tknn_tiled_sum(
    ds: Dataset,
    cfg: TknnConfig,
    dval: Dataset,
    num_classes: int,
    threads: int = 1,
    sample: Callable[[int, int], np.ndarray] | None = None,
    release: Callable[..., Sequence[np.ndarray]] | None = None,
) -> np.ndarray:
    """Sum of the TKNN score rows over the validation set, shape (N,).

    ``sample(lo, hi)``, when given, stacks the Poisson masks of kept training
    points of validation points lo to hi - 1, one (N,) row each (a row's
    sampled neighbourhood is the kept part of its threshold set, and c is the
    number kept); ``release(lo, c, c_x, c_zplus)`` maps a row group's count
    triples, starting at validation index ``lo``, to the triples its value
    tables are built from. Without them this is the plain release.
    :func:`nnshapley.dataset.sum_over_validation` drives the row groups:
    pass 1 is its ``work``, which may run on ``threads`` workers, and
    ``release`` with pass 2 is its ``add``, which runs in the calling thread
    in validation order (see the module docstring). Pass 2 gathers each
    column tile's score rows with :func:`tknn_gather` into one buffer
    allocated per row group, the last, narrower tile into a contiguous prefix
    of it, and adds them with :func:`nnshapley.dataset.add_rows`.
    """
    n = ds.n
    tiles = [(c0, min(c0 + _COLUMN_TILE, n)) for c0 in range(0, n, _COLUMN_TILE)]

    def count(lo: int, hi: int, norms: np.ndarray | None) -> tuple:
        features, labels = dval.features[lo:hi], dval.labels[lo:hi, None]
        if sample is None:
            code = np.empty((hi - lo, n), dtype=np.uint8)
            c = np.full(hi - lo, n)
        else:  # the code array holds the sample masks until the tiles overwrite them
            keep = sample(lo, hi)
            code, c = keep.view(np.uint8), keep.sum(axis=1)
        counts = np.zeros((2, hi - lo), dtype=np.int64)  # c_x - 1 and c_zplus
        for c0, c1 in tiles:
            tile_norms = None if norms is None else norms[c0:c1]
            dist = distance_matrix(cfg.metric, ds.features[c0:c1], features, tile_norms)
            within = dist <= cfg.tau
            match = ds.labels[c0:c1] == labels
            in_nb = within if sample is None else within & code[:, c0:c1].view(bool)
            counts[0] += in_nb.sum(axis=1)
            counts[1] += (in_nb & match).sum(axis=1)
            code[:, c0:c1] = tknn_flag_code(within, match, in_nb)
        return lo, code, (c, 1 + counts[0], counts[1])

    def accumulate(total: np.ndarray, part: tuple) -> None:
        lo, code, triples = part
        if release is not None:
            triples = release(lo, *triples)
        table = tknn_value_table(*triples, num_classes)
        buffer = np.empty(len(code) * min(n, _COLUMN_TILE))  # one tile's score rows
        for c0, c1 in tiles:
            rows = buffer[: len(code) * (c1 - c0)].reshape(len(code), c1 - c0)
            add_rows(total[c0:c1], tknn_gather(table, code[:, c0:c1], out=rows))

    groups = [(lo, min(lo + _ROW_GROUP, dval.n)) for lo in range(0, dval.n, _ROW_GROUP)]
    return sum_over_validation(ds, dval, cfg.metric, groups, count, accumulate, threads)


def tknn_shapley_single(
    ds: Dataset,
    cfg: TknnConfig,
    zval: LabeledPoint,
    num_classes: int,
) -> ValuationResult:
    """Exact TKNN-Shapley for one validation point: the release on it alone."""
    dval = Dataset(zval.features[None, :], [zval.label], num_classes)
    return tknn_shapley_all(ds, cfg, dval, num_classes)


def tknn_shapley_all(
    ds: Dataset,
    cfg: TknnConfig,
    dval: Dataset,
    num_classes: int,
    threads: int = 1,
) -> ValuationResult:
    """Exact TKNN-Shapley summed over a validation set."""
    total = tknn_tiled_sum(ds, cfg, dval, num_classes, threads)
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
