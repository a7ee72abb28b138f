"""Core data types, distance metrics, CSV ingestion, synthetic data, corruption.

A :class:`Dataset` is an ordered collection of labeled feature vectors; the
position of a point is its owner identity and is preserved by every operation
that returns per-point results.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

from ._rng import TAG_CORRUPT, TAG_DATA, stream
from .errors import DataError, DataWarning, ParameterError


class DistanceMetric(str, Enum):
    """Supported distance measures. Smaller values always mean closer."""

    EUCLIDEAN = "euclidean"
    NEGATIVE_COSINE = "negative-cosine"

    @classmethod
    def parse(cls, name: str) -> "DistanceMetric":
        normalized = name.strip().lower().replace("_", "-")
        if normalized in ("euclidean", "l2"):
            return cls.EUCLIDEAN
        if normalized in ("negative-cosine", "cosine", "neg-cosine"):
            return cls.NEGATIVE_COSINE
        raise ParameterError(f"unknown distance metric: {name!r}")


@dataclass(frozen=True)
class LabeledPoint:
    """A single training or validation example."""

    features: np.ndarray
    label: int

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 1:
            raise ParameterError("features must be a 1-d vector")
        feats = feats.copy()
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "label", int(self.label))


@dataclass(frozen=True)
class Dataset:
    """Ordered labeled points with a declared class count.

    Arrays are frozen after construction; all operations return new datasets.
    ``owners`` tracks the original index of each point across subsetting, so
    subsampled datasets remember who contributed each row.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    owners: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ParameterError("features must be an (N, d) matrix")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ParameterError("labels must be a length-N vector")
        if self.num_classes < 2:
            raise ParameterError("num_classes must be at least 2")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ParameterError("labels must lie in [0, num_classes)")
        owners = self.owners
        if owners is None:
            owners = np.arange(feats.shape[0], dtype=np.int64)
        else:
            owners = np.asarray(owners, dtype=np.int64)
            if owners.shape != labels.shape:
                raise ParameterError("owners must match the number of points")
        feats = feats.copy()
        labels = labels.copy()
        owners = owners.copy()
        for arr in (feats, labels, owners):
            arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "owners", owners)
        object.__setattr__(self, "num_classes", int(self.num_classes))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.n

    def point(self, i: int) -> LabeledPoint:
        return LabeledPoint(self.features[i], int(self.labels[i]))

    def points(self) -> Iterable[LabeledPoint]:
        for i in range(self.n):
            yield self.point(i)

    def subset(self, index: np.ndarray) -> "Dataset":
        """Rows selected by a boolean mask or index array; owners preserved."""
        index = np.asarray(index)
        if index.dtype != bool:
            index = index.astype(np.intp)
        return Dataset(
            self.features[index],
            self.labels[index],
            self.num_classes,
            owners=self.owners[index],
        )

    def without(self, i: int) -> "Dataset":
        keep = np.ones(self.n, dtype=bool)
        keep[i] = False
        return self.subset(keep)

    def with_point(self, z: LabeledPoint, owner: int | None = None) -> "Dataset":
        """A new dataset with ``z`` appended as the last point."""
        if self.n and z.features.shape[0] != self.dimension:
            raise ParameterError("appended point has wrong dimension")
        if owner is None:
            owner = int(self.owners.max()) + 1 if self.n else 0
        return Dataset(
            np.vstack([self.features, z.features[None, :]]) if self.n else z.features[None, :],
            np.concatenate([self.labels, [z.label]]),
            self.num_classes,
            owners=np.concatenate([self.owners, [owner]]),
        )


@dataclass(frozen=True)
class CorruptionRecord:
    """Ground truth for detection experiments: which points were corrupted."""

    corrupted_indices: tuple[int, ...]
    kind: str  # "label-flip" | "feature-noise"

    def to_json(self) -> str:
        return json.dumps({"indices": list(self.corrupted_indices), "kind": self.kind})

    def mask(self, n: int) -> np.ndarray:
        m = np.zeros(n, dtype=bool)
        m[list(self.corrupted_indices)] = True
        return m


def distance(metric: DistanceMetric, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two vectors under ``metric``: the :func:`distance_matrix` entry."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ParameterError("distance requires vectors of equal dimension")
    return float(distance_matrix(metric, a[None], b[None])[0, 0])


def distances_to(metric: DistanceMetric, features: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vector of distances from every row of ``features`` to the point ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if features.shape[0] == 0:
        return np.zeros(0)
    if features.shape[1] != x.shape[0]:
        raise ParameterError("distance requires vectors of equal dimension")
    return distance_matrix(metric, features, x[None, :])[0]


_EUCLIDEAN_CHUNK_ELEMS = 1 << 24  # bounds the (v, N, d) difference tensor


def training_norms(metric: DistanceMetric, features: np.ndarray) -> np.ndarray | None:
    """The per-row norms :func:`distance_matrix` needs, or None for Euclidean.

    A caller that scores many validation chunks against one training set
    computes these once and passes them to every chunk.
    """
    if metric is DistanceMetric.NEGATIVE_COSINE:
        with np.errstate(over="ignore"):  # distance_matrix rejects an overflowed norm
            return np.linalg.norm(features, axis=1)
    return None


def distance_matrix(
    metric: DistanceMetric,
    features: np.ndarray,
    val_features: np.ndarray,
    train_norms: np.ndarray | None = None,
) -> np.ndarray:
    """All pairwise distances, one row per validation point: shape (V, N).

    Identical rows of input produce bit-identical distance rows, which is what
    preserves the index tie-break for exact duplicates. ``train_norms``, from
    :func:`training_norms`, saves recomputing the training norms per call.
    """
    val_features = np.asarray(val_features, dtype=np.float64)
    n = features.shape[0]
    v = val_features.shape[0]
    if n == 0 or v == 0:
        return np.zeros((v, n))
    if features.shape[1] != val_features.shape[1]:
        raise ParameterError("distance requires vectors of equal dimension")
    if metric is DistanceMetric.NEGATIVE_COSINE:
        norms = training_norms(metric, features) if train_norms is None else train_norms
        with np.errstate(over="ignore"):  # an overflowed norm is rejected below
            vnorms = np.linalg.norm(val_features, axis=1)
            bound = norms.max() * vnorms.max()  # bounds every |dot product|
        if np.any(norms == 0.0) or np.any(vnorms == 0.0):
            raise DataError("negative-cosine distance is undefined for zero vectors")
        if not np.isfinite(bound):
            raise DataError("negative-cosine distance overflows; L2-normalize the features")
        return -(val_features @ features.T) / (vnorms[:, None] * norms[None, :])
    # Euclidean by direct differences, chunked to bound the (v, N, d) tensor;
    # exact duplicates subtract to exactly zero, unlike the norm-expansion trick.
    d = features.shape[1]
    out = np.empty((v, n))
    step = max(1, _EUCLIDEAN_CHUNK_ELEMS // max(n * d, 1))
    for lo in range(0, v, step):
        hi = min(lo + step, v)
        diff = val_features[lo:hi, None, :] - features[None, :, :]
        out[lo:hi] = np.sqrt(np.einsum("vnd,vnd->vn", diff, diff))
    return out


_SCORE_CHUNK_ELEMS = 1 << 22  # bounds per-chunk (v, N) work arrays
_SCORE_CHUNK_MAX_ROWS = 512


def validation_chunks(n_val: int, n_train: int) -> list[tuple[int, int]]:
    """Shared chunking of a validation set so every scorer sees the same splits."""
    rows = max(1, min(_SCORE_CHUNK_MAX_ROWS, _SCORE_CHUNK_ELEMS // max(n_train, 1)))
    return [(lo, min(lo + rows, n_val)) for lo in range(0, n_val, rows)]


def sum_over_validation(
    ds: Dataset,
    dval: Dataset,
    metric: DistanceMetric,
    chunk_sum: Callable[[int, int, np.ndarray | None], np.ndarray],
    threads: int = 1,
) -> np.ndarray:
    """Sum of the per-point score vectors over the validation set, shape (N,).

    Rejects an empty validation set, computes the training norms once and
    calls ``chunk_sum(lo, hi, norms)`` for each :func:`validation_chunks`
    slice, on up to ``threads`` workers when there is more than one chunk.
    Each chunk's (N,) sum is added to the running total in chunk order, so the
    result is bit-identical at any ``threads``. A DP release passes
    ``threads=1`` so that its keyed noise streams are drawn in order.
    """
    if dval.n == 0:
        raise ParameterError("validation set must be nonempty")
    chunks = validation_chunks(dval.n, ds.n)
    norms = training_norms(metric, ds.features)
    total = np.zeros(ds.n)
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(lambda bounds: chunk_sum(*bounds, norms), chunks):
                total += part
    else:
        for lo, hi in chunks:
            total += chunk_sum(lo, hi, norms)
    return total


def load_csv(
    path: str | Path,
    label_column: int | str = -1,
    l2_normalize: bool = False,
    num_classes: int | None = None,
) -> Dataset:
    """Read one point per row from a comma-delimited UTF-8 file.

    The label column is selected by zero-based index (negative allowed) or,
    when the file has a header row, by name. A header is assumed whenever the
    first row contains any cell that does not parse as a number.

    Each line is one row. Blank lines and rows whose cells are all whitespace
    are skipped. A cell is a C ``strtod`` number with optional surrounding
    whitespace and optional double quotes; there is no comment character, and
    a quoted cell ends on its own line. Labels must be integer-valued.

    Without ``num_classes`` the class count is one more than the largest
    label. If some class below it has no training point, a :class:`DataWarning`
    names the largest label, since one stray label can set a huge class count.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    # read_text turns \r\n and \r into \n: the row ends csv.reader recognizes.
    # str.splitlines would also split at \x0c, \x1c-\x1e, \x85 and \u2028.
    lines = [
        line for line in path.read_text(encoding="utf-8").split("\n") if not _is_blank_row(line)
    ]
    if not lines:
        raise DataError(f"empty file: {path}")

    header: list[str] | None = None
    first = _csv_row(lines[0])
    if any(not _is_number(cell) for cell in first):
        header = [cell.strip() for cell in first]
        lines = lines[1:]
        if not lines:
            raise DataError(f"file has a header but no data rows: {path}")

    # comments=None: loadtxt would otherwise drop everything after a '#'.
    try:
        table = np.loadtxt(
            lines, delimiter=",", quotechar='"', comments=None, dtype=np.float64, ndmin=2
        )
    except ValueError as exc:
        _raise_first_bad_row(lines, label_column, header, str(exc))
    if table.shape[0] != len(lines):
        _raise_first_bad_row(lines, label_column, header, "a quoted cell spans more than one line")
    label_idx = _label_index(label_column, header, table.shape[1])
    raw_labels = table[:, label_idx]
    if not np.all(np.isfinite(raw_labels) & (raw_labels == np.floor(raw_labels))):
        _raise_first_bad_row(lines, label_column, header, "a label is not an integer")

    feats = np.delete(table, label_idx, axis=1)
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0]) + 1
        raise DataError(f"row {bad}: non-finite feature value")
    if raw_labels.min() < 0:
        raise DataError("labels must be nonnegative integers")
    if raw_labels.max() >= 2.0**63:
        raise DataError("labels must be below 2**63")
    lab = raw_labels.astype(np.int64)
    if l2_normalize:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(feats, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.flatnonzero(norms == 0.0)[0]) + 1
            raise DataError(f"row {bad}: cannot L2-normalize a zero feature vector")
        if not np.all(np.isfinite(norms)):
            bad = int(np.flatnonzero(~np.isfinite(norms))[0]) + 1
            raise DataError(f"row {bad}: feature norm overflows; cannot L2-normalize")
        feats = feats / norms[:, None]
    if num_classes is None:
        c = int(lab.max()) + 1
        empty = c - np.unique(lab).size
        if empty:
            warnings.warn(
                f"the largest label, {c - 1}, makes {c} classes, {empty} of them with no point "
                f"in {path.name}; pass num_classes (--num-classes) if that is not intended",
                DataWarning,
                stacklevel=2,
            )
    else:
        c = int(num_classes)
    if c < 2:
        raise DataError(
            "dataset declares fewer than 2 classes; pass num_classes explicitly to override"
        )
    if lab.max() >= c:
        bad = int(np.flatnonzero(lab >= c)[0]) + 1
        raise DataError(f"row {bad}: label {lab[bad - 1]} is not below the class count {c}")
    return Dataset(feats, lab, c)


def _label_index(label_column: int | str, header: list[str] | None, arity: int) -> int:
    if isinstance(label_column, str):
        if header is None:
            raise DataError(
                f"label column {label_column!r} requested by name but the file has no header"
            )
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not found in header {header}")
        label_idx = header.index(label_column)
    else:
        label_idx = label_column if label_column >= 0 else arity + label_column
    if not 0 <= label_idx < arity:
        raise DataError(f"label column {label_column!r} out of range for {arity} columns")
    return label_idx


def _raise_first_bad_row(
    lines: list[str], label_column: int | str, header: list[str] | None, fallback: str
) -> NoReturn:
    """Name the first malformed data row, checked as ragged, then label, then feature.

    Runs only after the table parse has failed or found a non-integer label,
    and always raises: ``fallback`` when no row breaks these checks.
    """
    rows = [_csv_row(line) for line in lines]
    arity = len(rows[0])
    label_idx = _label_index(label_column, header, arity)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != arity:
            raise DataError(f"ragged row {lineno}: expected {arity} fields, got {len(row)}")
        try:
            _parse_label(row[label_idx])
        except ValueError:
            raise DataError(
                f"row {lineno}: label {row[label_idx]!r} does not parse to an integer"
            ) from None
        try:
            [float(cell) for j, cell in enumerate(row) if j != label_idx]
        except ValueError:
            raise DataError(f"row {lineno}: non-numeric feature value") from None
    raise DataError(fallback)


def generate_gaussian_synthetic(n: int, d: int, seed: int) -> Dataset:
    """Standard-Gaussian features; label 1 when the feature sum is positive."""
    if n < 1 or d < 1:
        raise ParameterError("synthetic generation requires n >= 1 and d >= 1")
    rng = stream(seed, TAG_DATA, 0)
    feats = rng.standard_normal((n, d))
    labels = (feats.sum(axis=1) > 0.0).astype(np.int64)
    return Dataset(feats, labels, 2)


def flip_labels(ds: Dataset, rate: float, seed: int) -> tuple[Dataset, CorruptionRecord]:
    """Flip round(rate*N) labels, each to a uniformly chosen different class."""
    m = _corruption_count(ds.n, rate)
    rng = stream(seed, TAG_CORRUPT, 1)
    chosen = np.sort(rng.choice(ds.n, size=m, replace=False))
    labels = ds.labels.copy()
    draws = rng.integers(0, ds.num_classes - 1, size=m)
    new = draws + (draws >= labels[chosen])  # uniform over the other C-1 classes
    labels[chosen] = new
    out = Dataset(ds.features, labels, ds.num_classes, owners=ds.owners)
    return out, CorruptionRecord(tuple(int(i) for i in chosen), "label-flip")


def add_feature_noise(ds: Dataset, rate: float, seed: int) -> tuple[Dataset, CorruptionRecord]:
    """Add zero-mean Gaussian noise to round(rate*N) points.

    The per-dimension noise scale is the mean absolute value of that dimension
    over the uncorrupted dataset.
    """
    m = _corruption_count(ds.n, rate)
    rng = stream(seed, TAG_CORRUPT, 2)
    chosen = np.sort(rng.choice(ds.n, size=m, replace=False))
    sigma = np.mean(np.abs(ds.features), axis=0)
    feats = ds.features.copy()
    feats[chosen] = feats[chosen] + rng.standard_normal((m, ds.dimension)) * sigma
    out = Dataset(feats, ds.labels, ds.num_classes, owners=ds.owners)
    return out, CorruptionRecord(tuple(int(i) for i in chosen), "feature-noise")


def _corruption_count(n: int, rate: float) -> int:
    if not 0.0 < rate < 1.0:
        raise ParameterError("corruption rate must lie strictly between 0 and 1")
    return int(np.floor(rate * n + 0.5))


_CELL_TEXT = re.compile(r'[^\s,"]')  # a character csv.reader keeps in some cell


def _is_blank_row(line: str) -> bool:
    """Whether csv.reader reads ``line`` as no row or as whitespace-only cells."""
    if _CELL_TEXT.search(line):
        return False
    return '"' not in line or not any(cell.strip() for cell in _csv_row(line))


def _csv_row(line: str) -> list[str]:
    return next(csv.reader([line]), [])


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _parse_label(cell: str) -> int:
    text = cell.strip()
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if value.is_integer():
            return int(value)
        raise
