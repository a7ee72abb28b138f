"""Core data types, distance metrics, CSV ingestion, synthetic data, corruption.

A :class:`Dataset` is an ordered collection of labeled feature vectors; the
position of a point is its owner identity and is preserved by every operation
that returns per-point results.
"""

from __future__ import annotations

import csv
import json
import numbers
import operator
import re
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence

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


def _check_finite(features: np.ndarray) -> None:
    if not np.isfinite(features).all():
        raise ParameterError("features must be finite")


def _integer(value: Any, what: str) -> int:
    """``value`` as an int: an integer, or a real number with an integral value."""
    try:
        return operator.index(value)
    except TypeError:
        pass
    if isinstance(value, numbers.Real) and float(value).is_integer():  # not NaN or infinite
        return int(value)
    raise ParameterError(f"{what} {value!r} is not an integer")


def _class_count(value: Any) -> int:
    count = _integer(value, "num_classes")
    if count < 2:
        raise ParameterError(f"num_classes must be at least 2; got {count}")
    return count


@dataclass(frozen=True)
class LabeledPoint:
    """A single training or validation example."""

    features: np.ndarray
    label: int

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 1:
            raise ParameterError("features must be a 1-d vector")
        _check_finite(feats)
        label = _integer(self.label, "label")
        feats = feats.copy()
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "label", label)


@dataclass(frozen=True)
class Dataset:
    """Ordered labeled points with a declared class count.

    Features are finite and labels integers in [0, num_classes). Every release
    takes the class count C from its training set, whose utilities score an
    empty neighbourhood 1/C; a validation set must declare the same C.
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
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ParameterError("features must be an (N, d) matrix")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ParameterError("labels must be a length-N vector")
        _check_finite(feats)
        if labels.dtype.kind not in "biu":
            labels = labels.astype(np.float64)
            if not np.all(labels == np.floor(labels)):  # NaN fails here, +-inf the range check
                raise ParameterError("labels must be integers")
        num_classes = _class_count(self.num_classes)
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ParameterError("labels must lie in [0, num_classes)")
        labels = labels.astype(np.int64)
        owners = self.owners
        if owners is None:
            owners = np.arange(feats.shape[0], dtype=np.int64)
        else:
            owners = np.asarray(owners, dtype=np.int64)
            if owners.shape != labels.shape:
                raise ParameterError("owners must match the number of points")
        feats = feats.copy()
        owners = owners.copy()
        for arr in (feats, labels, owners):
            arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "owners", owners)
        object.__setattr__(self, "num_classes", num_classes)

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
    return distance_matrix(metric, features, np.asarray(x, dtype=np.float64)[None, :])[0]


_NORM_BLOCK_ELEMS = 1 << 17  # bounds the squared-features temporary of a row-norm block


# The one budget of a row group's float temporaries, in entries: it sets the
# height of the KNN scorers' row groups (see validation_chunks) and, within
# any distance_matrix call, of the Euclidean (v, N, d) difference tensor.
_SCORE_CHUNK_ELEMS = 1 << 20


# Multiply-adds per block of the cosine product: OpenBLAS (interface/gemm.c)
# runs a GEMM of at most GEMM_MULTITHREAD_THRESHOLD (4) x 65536 of them on
# the calling thread.
_GEMM_BLOCK = 1 << 18
_GEMM_MAX_DIMENSION = 32  # a product of larger d is one block, which OpenBLAS may thread
_GEMM_MIN_COLUMNS = 256  # rows per block shrink before columns fall below this
_GEMM_ALIGN = 16  # a multiple of the row and column unrolls of OpenBLAS's x86-64 dgemm kernels

# Entries of the denominator of one group of rows of the cosine division: at
# 1 << 17 (1 MiB) a 32 x 4096 division took four times as long. One row per
# group took 15 times as long at mia-audit's 64 x 26.
_DIVIDE_BLOCK_ELEMS = 1 << 16


def _gemm_block(v: int, n: int, d: int) -> tuple[int, int]:
    """Rows and columns of one block of the cosine product of a (V, d) by an (N, d) matrix.

    Up to d = ``_GEMM_MAX_DIMENSION`` a block holds all V rows while they fit
    in the budget with ``_GEMM_MIN_COLUMNS`` columns, else the most that do,
    and as many columns as the budget leaves; a split count is rounded down
    to a multiple of ``_GEMM_ALIGN``, and a block never exceeds
    ``_GEMM_BLOCK``. There the product is bound by writing its output, and
    OpenBLAS's second thread mostly spins. Beyond that d the product is one
    block, which OpenBLAS may split over its pool, whose threads then do real
    work: at N = 1e5, V = 200 and one thread, blocks made a KNN or TKNN
    valuation up to 1.8 times slower at d = 48 and 64, and up to 4 times at
    d = 512 with one or two rows per block, while up to d = 32 they were
    about as fast and used half the CPU time.
    """
    if d > _GEMM_MAX_DIMENSION:
        return v, n
    rows = _GEMM_BLOCK // (d * _GEMM_MIN_COLUMNS)
    rows = v if rows >= v else rows - rows % _GEMM_ALIGN
    cols = _GEMM_BLOCK // (rows * d)
    return rows, cols - cols % _GEMM_ALIGN


def row_norms(features: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(features, axis=1)``, computed over blocks of rows.

    Each row's norm is the sum over that row alone, so it has the same bits
    in any block; the blocks bound the squared-features temporary, which the
    one-shot call allocates at the size of the whole matrix.
    """
    step = max(1, _NORM_BLOCK_ELEMS // max(features.shape[1], 1))
    out = np.empty(features.shape[0])
    with np.errstate(over="ignore"):  # callers reject an overflowed norm
        for lo in range(0, features.shape[0], step):
            out[lo : lo + step] = np.linalg.norm(features[lo : lo + step], axis=1)
    return out


def training_norms(metric: DistanceMetric, features: np.ndarray) -> np.ndarray | None:
    """The per-row norms :func:`distance_matrix` needs, or None for Euclidean.

    A caller that scores many validation chunks against one training set
    computes these once and passes them to every chunk.
    """
    if metric is DistanceMetric.NEGATIVE_COSINE:
        return row_norms(features)
    return None


def distance_matrix(
    metric: DistanceMetric,
    features: np.ndarray,
    val_features: np.ndarray,
    train_norms: np.ndarray | None = None,
) -> np.ndarray:
    """All pairwise distances, one row per validation point: shape (V, N).

    A Euclidean entry is computed from its own pair alone, so identical rows
    of input give bit-identical distances wherever they sit. A cosine entry
    comes from a BLAS product, whose rounding may depend on the entry's place
    in the product, so exact duplicates can differ in the last bit; the KNN
    index tie-break then sees a strict order. The cosine product is taken in
    the blocks of :func:`_gemm_block`, each written in place into the output,
    which is then divided by the norms in groups of rows, so no (V, N)
    temporary exists besides the output. Up to d = 32 each block is at most
    ``_GEMM_BLOCK`` multiply-adds, which OpenBLAS runs on the calling thread,
    so its thread pool never spins against the program's own workers.
    ``train_norms``, from :func:`training_norms`, saves recomputing the
    training norms per call.
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
        out = np.empty((v, n))
        rows, cols = _gemm_block(v, n, features.shape[1])
        for r0 in range(0, v, rows):
            for c0 in range(0, n, cols):
                block = out[r0 : r0 + rows, c0 : c0 + cols]
                np.matmul(val_features[r0 : r0 + rows], features[c0 : c0 + cols].T, out=block)
        # -(dot) / (a * b) == dot / ((-a) * b) bit for bit: negation is exact.
        # Whole rows after the products: dividing each product block instead
        # took about 1.6 times as long.
        neg_vnorms, step = -vnorms, max(1, _DIVIDE_BLOCK_ELEMS // n)
        buffer = np.empty((min(step, v), n))
        for r0 in range(0, v, step):
            part = out[r0 : r0 + step]
            den = np.multiply(neg_vnorms[r0 : r0 + step, None], norms, out=buffer[: len(part)])
            np.divide(part, den, out=part)
        return out
    # Euclidean by direct differences, in chunks of rows whose (v, N, d)
    # tensor holds at most _SCORE_CHUNK_ELEMS entries (one row at a time once
    # N * d exceeds it). Exact duplicates subtract to exactly zero, unlike the
    # norm-expansion trick, and each entry sums over its own pair alone, so
    # the chunk height changes no bit.
    d = features.shape[1]
    out = np.empty((v, n))
    step = max(1, _SCORE_CHUNK_ELEMS // max(n * d, 1))
    for lo in range(0, v, step):
        diff = val_features[lo : lo + step, None, :] - features[None, :, :]
        out[lo : lo + step] = np.sqrt(np.einsum("vnd,vnd->vn", diff, diff))
    return out


_SCORE_CHUNK_MAX_ROWS = 512


def validation_chunks(n_val: int, n_train: int) -> list[tuple[int, int]]:
    """Row groups of the KNN scorers, whose sort needs whole rows, so a group's
    height is set by N: ``_SCORE_CHUNK_ELEMS // N`` rows, at least one and at
    most ``_SCORE_CHUNK_MAX_ROWS``. Each group's (rows, N) work arrays then
    hold at most ``_SCORE_CHUNK_ELEMS`` entries (one row beyond that N),
    whatever V. The height decides only how the work is cut:
    :func:`add_rows` adds the rows in validation order, so scores do not
    depend on it. The TKNN releases use fixed groups of ``_ROW_GROUP``."""
    rows = max(1, min(_SCORE_CHUNK_MAX_ROWS, _SCORE_CHUNK_ELEMS // max(n_train, 1)))
    return [(lo, min(lo + rows, n_val)) for lo in range(0, n_val, rows)]


def add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """Add a C-ordered (R, n) matrix of score rows to the (n,) ``total`` in place.

    The one place where score rows are added to a total, such as a view of
    one column tile of it: every column becomes
    ``((total + rows[0]) + rows[1]) + ...``, the rows in order. The total is
    folded into ``rows[0]``, which is overwritten (IEEE addition commutes, so
    that is ``total + rows[0]`` bit for bit). numpy then reduces axis 0 of the
    C-ordered matrix one row after the other; a single column is one
    contiguous run, which it would sum pairwise, so that case accumulates
    instead. A total that starts at +0.0 never becomes -0.0, so whether
    numpy's reduction starts from its identity or from the first row cannot
    show either.
    """
    rows[0] += total
    if rows.shape[1] == 1:
        total[:] = np.add.accumulate(rows, axis=0)[-1]
    else:
        np.add.reduce(rows, axis=0, out=total)


def sum_over_validation(
    ds: Dataset,
    dval: Dataset,
    metric: DistanceMetric,
    groups: Sequence[tuple[int, int]],
    work: Callable[[int, int, np.ndarray | None], Any],
    add: Callable[[np.ndarray, Any], object] = add_rows,
    threads: int = 1,
) -> np.ndarray:
    """Sum of the per-point score vectors over the validation set, shape (N,).

    The one loop over validation rows of every release. It rejects an empty
    validation set and one that declares another class count than ``ds``
    (the utilities score an empty neighbourhood 1/C, with C read from ``ds``),
    computes the training norms once and runs
    ``work(lo, hi, norms)`` for each row group ``(lo, hi)`` of ``groups``, on
    up to ``threads`` workers and never more than ``threads + 1`` results
    ahead of the running total. ``add(total, part)`` folds one group's result
    into the (N,) total, which starts at +0.0, in place. By default ``part``
    is the group's (hi - lo, N) score matrix and :func:`add_rows` adds its
    rows one after the other; the TKNN pass's ``add`` builds its rows tile
    by tile and hands each tile to :func:`add_rows` too. So every column of
    the result is ((0 + s_0) + s_1) + ... in validation order, whatever the
    groups. ``add`` runs in the calling thread, one group at a time in
    validation order. So
    ``work`` may run in any order and on any thread, while what ``add`` does
    (adding rows, privatizing counts) happens as in a single-threaded loop,
    and the result is bit-identical at any ``threads``.
    """
    if dval.n == 0:
        raise ParameterError("validation set must be nonempty")
    if dval.num_classes != ds.num_classes:
        raise ParameterError(
            f"validation set declares {dval.num_classes} classes, training set {ds.num_classes}"
        )
    norms = training_norms(metric, ds.features)
    total = np.zeros(ds.n)
    if threads < 2 or len(groups) < 2:
        for lo, hi in groups:
            add(total, work(lo, hi, norms))
        return total
    with ThreadPoolExecutor(threads) as pool:
        pending = deque()
        for lo, hi in groups:
            pending.append(pool.submit(work, lo, hi, norms))
            if len(pending) > threads:
                add(total, pending.popleft().result())
        while pending:
            add(total, pending.popleft().result())
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
    A given ``num_classes`` that is not an integer of at least 2 raises
    :class:`ParameterError` before the file is opened.
    """
    if num_classes is not None:
        num_classes = _class_count(num_classes)
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            return _load_rows(path, _data_lines(fh), label_column, l2_normalize, num_classes)
    except UnicodeDecodeError:
        # The file is decoded in pieces; decoding it whole raises the same
        # error with its byte position in the file.
        path.read_text(encoding="utf-8")
        raise


def _data_lines(fh: Iterable[str]) -> Iterator[str]:
    """The lines of a text file that csv.reader reads as rows, line ends removed.

    Text mode turns \\r\\n and \\r into \\n, the row end csv.reader
    recognizes, and a file iterates over lines split at \\n only
    (str.splitlines would also split at \\x0c, \\x1c-\\x1e, \\x85 and \\u2028).
    Blank lines and rows whose cells are all whitespace are left out.
    """
    for line in fh:
        line = line.removesuffix("\n")
        if not _is_blank_row(line):
            yield line


def _load_rows(
    path: Path,
    lines: Iterator[str],
    label_column: int | str,
    l2_normalize: bool,
    num_classes: int | None,
) -> Dataset:
    """:func:`load_csv` on the file's data lines, read once, one at a time."""
    first = next(lines, None)
    if first is None:
        raise DataError(f"empty file: {path}")

    header: list[str] | None = None
    cells = _csv_row(first)
    if any(not _is_number(cell) for cell in cells):
        header = [cell.strip() for cell in cells]
        first = next(lines, None)
        if first is None:
            raise DataError(f"file has a header but no data rows: {path}")

    count = 0

    def counted() -> Iterator[str]:
        nonlocal count
        for line in chain([first], lines):
            count += 1
            yield line

    # comments=None: loadtxt would otherwise drop everything after a '#'.
    try:
        table = np.loadtxt(
            counted(), delimiter=",", quotechar='"', comments=None, dtype=np.float64, ndmin=2
        )
    except ValueError as exc:
        _raise_first_bad_row(path, label_column, header, str(exc))
    if table.shape[0] != count:
        _raise_first_bad_row(path, label_column, header, "a quoted cell spans more than one line")
    label_idx = _label_index(label_column, header, table.shape[1])
    raw_labels = table[:, label_idx].copy()
    if not np.all(np.isfinite(raw_labels) & (raw_labels == np.floor(raw_labels))):
        _raise_first_bad_row(path, label_column, header, "a label is not an integer")

    feats = np.delete(table, label_idx, axis=1)
    del table  # features and labels are copies, so the table is freed here
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
        norms = row_norms(feats)
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
                stacklevel=3,  # the caller of load_csv
            )
        if c < 2:
            raise DataError(
                "dataset declares fewer than 2 classes; pass num_classes explicitly to override"
            )
    else:
        c = num_classes
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
    path: Path, label_column: int | str, header: list[str] | None, fallback: str
) -> NoReturn:
    """Name the first malformed data row, checked as ragged, then label, then feature.

    Runs only after the table parse has failed or found a non-integer label,
    and always raises: ``fallback`` when no row breaks these checks. It reads
    the file again, whole, so a decoding error anywhere in it comes first.
    """
    with path.open(encoding="utf-8") as fh:
        rows = [_csv_row(line) for line in _data_lines(fh)]
    if header is not None:
        rows = rows[1:]
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
