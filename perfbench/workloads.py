"""The four benchmark workloads: their inputs, the CLI commands of one op, and
the checks every op's artifacts must pass.

Each op is one or two ``nnshapley`` CLI commands. The inputs depend only on
the workload seed, so the same seed gives byte-identical CSV files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUM_CLASSES = 2
TAU = -0.5
K = 5
EPSILON = 1.0


@dataclass(frozen=True)
class Sizes:
    n_train: int = 100_000
    n_val: int = 200
    d: int = 10
    dup_share: float = 0.05  # training rows that are exact copies of other rows
    members: int = 25  # also the number of nonmembers and the shadow dataset size
    shadow_pool: int = 400
    shadow_count: int = 32
    attack_n_val: tuple[int, int] = (64, 16)  # knn attack, dp-tknn attack


FULL = Sizes()
TOY = Sizes(n_train=2_000, n_val=20, members=5, shadow_pool=40, shadow_count=4, attack_n_val=(8, 4))


class CheckError(Exception):
    """An op's artifact is missing, malformed or wrong."""


@dataclass
class Inputs:
    """Generated data held in memory, plus the CSV files written from it."""

    train: Path | None = None
    val: Path | None = None
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    val_features: np.ndarray | None = None
    val_labels: np.ndarray | None = None

    def file_bytes(self) -> dict[str, int]:
        return {p.name: p.stat().st_size for p in (self.train, self.val) if p is not None}


def generate(seed: int, sizes: Sizes) -> Inputs:
    """Gaussian features, label = [feature sum > 0], with exact duplicate rows.

    Half of the duplicated rows carry the other label, so KNN meets exact
    distance ties between points of different classes.
    """
    rng = np.random.default_rng(seed)
    n, d = sizes.n_train, sizes.d
    x = rng.standard_normal((n, d))
    y = (x.sum(axis=1) > 0).astype(np.int64)
    n_dup = round(n * sizes.dup_share)
    dst = rng.choice(n, n_dup, replace=False)
    src = rng.choice(np.setdiff1d(np.arange(n), dst), n_dup)
    x[dst] = x[src]
    y[dst] = y[src]
    flipped = dst[: n_dup // 2]
    y[flipped] = 1 - y[flipped]
    xv = rng.standard_normal((sizes.n_val, d))
    yv = (xv.sum(axis=1) > 0).astype(np.int64)
    return Inputs(features=x, labels=y, val_features=xv, val_labels=yv)


def write_csvs(inputs: Inputs, directory: Path) -> None:
    """Write both files with 17 significant digits, so parsing is exact."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs.train = directory / "train.csv"
    inputs.val = directory / "val.csv"
    for path, x, y in (
        (inputs.train, inputs.features, inputs.labels),
        (inputs.val, inputs.val_features, inputs.val_labels),
    ):
        fmt = ["%.17g"] * x.shape[1] + ["%d"]
        np.savetxt(path, np.column_stack([x, y]), fmt=fmt, delimiter=",")


def _normalized(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1)[:, None]


def utility_gains(inputs: Inputs, method: str) -> float:
    """sum_v (U(D, z_v) - 1/C), computed here independently of the program.

    By the Shapley efficiency axiom this equals the sum of all scores the
    program reports. Distances are negative cosine on L2-normalized rows;
    KNN ties are broken by training index.
    """
    x = _normalized(inputs.features)
    xv = _normalized(inputs.val_features)
    y, yv = inputs.labels, inputs.val_labels
    norms = np.linalg.norm(x, axis=1)
    total = 0.0
    for lo in range(0, xv.shape[0], 16):
        v = xv[lo : lo + 16]
        dist = -(v @ x.T) / (np.linalg.norm(v, axis=1)[:, None] * norms[None, :])
        match = y[None, :] == yv[lo : lo + 16, None]
        for row, hit in zip(dist, match):
            if method == "tknn":
                within = row <= TAU
                count = int(within.sum())
                u = int((within & hit).sum()) / count if count else 1.0 / NUM_CLASSES
            else:
                kth = np.partition(row, K - 1)[K - 1]
                closer = row < kth
                ties = np.flatnonzero(row == kth)[: K - int(closer.sum())]
                u = (int(hit[closer].sum()) + int(hit[ties].sum())) / K
            total += u - 1.0 / NUM_CLASSES
    return total


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: unreadable artifact ({exc})") from None


def _scores(payload: dict, n: int) -> np.ndarray:
    try:
        scores = np.asarray(payload["result"]["scores"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"no score vector ({exc!r})") from None
    if scores.shape != (n,) or not np.all(np.isfinite(scores)):
        raise CheckError(f"expected {n} finite scores, got shape {scores.shape}")
    return scores


class Workload:
    name = ""
    why = ""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"
        self.inputs = Inputs()

    def setup_inputs(self) -> None:
        """Generate and write the input files; part of the timed set-up."""
        self.inputs = generate(self.seed, self.sizes)
        write_csvs(self.inputs, self.workdir / "data")

    def prepare_checks(self) -> None:
        """Untimed work the checks need, done once per run."""

    def commands(self) -> list[list[str]]:
        """CLI argument lists of one op, run in order."""
        raise NotImplementedError

    def artifacts(self) -> list[Path]:
        return [self.out / "scores.json"]

    def pairs(self) -> int:
        """Training x validation score pairs computed by one op."""
        return self.sizes.n_train * self.sizes.n_val

    def check(self) -> None:
        """Raise CheckError when the op's artifacts are wrong."""
        raise NotImplementedError

    def _csv_args(self) -> list[str]:
        return [
            "--train", str(self.inputs.train), "--val", str(self.inputs.val),
            "--seed", str(self.seed), "--output", str(self.artifacts()[0]),
        ]


class _ValueWorkload(Workload):
    method = ""
    flags: list[str] = []

    def prepare_checks(self) -> None:
        self.expected_sum = utility_gains(self.inputs, self.method)

    def commands(self) -> list[list[str]]:
        return [["value", "--method", self.method, *self.flags, *self._csv_args()]]

    def check(self) -> None:
        scores = _scores(_load(self.artifacts()[0]), self.sizes.n_train)
        gap = abs(math.fsum(scores) - self.expected_sum)
        if gap > 1e-9 * max(1.0, abs(self.expected_sum)):
            raise CheckError(
                f"efficiency identity off by {gap:.3g}: "
                f"sum of scores {math.fsum(scores)!r}, expected {self.expected_sum!r}"
            )


class ValueTknn(_ValueWorkload):
    name = "value-tknn"
    why = "TKNN closed form, cosine GEMM, CSV ingestion and JSON output; no sort, no accountant"
    method = "tknn"
    flags = ["--tau", str(TAU), "--threads", "1"]


class ValueKnn(_ValueWorkload):
    name = "value-knn"
    why = "stable argsort over exact-duplicate ties and the 2-thread chunk driver; no TKNN kernel"
    method = "knn"
    flags = ["--k", str(K), "--threads", "2"]


class DpRelease(Workload):
    name = "dp-release"
    why = "accountant calibration on a fine grid plus the per-row DP loop: subsample, RNG streams, privatize"

    def commands(self) -> list[list[str]]:
        return [[
            "dp-value", "--method", "dp-tknn", "--tau", str(TAU), "--epsilon", str(EPSILON),
            "--delta", "1e-5", "--q", "0.01", "--grid-step", "2e-5",
            "--report", str(self.artifacts()[1]), *self._csv_args(),
        ]]

    def artifacts(self) -> list[Path]:
        return [self.out / "scores.json", self.out / "account.json"]

    def check(self) -> None:
        payload = _load(self.artifacts()[0])
        _load(self.artifacts()[1])
        _scores(payload, self.sizes.n_train)
        try:
            dp = payload["result"]["method"]["dp"]
            composed, requested = float(dp["composed_epsilon"]), float(dp["requested_epsilon"])
            draws, sigma = int(dp["draws"]), float(dp["sigma"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"no DP manifest ({exc!r})") from None
        if not composed <= requested:
            raise CheckError(f"composed epsilon {composed} exceeds the requested {requested}")
        if draws != 3 * self.sizes.n_val:
            raise CheckError(f"{draws} Gaussian draws, expected {3 * self.sizes.n_val}")
        if not sigma > 0.0:
            raise CheckError(f"calibrated sigma {sigma} is not positive")


class MiaAudit(Workload):
    name = "mia-audit"
    why = "LiRA audit before and after privatization: thousands of valuations at N of about 26"

    def setup_inputs(self) -> None:
        """The attack generates its own synthetic pool from --seed."""

    def _attack(self, out: Path, n_val: int, method: list[str]) -> list[str]:
        s = self.sizes
        return [
            "attack", "--synthetic", f"d={s.d}", "--members", str(s.members),
            "--nonmembers", str(s.members), "--shadow-pool", str(s.shadow_pool),
            "--shadow-count", str(s.shadow_count), "--n-val", str(n_val), *method,
            "--seed", str(self.seed), "--output", str(out),
        ]

    def commands(self) -> list[list[str]]:
        knn_out, dp_out = self.artifacts()
        knn_nval, dp_nval = self.sizes.attack_n_val
        return [
            self._attack(knn_out, knn_nval, ["--method", "knn", "--k", "1"]),
            self._attack(
                dp_out, dp_nval, ["--method", "dp-tknn", "--epsilon", str(EPSILON), "--q", "0.01"]
            ),
        ]

    def artifacts(self) -> list[Path]:
        return [self.out / "attack-knn.json", self.out / "attack-dp.json"]

    def pairs(self) -> int:
        """Sum over valuations of (dataset size x n_val).

        Each target is valued on shadow_count IN worlds (shadow set, target,
        and the scorer's appended copy), shadow_count OUT worlds and the
        server dataset; each scorer appends the target's copy.
        """
        s = self.sizes
        m, t = s.members, s.shadow_count
        per_target = t * (m + 2) + t * (m + 1) + (m + 1)
        return 2 * m * per_target * sum(s.attack_n_val)

    def check(self) -> None:
        for path in self.artifacts():
            payload = _load(path)
            try:
                report = payload["report"]
                lams = np.asarray(report["lambda"], dtype=np.float64)
                members = int(sum(bool(b) for b in report["is_member"]))
                score = float(report["auroc"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckError(f"{path.name}: no attack report ({exc!r})") from None
            if lams.shape != (2 * self.sizes.members,) or not np.all(np.isfinite(lams)):
                raise CheckError(f"{path.name}: expected {2 * self.sizes.members} finite lambdas")
            if members != self.sizes.members:
                raise CheckError(f"{path.name}: {members} members, expected {self.sizes.members}")
            if not 0.0 <= score <= 1.0:
                raise CheckError(f"{path.name}: AUROC {score} outside [0, 1]")


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ValueTknn, ValueKnn, DpRelease, MiaAudit)
}
