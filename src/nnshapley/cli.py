"""Batch command-line surface.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical/accounting
error. Every artifact embeds the package version, the full command config,
and the seed, so a run can be reproduced byte-for-byte from its own output
(timing measurements excepted; benchmarks exist to measure wall time).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from ._rng import TAG_DATA, substream_seed
from .accountant import (
    DEFAULT_GRID_STEP,
    DEFAULT_TRUNCATION_TAIL,
    CalibrationResult,
    account_sigma,
    calibrate_sigma_for_budget,
)
from .dataset import (
    Dataset,
    DistanceMetric,
    add_feature_noise,
    flip_labels,
    generate_gaussian_synthetic,
    load_csv,
)
from .dp import COUNTS_SENSITIVITY, DpParams
from .errors import AccountingError, DataError, ParameterError
from .evaluation import (
    METHODS,
    MethodConfig,
    auroc,
    bench_runtime,
    compute_values,
    run_detection,
)
from .mia import MiaConfig, mia_lambdas, value_scorer


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "baseline", None) is not None:
        args.method = args.baseline
    try:
        if args.seed < 0:  # every subcommand takes --seed; numpy seeds are nonnegative
            raise ParameterError(f"--seed must be nonnegative; got {args.seed}")
        return args.handler(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (AccountingError, FloatingPointError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnshapley",
        description="Data values for nearest-neighbor utilities, with optional DP release.",
    )
    parser.add_argument("--version", action="version", version=f"nnshapley {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    value = sub.add_parser("value", help="compute non-private value scores")
    _add_data_args(value)
    _add_method_args(value, dp=False)
    value.add_argument("--output", required=True, help="path for the scores JSON")
    value.set_defaults(handler=_cmd_value)

    dpv = sub.add_parser("dp-value", help="compute DP value scores with accounting")
    _add_data_args(dpv)
    _add_method_args(dpv, dp=True)
    dpv.add_argument("--output", required=True, help="path for the scores JSON")
    dpv.add_argument("--report", default=None, help="path for the accountant report JSON")
    dpv.set_defaults(handler=_cmd_dp_value)

    det = sub.add_parser("detect", help="mislabel / noisy data detection AUROC")
    _add_data_args(det)
    _add_method_args(det, dp=True)
    det.add_argument("--corruption", choices=("flip", "noise"), required=True)
    det.add_argument("--rate", type=float, default=0.1)
    det.add_argument("--output", required=True)
    det.set_defaults(handler=_cmd_detect)

    atk = sub.add_parser("attack", help="membership-inference attack on value scores")
    atk.add_argument("--synthetic", required=True, help="d=<dimension>; the pool holds "
                     "--members + --nonmembers + --shadow-pool + --n-val points")
    atk.add_argument("--members", type=int, default=200)
    atk.add_argument("--nonmembers", type=int, default=200)
    atk.add_argument("--shadow-pool", type=int, default=400)
    atk.add_argument("--shadow-count", type=int, default=32)
    atk.add_argument("--shadow-size", type=int, default=None)
    atk.add_argument("--n-val", type=int, default=16)
    _add_method_args(atk, dp=True, methods=("knn", "tknn", "dp-tknn"))
    atk.add_argument("--seed", type=int, default=0)
    atk.add_argument("--output", required=True)
    atk.set_defaults(handler=_cmd_attack)

    ben = sub.add_parser("bench", help="runtime benchmark on synthetic data")
    ben.add_argument("--ns", required=True, help="comma-separated training sizes, e.g. 1e4,1e5")
    ben.add_argument("--d", type=int, default=10)
    ben.add_argument("--nval", type=int, default=100)
    ben.add_argument("--methods", default="tknn,knn")
    ben.add_argument("--repeats", type=int, default=3)
    ben.add_argument("--k", type=int, default=5)
    ben.add_argument("--tau", type=float, default=-0.5)
    ben.add_argument("--metric", default="negative-cosine")
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--output", required=True, help="path for the benchmark CSV")
    ben.set_defaults(handler=_cmd_bench)

    acc = sub.add_parser("account", help="compose a privacy budget over many releases")
    acc.add_argument("--mechanisms", type=int, required=True)
    acc.add_argument("--sigma", type=float, required=True)
    acc.add_argument("--sensitivity", type=float, default=COUNTS_SENSITIVITY)
    acc.add_argument("--q", type=float, default=1.0)
    acc.add_argument("--delta", type=float, default=1e-4)
    acc.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    acc.add_argument("--truncation-tail", type=float, default=DEFAULT_TRUNCATION_TAIL)
    acc.add_argument("--seed", type=int, default=0)
    acc.add_argument("--output", required=True)
    acc.set_defaults(handler=_cmd_account)

    return parser


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", default=None, help="training CSV path")
    p.add_argument("--val", default=None, help="validation CSV path")
    p.add_argument("--synthetic", default=None, help="e.g. n=2000,d=10 instead of --train")
    p.add_argument("--synthetic-val", default=None, help="e.g. n=200 instead of --val")
    p.add_argument("--label-column", default="-1", help="column name or zero-based index")
    p.add_argument("--no-l2-normalize", action="store_true", help="skip feature normalization")
    p.add_argument("--num-classes", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)


def _add_method_args(
    p: argparse.ArgumentParser,
    dp: bool,
    methods: tuple[str, ...] | None = None,
) -> None:
    if methods is None:
        methods = tuple(name for name, spec in METHODS.items() if dp or not spec.private)
    p.add_argument("--method", choices=methods, default="tknn")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--tau", type=float, default=-0.5)
    p.add_argument("--metric", default="negative-cosine")
    if dp:
        p.add_argument("--epsilon", type=float, default=None, help="total privacy budget")
        p.add_argument("--sigma", type=float, default=None, help="per-release noise scale")
        p.add_argument("--delta", type=float, default=1e-4)
        p.add_argument("--q", type=float, default=0.01, help="Poisson subsampling rate")
        p.add_argument("--dp-subsampled", action="store_true", help="subsampled dp-knn baseline")
        p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
        p.add_argument("--truncation-tail", type=float, default=DEFAULT_TRUNCATION_TAIL)
        p.add_argument(
            "--baseline",
            choices=tuple(name for name in methods if METHODS[name].private),
            default=None,
            help="shorthand: run the named dp mechanism in place of --method",
        )


def _config_echo(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "handler" and not callable(v)}
    return {k: (str(v) if isinstance(v, Path) else v) for k, v in sorted(config.items())}


def _parse_kv(text: str, what: str, keys: tuple[str, ...]) -> dict[str, int]:
    """``k=v`` pairs naming each of ``keys`` once and nothing else; values are counts."""
    parts = [part.partition("=") for part in text.split(",") if part.strip()]
    named = sorted(key.strip() for key, _, _ in parts)
    if not all(sep for _, sep, _ in parts) or named != sorted(keys):
        expected = ",".join(f"{key}=<count>" for key in keys)
        raise ParameterError(f"bad {what} spec {text!r}; expected {expected}")
    return {key.strip(): _parse_count(value, what) for key, _, value in parts}


def _parse_count(value: str, what: str) -> int:
    """A count written as an integral float literal such as ``1e5``; a fraction,
    nan and inf are usage errors."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not number.is_integer():  # also false for nan and inf
        raise ParameterError(f"bad {what} value {value!r}; expected a whole count")
    return int(number)


def _load_datasets(args: argparse.Namespace) -> tuple[Dataset, Dataset]:
    if args.threads < 1:
        raise ParameterError(f"--threads must be at least 1; got {args.threads}")
    if args.num_classes is not None and args.num_classes < 2:
        raise ParameterError(f"--num-classes must be at least 2; got {args.num_classes}")
    if (args.train is None) == (args.synthetic is None):
        raise ParameterError("provide exactly one of --train and --synthetic")
    if args.synthetic is None:
        source, unread = "--train", {"--synthetic-val": args.synthetic_val is not None}
    else:
        source, unread = "--synthetic", {
            "--val": args.val is not None,
            "--label-column": args.label_column != "-1",
            "--no-l2-normalize": args.no_l2_normalize,
            "--num-classes": args.num_classes is not None,
        }
    for flag, given in unread.items():
        if given:  # a flag the run would not read
            raise ParameterError(f"{flag} is not read with {source}")
    label_column: int | str
    try:
        label_column = int(args.label_column)
    except ValueError:
        label_column = args.label_column
    normalize = not args.no_l2_normalize
    if args.synthetic is not None:
        spec = _parse_kv(args.synthetic, "--synthetic", ("n", "d"))
        n_val = _parse_kv(args.synthetic_val or "n=100", "--synthetic-val", ("n",))["n"]
        train = generate_gaussian_synthetic(
            spec["n"], spec["d"], substream_seed(args.seed, TAG_DATA, 0)
        )
        dval = generate_gaussian_synthetic(n_val, spec["d"], substream_seed(args.seed, TAG_DATA, 1))
        return train, dval
    if args.val is None:
        raise ParameterError("--val is required with --train")
    train = load_csv(args.train, label_column, normalize, args.num_classes)
    dval = load_csv(args.val, label_column, normalize, train.num_classes)
    if dval.dimension != train.dimension:
        raise DataError(
            f"{args.val} has {dval.dimension} feature columns, {args.train} has {train.dimension}"
        )
    return train, dval


def _check_dp_flags(args: argparse.Namespace) -> None:
    """The budget and accountant flags, checked before any data whether or not
    the method reads them; a private method needs exactly one budget flag, and
    only a private method that does not always subsample reads --dp-subsampled."""
    eps, sigma = args.epsilon, args.sigma
    q, delta, step, tail = args.q, args.delta, args.grid_step, args.truncation_tail
    for flag, value, ok, rule in (
        ("--epsilon", eps, eps is None or 0.0 < eps < math.inf, "be positive and finite"),
        ("--sigma", sigma, sigma is None or 0.0 < sigma < math.inf, "be positive and finite"),
        ("--q", q, 0.0 < q <= 1.0, "lie in (0, 1]"),
        ("--delta", delta, 0.0 < delta < 1.0, "lie in (0, 1)"),
        ("--grid-step", step, 0.0 < step < math.inf, "be positive and finite"),
        ("--truncation-tail", tail, 0.0 < tail < 1.0, "lie in (0, 1)"),
    ):
        if not ok:  # the comparisons are also false for NaN
            raise ParameterError(f"{flag} must {rule}; got {value}")
    spec = METHODS[args.method]  # --baseline has replaced --method by now
    if args.dp_subsampled and (not spec.private or spec.subsampled):
        raise ParameterError(f"--dp-subsampled is not read with --method {args.method}")
    if spec.private and (eps is None) == (sigma is None):
        raise ParameterError(f"--method {args.method} needs exactly one of --epsilon and --sigma")


def _method_config(args: argparse.Namespace) -> MethodConfig:
    """The method the flags ask for, validated before any data is loaded.

    A private method gets the noise of its release from :func:`_resolve_dp`.
    """
    if hasattr(args, "q"):  # the commands that take the DP flags
        _check_dp_flags(args)
    return MethodConfig(
        name=args.method,
        k=args.k,
        tau=args.tau,
        metric=DistanceMetric.parse(args.metric),
    )


def _write_json(path: str, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _artifact(args: argparse.Namespace, **payload) -> dict:
    return {
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "seed": args.seed,
        **payload,
    }


def _cmd_value(args: argparse.Namespace) -> int:
    method = _method_config(args)
    train, dval = _load_datasets(args)
    result = compute_values(train, dval, method, threads=args.threads)
    _write_json(args.output, _artifact(args, result=result.to_json_dict()))
    return 0


def _resolve_dp(
    args: argparse.Namespace, method: MethodConfig, n_val: int
) -> tuple[MethodConfig, CalibrationResult]:
    """Fix the per-release noise scale and account the composed budget.

    With --epsilon, sigma is found by inverting the accountant over all
    n_val releases (so the composed epsilon never exceeds the request); with
    --sigma the accountant just reports the composed epsilon. The sensitivity
    and sampling rate are those of the mechanism that ``method`` runs: it
    runs at ``--q`` when it always subsamples or ``--dp-subsampled`` is
    given, and at q = 1 otherwise.
    """
    spec = METHODS[method.name]
    sensitivity = spec.sensitivity(method.k)
    q = args.q if spec.subsampled or args.dp_subsampled else 1.0
    if args.sigma is not None:
        calibration = account_sigma(
            sensitivity, args.sigma, q, n_val, args.delta, args.grid_step, args.truncation_tail
        )
    else:
        calibration = calibrate_sigma_for_budget(
            sensitivity, args.epsilon, args.delta, q, n_val, args.grid_step, args.truncation_tail
        )
    params = DpParams(args.delta, calibration.sigma, q, seed=substream_seed(args.seed, 9))
    return replace(method, dp=params), calibration


def _cmd_dp_value(args: argparse.Namespace) -> int:
    method = _method_config(args)
    if not METHODS[method.name].private:
        private = " or ".join(name for name, spec in METHODS.items() if spec.private)
        raise ParameterError(f"dp-value requires a dp method ({private})")
    train, dval = _load_datasets(args)
    method, calibration = _resolve_dp(args, method, dval.n)
    result = compute_values(train, dval, method, threads=args.threads)
    report_path = args.report or (args.output + ".account.json")
    _write_json(report_path, _artifact(args, report=calibration.report()))
    manifest = dict(result.method.dp)
    manifest["requested_epsilon"] = args.epsilon
    manifest["composed_epsilon"] = calibration.epsilon
    manifest["accountant"] = str(report_path)
    payload = result.to_json_dict()
    payload["method"]["dp"] = manifest
    _write_json(args.output, _artifact(args, result=payload))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    method = _method_config(args)
    if not 0.0 < args.rate < 1.0:  # also false for NaN
        raise ParameterError(f"--rate must lie in (0, 1); got {args.rate}")
    train, dval = _load_datasets(args)
    if args.corruption == "flip":
        corrupted, record = flip_labels(train, args.rate, substream_seed(args.seed, 11))
    else:
        corrupted, record = add_feature_noise(train, args.rate, substream_seed(args.seed, 12))
    if METHODS[method.name].private:
        method, _ = _resolve_dp(args, method, dval.n)
    report = run_detection(corrupted, record, method, dval, seed=args.seed, threads=args.threads)
    print(f"detection wall time: {report.wall_time:.3f}s", file=sys.stderr)
    _write_json(
        args.output,
        _artifact(
            args,
            report=report.to_json_dict(),
            corruption_record=json.loads(record.to_json()),
        ),
    )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    method = _method_config(args)
    cfg = MiaConfig(
        shadow_count=args.shadow_count, shadow_size=args.shadow_size, seed=args.seed
    )
    for flag, count in (("--members", args.members), ("--nonmembers", args.nonmembers),
                        ("--n-val", args.n_val)):
        if count < 1:
            raise ParameterError(f"{flag} must be at least 1; got {count}")
    size = args.members if args.shadow_size is None else args.shadow_size
    if not 1 <= size <= args.shadow_pool:
        raise ParameterError(f"--shadow-size (default --members) must lie in [1, "
                             f"--shadow-pool = {args.shadow_pool}]; got {size}")
    d = _parse_kv(args.synthetic, "--synthetic", ("d",))["d"]
    total = args.members + args.nonmembers + args.shadow_pool + args.n_val
    pool = generate_gaussian_synthetic(total, d, substream_seed(args.seed, TAG_DATA, 0))
    members = pool.subset(range(0, args.members))
    nonmembers = pool.subset(range(args.members, args.members + args.nonmembers))
    lo = args.members + args.nonmembers
    shadow = pool.subset(range(lo, lo + args.shadow_pool))
    zvals = pool.subset(range(lo + args.shadow_pool, total))
    if METHODS[method.name].private:
        method, _ = _resolve_dp(args, method, args.n_val)
    scorer = value_scorer(method)
    lams, labels = mia_lambdas(scorer, members, nonmembers, shadow, members, cfg, zvals)
    score = auroc(lams, labels)
    _write_json(
        args.output,
        _artifact(
            args,
            report={
                "auroc": score,
                "lambda": [float(x) for x in lams],
                "is_member": [bool(b) for b in labels],
            },
        ),
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    ns = [_parse_count(x, "--ns") for x in args.ns.split(",") if x.strip()]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = bench_runtime(
        ns,
        d=args.d,
        n_val=args.nval,
        methods=methods,
        repeats=args.repeats,
        seed=args.seed,
        k=args.k,
        tau=args.tau,
        metric=DistanceMetric.parse(args.metric),
    )
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n", "method", "median_seconds", "repeats"])
        writer.writeheader()
        writer.writerows(rows)
    return 0


def _cmd_account(args: argparse.Namespace) -> int:
    report = account_sigma(
        args.sensitivity, args.sigma, args.q, args.mechanisms, args.delta,
        args.grid_step, args.truncation_tail,
    )
    _write_json(args.output, _artifact(args, report=report.report()))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
