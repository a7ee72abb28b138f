"""End-to-end and per-layer benchmark of the nnshapley CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload value-tknn --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Each op runs one or two fresh ``python -m nnshapley.cli`` processes, one at a
time (a closed loop with one client), because a CLI user pays interpreter
start, imports and CSV ingestion on every call. Set-up writes the inputs and
runs one warm-up op; ops then run until --seconds have passed (at least three).
Every op's artifacts are checked and compared byte for byte with the warm-up
op's. With --trace 1 the ops alternate between plain and traced runs
(perfbench/launcher.py) and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError, Sizes, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMAND_TIMEOUT_S = 120.0
MIN_OPS = 3  # a median of three ops survives one disturbed op

# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "pairs_per_s": ("pairs/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Op:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    error: str = ""
    artifacts: bytes = b""
    span_files: list[Path] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def _run_command(cmd: list[str], env: dict, stderr_path: Path) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, peak RSS in MB and exit code of one child."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(wl: Workload, index: int, traced: bool, env: dict) -> Op:
    """Run the op's commands in order, then check its artifacts."""
    op = Op(traced=traced)
    for path in wl.artifacts():
        path.unlink(missing_ok=True)
    wl.out.mkdir(parents=True, exist_ok=True)
    for j, args in enumerate(wl.commands()):
        if traced:
            spans = wl.workdir / f"spans-{index}-{j}.json"
            op.span_files.append(spans)
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans), str(index), "--", *args]
        else:
            cmd = [sys.executable, "-m", "nnshapley.cli", *args]
        stderr_path = wl.workdir / "stderr.txt"
        wall, cpu, rss, code = _run_command(cmd, env, stderr_path)
        op.wall += wall
        op.cpu += cpu
        op.rss_mb = max(op.rss_mb, rss)
        if code != 0:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
            op.error = f"{args[0]} exited with {code}: {' | '.join(tail)}"
            return op
    try:
        wl.check()
        op.artifacts = b"".join(p.read_bytes() for p in wl.artifacts())
        if traced:
            op.layers = layers.op_metrics(op.span_files)
            op.layers["cli.output_bytes"] = float(len(op.artifacts))
            traced_pairs = op.layers["dataset.distance_pairs"]
            if traced_pairs != wl.pairs():
                raise CheckError(f"trace saw {traced_pairs:.0f} distance pairs, expected {wl.pairs()}")
    except CheckError as exc:
        op.error = str(exc)
    return op


@dataclass
class Outcome:
    ops: list[Op]
    setup_s: float
    pairs: int
    env: dict

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> Outcome:
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](sizes, seed, workdir)
    env = _child_env()
    try:
        start = time.perf_counter()
        wl.setup_inputs()
        inputs_s = time.perf_counter() - start
        wl.prepare_checks()
        warm = run_op(wl, -1, False, env)
        if warm.error:
            raise SystemExit(f"perfbench: warm-up op of {name} failed: {warm.error}")
        setup_s = inputs_s + warm.wall
        ops: list[Op] = []
        start = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
            op = run_op(wl, len(ops), trace and len(ops) % 2 == 1, env)
            if not op.error and op.artifacts != warm.artifacts:
                op.error = "artifacts differ from the warm-up op's"
            if op.error:
                print(f"perfbench: {name} op {len(ops)} failed: {op.error}", file=sys.stderr)
            ops.append(op)
        return Outcome(ops, setup_s, wl.pairs(), environment(wl))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_metrics(out: Outcome) -> dict[str, float]:
    ops = [op for op in out.ops if not op.error] or out.ops
    wall = statistics.median(op.wall for op in ops)
    return {
        "setup_s": out.setup_s,
        "wall_s": wall,
        "pairs_per_s": out.pairs / wall,
        "cpu_s": statistics.median(op.cpu for op in ops),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
    }


def layer_metrics(out: Outcome) -> dict[str, float]:
    ok = [op for op in out.ops if not op.error]
    traced = [op for op in ok if op.traced] or [op for op in out.ops if op.traced]
    plain = [op for op in ok if not op.traced] or [op for op in out.ops if not op.traced]
    metrics = {
        name: statistics.median(op.layers.get(name, 0.0) for op in traced)
        for name in layers.METRICS
    }
    metrics["trace.overhead_s"] = (
        statistics.median(op.wall for op in traced) - statistics.median(op.wall for op in plain)
    )
    return metrics


def result_line(out: Outcome, trace: bool) -> dict:
    values = layer_metrics(out) if trace else end_to_end_metrics(out)
    units = layers.METRICS if trace else END_TO_END
    return {
        "correct": out.failed == 0,
        "attempted": len(out.ops),
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in values.items()},
    }


def _blas() -> dict:
    """BLAS library and its thread count as loaded in this process."""
    import ctypes

    import numpy as np

    info: dict = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            info["threads"] = fn()
            return info
    return info


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(wl: Workload) -> dict:
    import importlib.metadata

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas(),
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "workload": wl.name,
        "seed": wl.seed,
        "sizes": asdict(wl.sizes),
        "input_bytes": wl.inputs.file_bytes(),
        "pairs_per_op": wl.pairs(),
    }


def summary(name: str, line: dict) -> list[str]:
    attempted, failed = line["attempted"], line["failed"]
    lines = [f"{name}: ops {attempted}, failed {failed}, fail_ratio {failed / attempted:g}"]
    lines += [f"  {k:<28} {m['value']:.6g} {m['unit']}" for k, m in line["metrics"].items()]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nnshapley" / "cli.py").is_file():
        print(f"perfbench: no nnshapley sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**63
    trace = bool(args.trace)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out = run_workload(name, seed, args.seconds, trace, workloads.FULL)
        results[name] = result_line(out, trace)
        print("\n".join(summary(name, results[name])), flush=True)
        print("env " + json.dumps(out.env, sort_keys=True), flush=True)
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
