"""Run one nnshapley CLI command with each layer's public functions traced.

Usage: python3 perfbench/launcher.py SPANS_JSON OP_ID -- <nnshapley CLI arguments>

The launcher imports ``nnshapley.cli`` (timed as the span ``cli.import``),
replaces each function in TARGETS with a timing wrapper in every nnshapley
module that holds a reference to it, and calls ``nnshapley.cli.main``. Spans
are kept in memory and written to SPANS_JSON when the command ends. No
program file is changed, and the wrappers pass arguments and results through
untouched, so artifacts are byte-identical to an untraced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _distance_attrs(args, kwargs, result) -> dict:
    return {"pairs": int(result.size)}


def _driver_attrs(args, kwargs, result) -> dict:
    return {"n": _arg(args, kwargs, 0, "ds").n}


def _privatize_attrs(args, kwargs, result) -> dict:
    # round() and np.rint both round half to even, so this is the program's
    # noisy triple before clamping.
    counts = _arg(args, kwargs, 0, "counts")
    noisy = (round(c + d) for c, d in zip(counts.as_tuple(), result.raw_noise_draws))
    clamped = any(a != b for a, b in zip(noisy, result.counts.as_tuple()))
    return {"c": counts.c, "clamped": clamped}


def _calibrate_attrs(args, kwargs, result) -> dict:
    requested = _arg(args, kwargs, 1, "epsilon")
    return {"sigma": result.sigma, "slack": requested - result.epsilon}


def _composed_attrs(args, kwargs, result) -> dict:
    return {"points": int(result[1].mass.shape[0])}


# (span name, defining module, function, attributes recorded from the call)
TARGETS = (
    ("dataset.load_csv", "nnshapley.dataset", "load_csv", None),
    ("dataset.distance", "nnshapley.dataset", "distance_matrix", _distance_attrs),
    ("knn.kernel", "nnshapley.knn", "knn_score_matrix", None),
    ("knn.driver", "nnshapley.knn", "knn_shapley_all", _driver_attrs),
    ("tknn.kernel", "nnshapley.tknn", "tknn_score_matrix", None),
    ("tknn.driver", "nnshapley.tknn", "tknn_shapley_all", _driver_attrs),
    ("tknn.a2_term", "nnshapley.tknn", "a2_term", None),
    ("dp.release", "nnshapley.dp", "dp_tknn_shapley_all", _driver_attrs),
    ("dp.privatize", "nnshapley.dp", "privatize_counts", _privatize_attrs),
    ("rng.stream", "nnshapley._rng", "stream", None),
    ("accountant.calibrate", "nnshapley.accountant", "calibrate_sigma_for_budget", _calibrate_attrs),
    ("accountant.compose", "nnshapley.accountant", "composed_epsilon", _composed_attrs),
    ("accountant.discretize", "nnshapley.accountant", "gaussian_pld", None),
    ("accountant.discretize", "nnshapley.accountant", "subsampled_gaussian_pld", None),
    ("accountant.invert", "nnshapley.accountant", "epsilon_at_delta", None),
    ("mia.target", "nnshapley.mia", "mia_score", None),
)


class Tracer:
    """Spans [id, name, start, end, parent id, attrs] of one process.

    Each thread keeps its own stack of open spans. A worker thread's
    outermost span takes as parent the innermost span open in the main
    thread, which is blocked waiting for the worker's result.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record = [span_id, name, start, end, parent, None]
                self.spans.append(record)
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)


def _wrap_mia_score(tracer: Tracer, fn):
    """Trace each scorer call under mia_score as its own span."""

    def mia_score(value_fn, *args, **kwargs):
        return fn(tracer.wrap("mia.valuation", value_fn), *args, **kwargs)

    return tracer.wrap("mia.target", mia_score)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target wherever nnshapley modules imported it.

    Returns the targets the program no longer defines; their layers then
    report no spans.
    """
    modules = [m for n, m in sys.modules.items() if n == "nnshapley" or n.startswith("nnshapley.")]
    missing = []
    for name, module, function, attrs in TARGETS:
        original = getattr(sys.modules.get(module), function, None)
        if original is None:
            missing.append(f"{module}.{function}")
            continue
        if function == "mia_score":
            wrapped = _wrap_mia_score(tracer, original)
        else:
            wrapped = tracer.wrap(name, original, attrs)
        for mod in modules:
            if mod.__dict__.get(function) is original:
                setattr(mod, function, wrapped)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer()
    cli = tracer.span("cli.import", _import_cli)
    missing = install(tracer)
    if missing:
        print(f"launcher: not traced, absent from the program: {missing}", file=sys.stderr)
    try:
        return tracer.span("cli.main", cli.main, cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "spans": tracer.spans}, fh, separators=(",", ":"))


def _import_cli():
    import nnshapley.cli

    return nnshapley.cli


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
