"""Per-layer metrics from the spans the launcher records.

A span's self time is its duration minus the part of its interval covered by
the union of its child spans; the union matters when two worker threads run
children at once. Times and counts are summed over the processes of one op.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# name -> (unit, better); the order is the order of BENCHMARK.json.
METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "dataset.load_csv_s": ("s", "lower"),
    "dataset.distance_s": ("s", "lower"),
    "dataset.distance_calls": ("count", "lower"),
    "dataset.distance_pairs": ("count", "lower"),
    "knn.kernel_self_s": ("s", "lower"),
    "knn.kernel_calls": ("count", "lower"),
    "knn.driver_self_s": ("s", "lower"),
    "tknn.kernel_self_s": ("s", "lower"),
    "tknn.driver_self_s": ("s", "lower"),
    "tknn.a2_term_s": ("s", "lower"),
    "tknn.a2_term_calls": ("count", "lower"),
    "dp.release_self_s": ("s", "lower"),
    "dp.release_calls": ("count", "lower"),
    "dp.privatize_s": ("s", "lower"),
    "dp.privatize_calls": ("count", "lower"),
    "dp.clamp_ratio": ("ratio", "lower"),
    "dp.subsample_ratio": ("ratio", "lower"),
    "rng.stream_s": ("s", "lower"),
    "rng.stream_calls": ("count", "lower"),
    "accountant.calibrate_s": ("s", "lower"),
    "accountant.calibrate_evals": ("count", "lower"),
    "accountant.discretize_s": ("s", "lower"),
    "accountant.compose_s": ("s", "lower"),
    "accountant.invert_s": ("s", "lower"),
    "accountant.grid_points": ("count", "lower"),
    "accountant.epsilon_slack": ("epsilon", "lower"),
    "accountant.noise_sigma": ("count", "lower"),
    "mia.target_s": ("s", "lower"),
    "mia.targets": ("count", "lower"),
    "mia.valuations": ("count", "lower"),
    "mia.valuation_s": ("s", "lower"),
    "mia.self_s": ("s", "lower"),
    "mia.scores_used_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# Self time of these spans is reported under the metric named.
_SELF = {
    "cli.main": "cli.self_s",
    "knn.kernel": "knn.kernel_self_s",
    "knn.driver": "knn.driver_self_s",
    "tknn.kernel": "tknn.kernel_self_s",
    "tknn.driver": "tknn.driver_self_s",
    "dp.release": "dp.release_self_s",
    "accountant.compose": "accountant.compose_s",
    "mia.target": "mia.self_s",
    "mia.valuation": "mia.self_s",
}
# Total time and call count of these spans.
_TOTAL = {
    "cli.import": ("cli.import_s", None),
    "dataset.load_csv": ("dataset.load_csv_s", None),
    "dataset.distance": ("dataset.distance_s", "dataset.distance_calls"),
    "knn.kernel": (None, "knn.kernel_calls"),
    "tknn.a2_term": ("tknn.a2_term_s", "tknn.a2_term_calls"),
    "dp.release": (None, "dp.release_calls"),
    "dp.privatize": ("dp.privatize_s", "dp.privatize_calls"),
    "rng.stream": ("rng.stream_s", "rng.stream_calls"),
    "accountant.calibrate": ("accountant.calibrate_s", None),
    "accountant.compose": (None, "accountant.calibrate_evals"),
    "accountant.invert": ("accountant.invert_s", None),
    "mia.target": ("mia.target_s", "mia.targets"),
    "mia.valuation": ("mia.valuation_s", "mia.valuations"),
}
_DRIVERS = ("knn.driver", "tknn.driver", "dp.release")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_times(spans: list[list]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, []))
        for sid, _, start, end, _, _ in spans
    }


class OpCounters:
    """Accumulates one op's spans, one process at a time."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {name: 0.0 for name in METRICS}
        self.subsample = [0.0, 0]  # sum of realised subsample share, releases
        self.clamped = 0
        self.scores_computed = 0

    def add_process(self, spans: list[list]) -> None:
        v = self.values
        selfs = self_times(spans)
        by_id = {s[0]: s for s in spans}
        for sid, name, start, end, parent, attrs in spans:
            duration = end - start
            if name in _SELF:
                v[_SELF[name]] += selfs[sid]
            total, calls = _TOTAL.get(name, (None, None))
            if total:
                v[total] += duration
            if calls:
                v[calls] += 1
            parent_name = by_id[parent][1] if parent is not None else None
            if name == "dataset.distance":
                v["dataset.distance_pairs"] += attrs["pairs"]
            elif name == "accountant.discretize" and parent_name != name:
                v["accountant.discretize_s"] += duration
            elif name == "accountant.compose":
                v["accountant.grid_points"] = attrs["points"]  # the last composition
            elif name == "accountant.calibrate":
                v["accountant.noise_sigma"] = attrs["sigma"]
                v["accountant.epsilon_slack"] = attrs["slack"]
            elif name == "dp.privatize":
                self.clamped += attrs["clamped"]
                if parent_name == "dp.release":
                    self.subsample[0] += attrs["c"] / by_id[parent][5]["n"]
                    self.subsample[1] += 1
            elif name in _DRIVERS and parent_name == "mia.valuation":
                self.scores_computed += attrs["n"]

    def finish(self) -> dict[str, float]:
        v = self.values
        if v["dp.privatize_calls"]:
            v["dp.clamp_ratio"] = self.clamped / v["dp.privatize_calls"]
        if self.subsample[1]:
            v["dp.subsample_ratio"] = self.subsample[0] / self.subsample[1]
        if self.scores_computed:
            v["mia.scores_used_ratio"] = v["mia.valuations"] / self.scores_computed
        return v


def op_metrics(span_files: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one op, from the span file of each of its processes."""
    counters = OpCounters()
    for path in span_files:
        counters.add_process(json.loads(path.read_text(encoding="utf-8"))["spans"])
    return counters.finish()
