"""Tests of the benchmark itself, at toy sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import run
import workloads
from workloads import CheckError

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_outcomes():
    """One traced run per workload: plain and traced ops alternate."""
    return {
        name: run.run_workload(name, 7, 0.0, True, workloads.TOY) for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_every_workload(traced_outcomes, name):
    out = traced_outcomes[name]
    assert [op.error for op in out.ops] == [""] * run.MIN_OPS
    for trace, expected in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        line = run.result_line(out, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] == run.MIN_OPS and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in expected]
        assert [m["unit"] for m in line["metrics"].values()] == [m["unit"] for m in expected]
    assert all(v > 0 for v in run.end_to_end_metrics(out).values())
    assert out.env["pairs_per_op"] == out.pairs > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_plain_ops_write_identical_artifacts(traced_outcomes, name):
    plain, traced = traced_outcomes[name].ops[:2]
    assert not plain.traced and traced.traced
    assert plain.artifacts and plain.artifacts == traced.artifacts


def test_trace_sees_each_layer_where_it_runs(traced_outcomes):
    def traced(name):
        return traced_outcomes[name].ops[1].layers

    assert traced("value-tknn")["tknn.a2_term_calls"] > 0
    assert traced("value-tknn")["knn.kernel_calls"] == 0
    assert traced("value-knn")["knn.kernel_calls"] > 0
    assert traced("value-knn")["tknn.a2_term_calls"] == 0
    dp = traced("dp-release")
    assert dp["dp.release_calls"] == 1 and dp["accountant.calibrate_evals"] > 0
    assert dp["dp.privatize_calls"] == workloads.TOY.n_val
    mia = traced("mia-audit")
    assert mia["dataset.load_csv_s"] == 0
    per_target = 2 * workloads.TOY.shadow_count + 1
    assert mia["mia.valuations"] == mia["mia.targets"] * per_target
    assert mia["mia.valuation_s"] <= mia["mia.target_s"]
    assert 0 < mia["mia.scores_used_ratio"] < 1
    for name in workloads.WORKLOADS:
        assert traced(name)["cli.import_s"] > 0


def _toy_workload(name: str, tmp_path: Path) -> workloads.Workload:
    wl = workloads.WORKLOADS[name](workloads.TOY, 3, tmp_path)
    wl.setup_inputs()
    wl.prepare_checks()
    op = run.run_op(wl, 0, False, run._child_env())
    assert op.error == ""
    return wl


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _bump_first_score(p):
    p["result"]["scores"][0] += 1e-3


def _overspend_epsilon(p):
    p["result"]["method"]["dp"]["composed_epsilon"] = 1.5


def _bad_auroc(p):
    p["report"]["auroc"] = 1.5


@pytest.mark.parametrize(
    "name, edit",
    [
        ("value-tknn", _bump_first_score),
        ("value-knn", _bump_first_score),
        ("dp-release", _overspend_epsilon),
        ("mia-audit", _bad_auroc),
    ],
)
def test_corrupted_artifact_fails_its_check(tmp_path, name, edit):
    wl = _toy_workload(name, tmp_path)
    wl.check()
    path = wl.artifacts()[0] if name != "mia-audit" else wl.artifacts()[1]
    _edit_json(path, edit)
    with pytest.raises(CheckError):
        wl.check()
    path.write_text(path.read_text(encoding="utf-8")[:-10], encoding="utf-8")
    with pytest.raises(CheckError):
        wl.check()


def test_failed_check_counts_against_the_run(monkeypatch):
    class Corrupting(workloads.ValueTknn):
        checked = 0

        def check(self):
            Corrupting.checked += 1
            if Corrupting.checked > 1:  # after the warm-up op
                _edit_json(self.artifacts()[0], _bump_first_score)
            super().check()

    monkeypatch.setitem(workloads.WORKLOADS, "value-tknn", Corrupting)
    out = run.run_workload("value-tknn", 3, 0.0, False, workloads.TOY)
    line = run.result_line(out, False)
    assert line["attempted"] == line["failed"] == run.MIN_OPS and line["correct"] is False


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        [0, "knn.driver", 0.0, 10.0, None, None],
        [1, "knn.kernel", 1.0, 5.0, 0, None],  # two worker threads overlap
        [2, "knn.kernel", 2.0, 6.0, 0, None],
        [3, "dataset.distance", 8.0, 12.0, 0, None],  # clipped to the parent
    ]
    selfs = layers.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(4.0)


def test_benchmark_json_matches_the_metric_tables():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.METRICS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()
    }
    for table, metrics in ((run.END_TO_END, "end_to_end"), (layers.METRICS, "per_layer")):
        for m in BENCHMARK[metrics]:
            assert (m["unit"], m["better"]) == table[m["name"]]


def test_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.generate(s, workloads.TOY) for s in (5, 5, 6))
    assert (a.features == b.features).all() and (a.labels == b.labels).all()
    assert not (a.features == c.features).all()
    dup = workloads.TOY.n_train - len({row.tobytes() for row in a.features})
    assert dup == round(workloads.TOY.n_train * workloads.TOY.dup_share)
