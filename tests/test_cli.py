import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nnshapley.dp
from nnshapley.accountant import calibrate_sigma_for_budget
from nnshapley.cli import main


def run_cli(args):
    return main(args)


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def csv_pair(tmp_path):
    train = write_csv(
        tmp_path,
        "train.csv",
        "0.9,0.1,0\n0.8,0.3,0\n0.1,0.9,1\n0.2,0.8,1\n0.5,0.5,0\n0.4,0.7,1\n",
    )
    val = write_csv(tmp_path, "val.csv", "1.0,0.0,0\n0.0,1.0,1\n")
    return train, val


class TestValueCommand:
    def test_tknn_scores_json(self, csv_pair, tmp_path):
        train, val = csv_pair
        out = str(tmp_path / "scores.json")
        code = run_cli(
            ["value", "--train", train, "--val", val, "--method", "tknn",
             "--tau", "-0.5", "--output", out]
        )
        assert code == 0
        payload = json.loads((tmp_path / "scores.json").read_text())
        assert len(payload["result"]["scores"]) == 6
        assert payload["result"]["method"]["name"] == "tknn-shapley"
        assert payload["version"]
        assert payload["config"]["method"] == "tknn"

    def test_knn_routing(self, csv_pair, tmp_path):
        train, val = csv_pair
        out = str(tmp_path / "scores.json")
        assert run_cli(["value", "--train", train, "--val", val, "--method", "knn",
                        "--k", "5", "--output", out]) == 0
        payload = json.loads((tmp_path / "scores.json").read_text())
        assert payload["result"]["method"]["name"] == "knn-shapley"
        assert payload["result"]["method"]["k"] == 5

    def test_missing_label_column_exits_3(self, csv_pair, tmp_path, capsys):
        train, val = csv_pair
        code = run_cli(
            ["value", "--train", train, "--val", val, "--label-column", "target",
             "--output", str(tmp_path / "x.json")]
        )
        assert code == 3
        assert "target" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_exits_3(self, tmp_path, capsys, cell):
        train = write_csv(tmp_path, "train.csv", f"0.9,0.1,0\n{cell},0.3,0\n0.1,0.9,1\n")
        val = write_csv(tmp_path, "val.csv", "1.0,0.0,0\n")
        out = tmp_path / "x.json"
        code = run_cli(["value", "--train", train, "--val", val, "--output", str(out)])
        assert code == 3
        assert "row 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["knn", "tknn"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_overflowing_feature_norms_exit_3(self, tmp_path, capsys, method, normalize):
        # Finite features whose norms overflow float64: the cosine would be
        # NaN (or every normalized row zero), so the command must refuse.
        train = write_csv(
            tmp_path, "train.csv",
            "1e200,1e200,0\n2e200,1e200,1\n3e200,1e200,0\n4e200,1e200,1\n",
        )
        val = write_csv(tmp_path, "val.csv", "1e200,3e200,0\n")
        out = tmp_path / "x.json"
        args = ["value", "--train", train, "--val", val, "--method", method, "--k", "1",
                "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(args + ([] if normalize else ["--no-l2-normalize"]))
        assert code == 3
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_label_at_class_count_exits_3(self, csv_pair, tmp_path, capsys):
        train, _ = csv_pair
        val = write_csv(tmp_path, "val3.csv", "1.0,0.0,0\n0.0,1.0,2\n")
        out = tmp_path / "x.json"
        assert run_cli(["value", "--train", train, "--val", val, "--output", str(out)]) == 3
        assert "class count 2" in capsys.readouterr().err
        code = run_cli(["value", "--train", val, "--val", train, "--num-classes", "2",
                        "--output", str(out)])
        assert code == 3
        assert not out.exists()

    def test_stray_label_warns_on_stderr(self, tmp_path):
        # A subprocess, so the warning reaches stderr as Python prints it by
        # default rather than pytest's warning capture.
        train = write_csv(tmp_path, "train.csv", "0.1,0.2,0\n0.3,0.1,1\n0.5,0.5,1e12\n0.2,0.9,1\n")
        val = write_csv(tmp_path, "val.csv", "0.1,0.2,0\n")
        out = tmp_path / "x.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nnshapley.cli", "value", "--train", train, "--val", val,
             "--method", "knn", "--output", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        err = proc.stderr
        assert "DataWarning" in err
        assert "1000000000000" in err and "999999999998" in err and "--num-classes" in err
        assert json.loads(out.read_text())["result"]["method"]["num_classes"] == 10**12 + 1

    def test_synthetic_shorthand(self, tmp_path):
        out = str(tmp_path / "s.json")
        assert run_cli(["value", "--synthetic", "n=50,d=4", "--synthetic-val", "n=10",
                        "--method", "tknn", "--output", out]) == 0
        payload = json.loads((tmp_path / "s.json").read_text())
        assert len(payload["result"]["scores"]) == 50
        assert payload["result"]["validation_size"] == 10

    def test_byte_for_byte_reproducibility(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["value", "--synthetic", "n=40,d=3", "--method", "knn-old",
                "--seed", "7"]
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        # identical apart from the embedded output path
        pa = json.loads(a.read_text())
        pb = json.loads(b.read_text())
        pa["config"].pop("output")
        pb["config"].pop("output")
        assert pa == pb

    def test_train_and_synthetic_conflict_exits_2(self, csv_pair, tmp_path):
        train, _ = csv_pair
        code = run_cli(["value", "--train", train, "--synthetic", "n=5,d=2",
                        "--output", str(tmp_path / "x.json")])
        assert code == 2

    def test_invalid_k_never_computes(self, tmp_path):
        out = tmp_path / "x.json"
        code = run_cli(["value", "--synthetic", "n=20,d=2", "--k", "0",
                        "--method", "knn", "--output", str(out)])
        assert code == 2
        assert not out.exists()


class TestDpValueCommand:
    def test_epsilon_budget_respected(self, tmp_path):
        out = str(tmp_path / "dp.json")
        code = run_cli(
            ["dp-value", "--synthetic", "n=100,d=4", "--synthetic-val", "n=8",
             "--method", "dp-tknn", "--epsilon", "2.0", "--delta", "1e-4",
             "--q", "0.05", "--seed", "3", "--output", out]
        )
        assert code == 0
        payload = json.loads((tmp_path / "dp.json").read_text())
        report = json.loads((tmp_path / "dp.json.account.json").read_text())["report"]
        assert report["epsilon"] <= 2.0
        assert report["mechanisms"] == 8
        manifest = payload["result"]["method"]["dp"]
        assert manifest["composed_epsilon"] == report["epsilon"]
        assert manifest["draws"] == 3 * 8
        assert set(report) == {
            "mechanisms", "sigma", "q", "delta", "epsilon", "grid_step", "truncated_mass",
        }

    def test_baseline_switch(self, tmp_path):
        out = str(tmp_path / "dpknn.json")
        code = run_cli(
            ["dp-value", "--synthetic", "n=60,d=3", "--synthetic-val", "n=4",
             "--baseline", "dp-knn", "--sigma", "0.5", "--delta", "1e-4",
             "--seed", "1", "--output", out]
        )
        assert code == 0
        payload = json.loads((tmp_path / "dpknn.json").read_text())
        assert payload["result"]["method"]["name"] == "dp-knn-shapley-old"

    def test_seeded_reproducibility(self, tmp_path):
        args = ["dp-value", "--synthetic", "n=50,d=3", "--synthetic-val", "n=4",
                "--method", "dp-tknn", "--sigma", "2.0", "--delta", "1e-4",
                "--q", "0.5", "--seed", "11"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        sa = json.loads(a.read_text())["result"]["scores"]
        sb = json.loads(b.read_text())["result"]["scores"]
        assert sa == sb

    def test_requires_exactly_one_of_epsilon_sigma(self, tmp_path):
        code = run_cli(["dp-value", "--synthetic", "n=20,d=2", "--method", "dp-tknn",
                        "--output", str(tmp_path / "x.json")])
        assert code == 2


class TestDetectCommand:
    def test_flip_detection_report(self, tmp_path):
        out = str(tmp_path / "det.json")
        code = run_cli(
            ["detect", "--synthetic", "n=300,d=6", "--synthetic-val", "n=40",
             "--corruption", "flip", "--rate", "0.1", "--method", "tknn",
             "--seed", "5", "--output", out]
        )
        assert code == 0
        payload = json.loads((tmp_path / "det.json").read_text())
        assert 0.0 <= payload["report"]["auroc"] <= 1.0
        assert payload["report"]["corruption"] == "label-flip"
        assert len(payload["corruption_record"]["indices"]) == 30
        assert "wall_time" not in payload["report"]

    def test_noise_detection_runs(self, tmp_path):
        out = str(tmp_path / "det.json")
        code = run_cli(
            ["detect", "--synthetic", "n=200,d=5", "--corruption", "noise",
             "--rate", "0.1", "--method", "knn", "--seed", "2", "--output", out]
        )
        assert code == 0

    def test_reproducible_bytes(self, tmp_path):
        args = ["detect", "--synthetic", "n=150,d=4", "--corruption", "flip",
                "--rate", "0.2", "--method", "tknn", "--seed", "9"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        pa = json.loads(a.read_text())
        pb = json.loads(b.read_text())
        pa["config"].pop("output")
        pb["config"].pop("output")
        assert pa == pb


    def test_baseline_replaces_method_and_its_accounting(self, tmp_path):
        out = tmp_path / "det.json"
        code = run_cli(
            ["detect", "--synthetic", "n=200,d=4", "--synthetic-val", "n=10",
             "--corruption", "flip", "--method", "dp-tknn", "--baseline", "dp-knn",
             "--sigma", "0.5", "--seed", "2", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        method = payload["report"]["method"]
        assert method["name"] == "dp-knn-shapley-old"
        assert payload["config"]["method"] == "dp-knn"
        assert method["dp"]["sigma"] == 0.5
        assert method["dp"]["q"] == 1.0  # dp-knn reads --q only with --dp-subsampled
        assert method["dp"]["draws"] == 200 * 10


class TestAttackCommand:
    def test_small_attack_report(self, tmp_path):
        out = str(tmp_path / "atk.json")
        code = run_cli(
            ["attack", "--synthetic", "d=4", "--members", "8", "--nonmembers", "8",
             "--shadow-pool", "40", "--shadow-count", "4", "--n-val", "6",
             "--method", "knn", "--k", "1", "--seed", "3", "--output", out]
        )
        assert code == 0
        payload = json.loads((tmp_path / "atk.json").read_text())
        assert len(payload["report"]["lambda"]) == 16
        assert 0.0 <= payload["report"]["auroc"] <= 1.0
        assert payload["report"]["is_member"].count(True) == 8


    def test_baseline_outside_its_dp_methods_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["attack", "--synthetic", "d=4", "--baseline", "dp-knn", "--sigma", "1",
                     "--output", str(tmp_path / "atk.json")])
        assert exc.value.code == 2


_BAD_FLAG_COMMANDS = {
    "value": ["value", "--synthetic", "n=50,d=3"],
    "detect": ["detect", "--synthetic", "n=50,d=3", "--corruption", "flip"],
    "dp-value": ["dp-value", "--synthetic", "n=50,d=3", "--sigma", "1.0"],
    "attack": ["attack", "--synthetic", "d=3", "--members", "4", "--nonmembers", "4",
               "--shadow-pool", "10", "--shadow-count", "2", "--n-val", "3"],
    "bench": ["bench", "--ns", "100", "--nval", "5", "--repeats", "3"],
}


@pytest.mark.parametrize(
    "method, private, flag",
    [
        pytest.param("tknn", "dp-tknn", ["--k", "0"], id="k0"),
        pytest.param("knn", "dp-knn", ["--tau", "7"], id="tau7"),
        pytest.param("tknn", "dp-tknn", ["--metric", "euclidean", "--tau", "nan"],
                     id="euclidean-tau-nan"),
    ],
)
@pytest.mark.parametrize("command", list(_BAD_FLAG_COMMANDS))
def test_bad_hyperparameter_exits_2_before_data(tmp_path, monkeypatch, command, method,
                                                private, flag):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the flags were validated")

    monkeypatch.setattr("nnshapley.cli.generate_gaussian_synthetic", no_data)
    monkeypatch.setattr("nnshapley.evaluation.generate_gaussian_synthetic", no_data)
    name = private if command == "dp-value" else method
    method_flag = ["--methods", name] if command == "bench" else ["--method", name]
    out = tmp_path / "x.out"
    code = run_cli(_BAD_FLAG_COMMANDS[command] + method_flag + flag + ["--output", str(out)])
    assert code == 2
    assert not out.exists()


_DP_FLAG_COMMANDS = {
    "dp-value": _BAD_FLAG_COMMANDS["dp-value"] + ["--method", "dp-tknn"],
    "dp-value-csv": ["dp-value", "--train", "/nonexistent.csv", "--val", "/nonexistent.csv",
                     "--method", "dp-knn", "--sigma", "1"],
    "detect-tknn": _BAD_FLAG_COMMANDS["detect"] + ["--method", "tknn"],
    "detect-dp-knn": _BAD_FLAG_COMMANDS["detect"] + ["--method", "dp-knn", "--sigma", "1"],
    "attack-knn": _BAD_FLAG_COMMANDS["attack"] + ["--method", "knn"],
    "attack-dp-tknn": _BAD_FLAG_COMMANDS["attack"] + ["--method", "dp-tknn", "--epsilon", "1"],
}


@pytest.mark.parametrize(
    "flag, value",
    [("--q", "0"), ("--q", "7"), ("--delta", "0"), ("--delta", "5"), ("--grid-step", "-1"),
     ("--grid-step", "inf"), ("--truncation-tail", "0"), ("--truncation-tail", "1"),
     ("--epsilon", "nan"), ("--epsilon", "-1"), ("--epsilon", "inf"), ("--sigma", "-1"),
     ("--sigma", "inf"), ("--sigma", "0")],
)
@pytest.mark.parametrize("command", list(_DP_FLAG_COMMANDS))
def test_bad_dp_flag_exits_2_before_data(tmp_path, monkeypatch, capsys, command, flag, value):
    # Every command that takes the budget and accountant flags checks all of
    # them, even where the method does not read them.
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the flags were validated")

    monkeypatch.setattr("nnshapley.cli.generate_gaussian_synthetic", no_data)
    monkeypatch.setattr("nnshapley.cli.load_csv", no_data)
    out = tmp_path / "x.out"
    code = run_cli(_DP_FLAG_COMMANDS[command] + [flag, value, "--output", str(out)])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_THREADED_COMMANDS = {
    "value": ["value", "--synthetic", "n=50,d=3", "--method", "tknn"],
    "dp-value": ["dp-value", "--synthetic", "n=50,d=3", "--method", "dp-tknn", "--sigma", "1.0"],
    "detect": ["detect", "--synthetic", "n=50,d=3", "--corruption", "flip"],
}


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", list(_THREADED_COMMANDS))
def test_threads_below_one_exit_2_before_data(tmp_path, monkeypatch, capsys, command, threads):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before --threads was validated")

    monkeypatch.setattr("nnshapley.cli.generate_gaussian_synthetic", no_data)
    out = tmp_path / "x.json"
    code = run_cli(_THREADED_COMMANDS[command] + ["--threads", threads, "--output", str(out)])
    assert code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["value", "--synthetic", "n=inf,d=3"], id="n-inf"),
        pytest.param(["value", "--synthetic", "n=50,d=inf"], id="d-inf"),
        pytest.param(["value", "--synthetic", "n=50,d=3", "--synthetic-val", "n=inf"],
                     id="val-n-inf"),
        pytest.param(["value", "--synthetic", "n=-inf,d=3"], id="n-minus-inf"),
        pytest.param(["attack", "--synthetic", "d=inf"], id="attack-d-inf"),
    ],
)
def test_infinite_synthetic_size_is_a_usage_error(tmp_path, capsys, args):
    out = tmp_path / "x.json"
    assert run_cli(args + ["--output", str(out)]) == 2
    assert "bad --synthetic" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["2", "1", "0", "-0.5", "nan"])
@pytest.mark.parametrize(
    "data",
    [["--synthetic", "n=50,d=3"], ["--train", "/nonexistent.csv", "--val", "/nonexistent.csv"]],
    ids=["synthetic", "csv"],
)
def test_bad_rate_exits_2_before_data(tmp_path, monkeypatch, capsys, data, rate):
    def no_data(*args, **kwargs):
        raise AssertionError("data loaded before --rate was validated")

    monkeypatch.setattr("nnshapley.cli.generate_gaussian_synthetic", no_data)
    monkeypatch.setattr("nnshapley.cli.load_csv", no_data)
    out = tmp_path / "x.json"
    code = run_cli(["detect", *data, "--corruption", "flip", "--rate", rate,
                    "--output", str(out)])
    assert code == 2
    assert "--rate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--shadow-count", "1"], "two shadow datasets", id="shadow-count-1"),
        pytest.param(["--members", "0"], "--members", id="members-0"),
        pytest.param(["--nonmembers", "0"], "--nonmembers", id="nonmembers-0"),
        pytest.param(["--n-val", "0"], "--n-val", id="n-val-0"),
        pytest.param(["--shadow-size", "0"], "--shadow-size", id="shadow-size-0"),
        # The pool holds 10 points; the shadow size defaults to --members.
        pytest.param(["--shadow-size", "11"], "--shadow-size", id="shadow-size-11"),
        pytest.param(["--members", "11"], "default --members", id="members-11"),
    ],
)
def test_bad_attack_size_exits_2_before_data(tmp_path, monkeypatch, capsys, flags, message):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the attack sizes were validated")

    def no_calibration(*args, **kwargs):
        raise AssertionError("sigma calibrated before the attack sizes were validated")

    monkeypatch.setattr("nnshapley.cli.generate_gaussian_synthetic", no_data)
    monkeypatch.setattr("nnshapley.cli.calibrate_sigma_for_budget", no_calibration)
    out = tmp_path / "x.json"
    args = _DP_FLAG_COMMANDS["attack-dp-tknn"] + flags + ["--output", str(out)]
    assert run_cli(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, spec",
    [
        pytest.param(["value", "--synthetic", "n=50,d=3,x=4"], "n=50,d=3,x=4", id="value-x"),
        pytest.param(["value", "--synthetic", "n=50,d=3", "--synthetic-val", "n=10,d=5"],
                     "n=10,d=5", id="val-d"),
        pytest.param(["attack", "--synthetic", "n=10,d=3"], "n=10,d=3", id="attack-n"),
        pytest.param(["detect", "--synthetic", "n=50", "--corruption", "flip"], "n=50",
                     id="detect-no-d"),
    ],
)
def test_synthetic_keys_must_be_the_ones_read(tmp_path, monkeypatch, capsys, args, spec):
    def no_data(*a, **k):
        raise AssertionError("data generated from a spec with unread keys")

    monkeypatch.setattr("nnshapley.cli.generate_gaussian_synthetic", no_data)
    out = tmp_path / "x.json"
    assert run_cli(args + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad --synthetic" in err and repr(spec) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "data, flag",
    [
        pytest.param(["--synthetic", "n=50,d=3", "--val", "/nonexistent.csv"], "--val", id="val"),
        pytest.param(["--synthetic", "n=50,d=3", "--num-classes", "7"], "--num-classes",
                     id="num-classes"),
        pytest.param(["--synthetic", "n=50,d=3", "--label-column", "0"], "--label-column",
                     id="label-column"),
        pytest.param(["--synthetic", "n=50,d=3", "--no-l2-normalize"], "--no-l2-normalize",
                     id="no-l2-normalize"),
        pytest.param(["--train", "/nonexistent.csv", "--val", "/nonexistent.csv",
                      "--synthetic-val", "n=4"], "--synthetic-val", id="synthetic-val"),
    ],
)
@pytest.mark.parametrize("command", ["value", "detect"])
def test_data_flags_the_source_does_not_read_exit_2_before_data(
    tmp_path, monkeypatch, capsys, data, flag, command
):
    def no_data(*args, **kwargs):
        raise AssertionError("data loaded although a data flag goes unread")

    monkeypatch.setattr("nnshapley.cli.generate_gaussian_synthetic", no_data)
    monkeypatch.setattr("nnshapley.cli.load_csv", no_data)
    out = tmp_path / "x.json"
    extra = ["--corruption", "flip"] if command == "detect" else []
    assert run_cli([command, *data, *extra, "--method", "knn", "--output", str(out)]) == 2
    assert f"{flag} is not read" in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_a_private_method_before_data(tmp_path, monkeypatch, capsys):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated for a method bench cannot run")

    monkeypatch.setattr("nnshapley.evaluation.generate_gaussian_synthetic", no_data)
    out = tmp_path / "bench.csv"
    code = run_cli(_BAD_FLAG_COMMANDS["bench"] + ["--methods", "tknn,dp-tknn",
                                                  "--output", str(out)])
    assert code == 2
    assert "dp-tknn" in capsys.readouterr().err
    assert not out.exists()


_DP_VALUE = ["dp-value", "--synthetic", "n=30,d=3", "--synthetic-val", "n=4",
             "--method", "dp-tknn"]
_ACCOUNT = ["account", "--mechanisms", "4"]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(_DP_VALUE + ["--epsilon", "nan"], id="dp-value-epsilon-nan"),
        pytest.param(_DP_VALUE + ["--epsilon", "inf"], id="dp-value-epsilon-inf"),
        pytest.param(_DP_VALUE + ["--sigma", "nan"], id="dp-value-sigma-nan"),
        pytest.param(_DP_VALUE + ["--sigma", "inf"], id="dp-value-sigma-inf"),
        pytest.param(_DP_VALUE + ["--epsilon", "1", "--grid-step", "nan"],
                     id="dp-value-grid-step-nan"),
        pytest.param(_DP_VALUE + ["--sigma", "2", "--grid-step", "nan"],
                     id="dp-value-sigma-grid-step-nan"),
        pytest.param(_ACCOUNT + ["--sigma", "nan"], id="account-sigma-nan"),
        pytest.param(_ACCOUNT + ["--sigma", "inf"], id="account-sigma-inf"),
    ],
)
def test_non_finite_dp_parameter_exits_2(tmp_path, capsys, args):
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(args + ["--output", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


_SEEDED_COMMANDS = {
    **_THREADED_COMMANDS,
    "attack": _BAD_FLAG_COMMANDS["attack"],
    "bench": _BAD_FLAG_COMMANDS["bench"],
    "account": _ACCOUNT + ["--sigma", "2"],
}


@pytest.mark.parametrize("seed", ["-1", str(-2**40)])
@pytest.mark.parametrize("command", list(_SEEDED_COMMANDS))
def test_negative_seed_exits_2_before_data(tmp_path, monkeypatch, capsys, command, seed):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before --seed was validated")

    monkeypatch.setattr("nnshapley.cli.generate_gaussian_synthetic", no_data)
    monkeypatch.setattr("nnshapley.evaluation.generate_gaussian_synthetic", no_data)
    out = tmp_path / "x.json"
    code = run_cli(_SEEDED_COMMANDS[command] + ["--seed", seed, "--output", str(out)])
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # neither the artifact nor a report


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(_DP_VALUE, id="dp-value-dp-tknn"),
        pytest.param(_DP_VALUE[:-1] + ["dp-knn"], id="dp-value-dp-knn"),
        pytest.param(["detect", "--synthetic", "n=30,d=3", "--synthetic-val", "n=4",
                      "--corruption", "flip", "--method", "dp-tknn"], id="detect"),
        pytest.param(_BAD_FLAG_COMMANDS["attack"] + ["--method", "dp-tknn"], id="attack"),
    ],
)
def test_epsilon_is_met_through_the_accountant_not_calibrate_sigma(tmp_path, monkeypatch,
                                                                  args):
    # Every command turns --epsilon into sigma by inverting the accountant, so
    # the composed epsilon never exceeds the request. The closed-form rule
    # that gave too little noise (dp.calibrate_sigma) is gone.
    assert not hasattr(nnshapley.dp, "calibrate_sigma")
    calibrations = []

    def spy(*a, **k):
        calibrations.append(calibrate_sigma_for_budget(*a, **k))
        return calibrations[-1]

    monkeypatch.setattr("nnshapley.cli.calibrate_sigma_for_budget", spy)
    out = tmp_path / "x.json"
    assert run_cli(args + ["--epsilon", "2", "--output", str(out)]) == 0
    assert out.exists()
    [calibration] = calibrations
    assert calibration.report()["epsilon"] <= 2.0


class TestBenchCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--ns", "100,200", "--d", "3", "--nval", "5",
                        "--methods", "tknn,knn", "--repeats", "3",
                        "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,method,median_seconds,repeats"
        assert len(lines) == 5

    def test_scientific_notation_sizes(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--ns", "1e2", "--d", "2", "--nval", "3",
                        "--methods", "tknn", "--repeats", "3", "--output", str(out)])
        assert code == 0
        assert "100,tknn" in out.read_text()

    @pytest.mark.parametrize("ns", ["inf", "100,-inf", "nan", "ten"])
    def test_bad_size_is_a_usage_error(self, tmp_path, capsys, ns):
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--ns", ns, "--d", "2", "--nval", "3",
                        "--methods", "tknn", "--repeats", "1", "--output", str(out)])
        assert code == 2
        assert "bad --ns value" in capsys.readouterr().err
        assert not out.exists()


class TestAccountCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "acc.json"
        code = run_cli(["account", "--mechanisms", "20", "--sigma", "5.32",
                        "--q", "0.05", "--delta", "1e-4", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["mechanisms"] == 20
        assert report["epsilon"] > 0.0
        assert report["truncated_mass"] < 1e-6

    def test_numerical_error_exit_code(self, tmp_path):
        # delta below the truncation floor cannot be certified: exit 4.
        code = run_cli(["account", "--mechanisms", "2", "--sigma", "3.0",
                        "--delta", "1e-12", "--truncation-tail", "1e-6",
                        "--output", str(tmp_path / "x.json")])
        assert code == 4

    def test_composed_grid_over_the_guard_exits_4(self, tmp_path, monkeypatch):
        # A composition whose grid would pass MAX_GRID_POINTS cannot be accounted.
        monkeypatch.setattr("nnshapley.accountant.MAX_GRID_POINTS", 200_000)
        out = tmp_path / "x.json"
        code = run_cli(["account", "--mechanisms", "64", "--sigma", "3.0",
                        "--delta", "1e-5", "--output", str(out)])
        assert code == 4
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "v.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nnshapley.cli", "value", "--synthetic", "n=20,d=2",
             "--method", "tknn", "--output", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    # Importing any of scipy loads scipy's own OpenBLAS, a second thread pool.
    UNUSED = ("scipy", "scipy.special", "scipy.fft", "scipy.signal", "scipy.optimize",
              "scipy.stats")

    def test_import_leaves_accountant_modules_unloaded(self):
        code = (
            "import sys\n"
            "for module in ('nnshapley', 'nnshapley.cli'):\n"
            "    __import__(module)\n"
            f"    print(module, sorted(m for m in {self.UNUSED} if m in sys.modules))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["nnshapley []", "nnshapley.cli []"]

    def test_attack_and_dp_runs_leave_stats_signal_optimize_unloaded(self, tmp_path):
        # The non-private knn and tknn runs load no scipy; the dp-tknn runs
        # then load only what they use.
        attack = ["attack", "--synthetic", "d=3", "--members", "4", "--nonmembers", "4",
                  "--shadow-pool", "10", "--shadow-count", "2", "--n-val", "3"]
        data = ["--synthetic", "n=50,d=3", "--synthetic-val", "n=4"]
        plain_runs = [
            attack + ["--method", "knn", "--k", "1"],
            ["value", *data, "--method", "knn"],
            ["value", *data, "--method", "tknn"],
            ["detect", *data, "--method", "tknn", "--corruption", "flip"],
        ]
        dp_runs = [
            attack + ["--method", "dp-tknn", "--epsilon", "1", "--q", "0.5"],
            ["dp-value", "--synthetic", "n=50,d=3", "--synthetic-val", "n=4",
             "--method", "dp-tknn", "--epsilon", "1", "--q", "0.5"],
        ]
        runs = [
            [args + ["--output", str(tmp_path / f"{name}{i}.json")] for i, args in enumerate(group)]
            for name, group in (("plain", plain_runs), ("dp", dp_runs))
        ]
        code = (
            "import json, sys; from nnshapley.cli import main\n"
            "for runs in json.loads(sys.argv[1]):\n"
            "    codes = [main(args) for args in runs]\n"
            f"    print(codes, sorted(m for m in {self.UNUSED} if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[0, 0, 0, 0] []",
            "[0, 0] ['scipy', 'scipy.fft', 'scipy.special']",
        ]
        report = json.loads((tmp_path / "dp1.json.account.json").read_text())["report"]
        assert report["mechanisms"] == 4

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nnshapley.cli", "value"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
