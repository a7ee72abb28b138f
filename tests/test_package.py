"""The package's public names and the README's library example."""

import dataclasses
import inspect
import re
import types
from pathlib import Path

import numpy as np
import pytest

import nnshapley

README = Path(__file__).resolve().parents[1] / "README.md"

# Removing a name from this set is an API change: CHANGES.md records it.
PUBLIC_NAMES = {
    "AccountantQuery", "AccountingError", "CorruptionRecord", "DataError", "Dataset",
    "DetectionReport", "DistanceMetric", "DpParams", "EnumerationLimitError", "KnnConfig",
    "LabeledPoint", "MethodConfig", "MethodDescriptor", "MiaConfig", "MiaVerdict",
    "NeighborCounts", "ParameterError", "PrivacyLossDistribution", "PrivatizedCounts",
    "SemivalueWeight", "TknnConfig", "ValuationResult", "add_feature_noise",
    "aggregate_over_validation", "analytic_gaussian_epsilon", "auroc", "banzhaf_weight",
    "bench_runtime", "calibrate_sigma_for_budget", "compose", "compute_values", "counts_full",
    "counts_leave_one_out", "custom_weight", "distance", "dp_knn_shapley_all",
    "dp_tknn_shapley_all", "epsilon_at_delta", "flip_labels", "gaussian_pld",
    "generate_gaussian_synthetic", "knn_shapley_all", "knn_shapley_single", "load_csv",
    "mia_auroc", "mia_score", "poisson_subsample", "privatize_counts", "run_detection",
    "semivalue_oracle", "shapley_oracle", "shapley_weight", "subsampled_gaussian_pld",
    "tknn_consistency_check", "tknn_semivalue_generic", "tknn_shapley_all",
    "tknn_shapley_from_counts", "tknn_shapley_single", "utility",
}


def test_public_names_are_pinned():
    public = {
        name for name, value in vars(nnshapley).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES


@pytest.mark.parametrize(
    "name",
    [
        "knn_shapley_all", "knn_shapley_single", "tknn_shapley_all", "tknn_shapley_single",
        "tknn_semivalue_generic", "dp_tknn_shapley_all", "dp_knn_shapley_all",
    ],
)
def test_releases_take_the_class_count_from_the_dataset(name):
    assert "num_classes" not in inspect.signature(getattr(nnshapley, name)).parameters


@pytest.mark.parametrize(
    "name", ["utility", "subset_utilities", "semivalue_oracle", "shapley_oracle"]
)
def test_the_oracle_takes_the_release_config_alone(name):
    # The metric comes from the KnnConfig/TknnConfig, the class count from the dataset.
    parameters = inspect.signature(getattr(nnshapley.valuation, name)).parameters
    assert "cfg" in parameters
    assert not {"metric", "num_classes", "kind"} & set(parameters)


def test_private_releases_run_at_the_rate_of_their_dp_params():
    # The rate is DpParams.q alone: no second knob can replace it.
    assert "subsampled" not in inspect.signature(nnshapley.dp_knn_shapley_all).parameters
    assert "dp_subsampled" not in {f.name for f in dataclasses.fields(nnshapley.MethodConfig)}


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, flags=re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    cal, private = namespace["cal"], namespace["private"]
    assert cal.epsilon <= 1.0
    assert private.method.dp["sigma"] == cal.sigma
    assert np.all(np.isfinite(private.scores))
    assert namespace["scores"].scores.shape == private.scores.shape
