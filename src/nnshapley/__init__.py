"""Data values for nearest-neighbor utilities.

Exact Shapley scores for soft-label KNN and threshold-KNN classifiers,
differentially private release with privacy-loss accounting, a likelihood
ratio membership-inference attack for auditing, and detection/benchmark
harnesses.
"""

__version__ = "0.1.0"

from .dataset import (
    CorruptionRecord,
    Dataset,
    DistanceMetric,
    LabeledPoint,
    add_feature_noise,
    distance,
    flip_labels,
    generate_gaussian_synthetic,
    load_csv,
)
from .valuation import (
    KnnConfig,
    MethodDescriptor,
    SemivalueWeight,
    TknnConfig,
    ValuationResult,
    aggregate_over_validation,
    banzhaf_weight,
    custom_weight,
    semivalue_oracle,
    shapley_oracle,
    shapley_weight,
    utility,
)
from .knn import knn_shapley_all, knn_shapley_single
from .tknn import (
    NeighborCounts,
    counts_full,
    counts_leave_one_out,
    tknn_semivalue_generic,
    tknn_shapley_all,
    tknn_shapley_from_counts,
    tknn_shapley_single,
)
from .dp import (
    DpParams,
    PrivatizedCounts,
    dp_knn_shapley_all,
    dp_tknn_shapley_all,
    poisson_subsample,
    privatize_counts,
)
from .accountant import (
    AccountantQuery,
    PrivacyLossDistribution,
    analytic_gaussian_epsilon,
    calibrate_sigma_for_budget,
    compose,
    epsilon_at_delta,
    gaussian_pld,
    subsampled_gaussian_pld,
)
from .mia import MiaConfig, MiaVerdict, mia_auroc, mia_score
from .evaluation import (
    DetectionReport,
    MethodConfig,
    auroc,
    bench_runtime,
    compute_values,
    run_detection,
    tknn_consistency_check,
)
from .errors import AccountingError, DataError, EnumerationLimitError, ParameterError
