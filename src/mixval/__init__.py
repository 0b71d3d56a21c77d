"""Scaling curves and data valuation for real/synthetic training mixtures.

Two toolsets around one data model (long-tail knowledge distributions
sampled into per-contributor real/synthetic mixtures):

* ``scaling``: an exact finite-sum test-error oracle for mixture
  training, closed-form phase expressions, and breakpoint detection on
  swept curves.
* ``mmd`` / ``ntk`` / ``valuation`` / ``evalharness``: a
  generalization-bound-derived contributor score (initial loss, kernel
  discrepancy, tangent-kernel bound term, composition penalty), its
  Shapley / leave-one-out aggregations, and a toy retraining harness
  that validates score rankings against ground truth.

The ``mixval`` command line (``mixval.cli``, also ``python -m mixval``)
exposes both; see ``mixval --help``.
"""

from .errors import (
    ConfigError,
    DegenerateDataError,
    DomainError,
    GridError,
    MixvalError,
    NumericalError,
)
from .evalharness import (
    CorrelationReport,
    GroundTruth,
    MethodEvaluation,
    RuntimeReport,
    ShiftFixture,
    TrainingConfig,
    TrainResult,
    accuracy,
    evaluate_method,
    kendall,
    loss_only_scores,
    make_shift_fixture,
    pearson,
    spearman,
    time_method,
    train_ground_truth,
    train_model,
)
from .longtail import (
    Contributor,
    MixtureSpec,
    PowerLawSpec,
    TruncatedPowerLawSpec,
    knowledge_labels,
    make_contributors,
    pmf,
    pool_contributors,
    read_contributors,
    sample_knowledge,
    write_contributors,
)
from .mmd import (
    DiscrepancyEstimate,
    DistanceBlocks,
    KernelSpec,
    MultiKernelSpec,
    gaussian_kernel,
    median_heuristic,
    mmd,
)
from .ntk import (
    MLPSpec,
    Model,
    NTKGram,
    ParamVector,
    bound_term,
    default_ridge,
    forward,
    gradients,
    init_params,
    ntk_gram,
    per_example_gradient,
    predict,
)
from .scaling import (
    BreakpointReport,
    PhaseCurve,
    ScalingParams,
    detect_breakpoints,
    error_limit,
    expected_test_error_exact,
    log_grid,
    phase_closed_form,
    sweep,
    upper_incomplete_gamma,
)
from .valuation import (
    CoalitionWeighting,
    MarginalReport,
    ValuationConfig,
    ValuationScore,
    ValuationWeights,
    WeightFit,
    coalition_value_fn,
    empirical_loss,
    exact_shapley,
    fit_score_weights,
    fit_weights,
    loo_values,
    marginal_values,
    rescore,
    sampled_shapley,
    score,
    score_all,
    term_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MixvalError",
    "DomainError",
    "DegenerateDataError",
    "GridError",
    "NumericalError",
    "ConfigError",
    # longtail
    "PowerLawSpec",
    "TruncatedPowerLawSpec",
    "MixtureSpec",
    "Contributor",
    "pmf",
    "sample_knowledge",
    "knowledge_labels",
    "make_contributors",
    "pool_contributors",
    "write_contributors",
    "read_contributors",
    # scaling
    "ScalingParams",
    "PhaseCurve",
    "BreakpointReport",
    "expected_test_error_exact",
    "error_limit",
    "phase_closed_form",
    "upper_incomplete_gamma",
    "log_grid",
    "sweep",
    "detect_breakpoints",
    # mmd
    "KernelSpec",
    "MultiKernelSpec",
    "DiscrepancyEstimate",
    "DistanceBlocks",
    "gaussian_kernel",
    "median_heuristic",
    "mmd",
    # ntk
    "MLPSpec",
    "ParamVector",
    "NTKGram",
    "Model",
    "init_params",
    "forward",
    "predict",
    "gradients",
    "per_example_gradient",
    "ntk_gram",
    "default_ridge",
    "bound_term",
    # valuation
    "ValuationWeights",
    "ValuationScore",
    "ValuationConfig",
    "WeightFit",
    "CoalitionWeighting",
    "MarginalReport",
    "empirical_loss",
    "score",
    "score_all",
    "term_matrix",
    "fit_weights",
    "fit_score_weights",
    "rescore",
    "coalition_value_fn",
    "exact_shapley",
    "sampled_shapley",
    "loo_values",
    "marginal_values",
    # evalharness
    "TrainingConfig",
    "TrainResult",
    "GroundTruth",
    "CorrelationReport",
    "MethodEvaluation",
    "RuntimeReport",
    "ShiftFixture",
    "train_model",
    "train_ground_truth",
    "accuracy",
    "pearson",
    "spearman",
    "kendall",
    "evaluate_method",
    "loss_only_scores",
    "time_method",
    "make_shift_fixture",
]
