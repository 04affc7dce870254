"""voteopt: optimal per-class weighting for voting ensembles.

Given a validation-accuracy matrix over classifiers and classes, the
package selects an ensemble of fixed size and assigns each selected
classifier a weight per class by solving a regularized optimization model
exactly; six reference weighting schemes, imbalance-aware metrics and
resampling utilities round out the experiment pipeline.
"""

from .baselines import (
    DeParams,
    baseline_with_selection,
    bma_weights,
    de_weights,
    uw_pc,
    uw_pcc,
    wa_pc,
    wa_pcc,
)
from .core import (
    AccuracyMatrix,
    ClassDistribution,
    ClassSet,
    ClassifierSet,
    HyperParams,
    ObjectiveBreakdown,
    PredictionSet,
    SelectionVector,
    UndefinedRatioError,
    WeightMatrix,
    imbalance_ratio,
    objective_value,
)
from .ensemble import EnsembleOutput, evaluate, predict
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    balanced_accuracy,
    binary_auprc,
    improvement_pct,
    macro_auprc,
    macro_prf,
)
from .optimizer import (
    AllSubsetsInfeasible,
    ConstraintReport,
    MipSolution,
    SolverIncomplete,
    SolveStats,
    enumerate_subsets,
    solve_weighting,
    tune_hyperparams,
    validate_constraints,
)
from .qpsolve import QpStatus
from .sampling import (
    ResamplePlan,
    StepPlan,
    ratio_targets,
    resample,
    step_targets,
    stratified_folds,
)

__version__ = "0.1.0"

# Every kernel is plain numpy; kept as a constant for callers that report it.
BACKEND = "numpy"

__all__ = [
    "AccuracyMatrix",
    "AllSubsetsInfeasible",
    "BACKEND",
    "ClassDistribution",
    "ClassSet",
    "ClassifierSet",
    "ConfusionMatrix",
    "ConstraintReport",
    "DeParams",
    "EnsembleOutput",
    "HyperParams",
    "MetricsReport",
    "MipSolution",
    "ObjectiveBreakdown",
    "PredictionSet",
    "QpStatus",
    "ResamplePlan",
    "SelectionVector",
    "SolveStats",
    "SolverIncomplete",
    "StepPlan",
    "UndefinedRatioError",
    "WeightMatrix",
    "balanced_accuracy",
    "baseline_with_selection",
    "binary_auprc",
    "bma_weights",
    "de_weights",
    "enumerate_subsets",
    "evaluate",
    "imbalance_ratio",
    "improvement_pct",
    "macro_auprc",
    "macro_prf",
    "objective_value",
    "predict",
    "ratio_targets",
    "resample",
    "solve_weighting",
    "step_targets",
    "stratified_folds",
    "tune_hyperparams",
    "uw_pc",
    "uw_pcc",
    "validate_constraints",
    "wa_pc",
    "wa_pcc",
]
