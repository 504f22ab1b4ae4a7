"""glybench: a desk-scale benchmarking toolkit for meal-to-meal blood
glucose prediction on diabetes-diary data.

The pipeline: parse or synthesize a diary cohort, clean it, materialize
named dataset variants (imputation policies x feature switches x the
expert-predictable filter), run a registry of predictors under
contiguous k-fold cross-validation, and report six loss metrics relative
to a mean-predicting baseline.
"""

import os as _os

# Every matrix here is small (hundreds of rows); oversubscribed BLAS
# thread pools slow these solves by orders of magnitude on small
# machines. Only applies when the variables are not already set and
# numpy has not been imported yet. Use `run --jobs` for process-level
# parallelism instead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .records import (
    DiaryRecord,
    ExerciseLevel,
    MealSlot,
    PatientHistory,
    StaticInfo,
    validate_history,
)
from .ingest import (
    CleaningReport,
    MissingPolicy,
    clean,
    clean_cohort,
    parse_diary_csv,
)
from .features import (
    DowMode,
    FeatureConfig,
    IOB_KNOTS,
    PCA_COMPONENTS,
    build_feature_rows,
    from_log,
    iob_fraction,
    pca_apply,
    pca_fit,
    to_log_target,
)
from .ep import EpDecision, ep_counts, is_expert_predictable
from .variants import VariantDataset, VariantSpec, builtin_specs, materialize, spec_by_id
from .models import builtin_registry
from .evaluation import (
    METRICS,
    EvalReport,
    FoldPlan,
    PenaltyTable,
    contiguous_kfold,
    evaluate,
    evaluate_grid,
    g_metric,
    l1,
    rl1,
    rmse,
)
from .synth import SynthConfig, default_config, generate, high_signal_config, zero_signal_config

__version__ = "0.1.0"

__all__ = [
    "CleaningReport",
    "DiaryRecord",
    "DowMode",
    "EpDecision",
    "EvalReport",
    "ExerciseLevel",
    "FeatureConfig",
    "FoldPlan",
    "IOB_KNOTS",
    "METRICS",
    "MealSlot",
    "MissingPolicy",
    "PCA_COMPONENTS",
    "PatientHistory",
    "PenaltyTable",
    "StaticInfo",
    "SynthConfig",
    "VariantDataset",
    "VariantSpec",
    "builtin_registry",
    "builtin_specs",
    "build_feature_rows",
    "clean",
    "clean_cohort",
    "contiguous_kfold",
    "default_config",
    "ep_counts",
    "evaluate",
    "evaluate_grid",
    "from_log",
    "g_metric",
    "generate",
    "high_signal_config",
    "iob_fraction",
    "is_expert_predictable",
    "l1",
    "materialize",
    "parse_diary_csv",
    "pca_apply",
    "pca_fit",
    "rl1",
    "rmse",
    "spec_by_id",
    "to_log_target",
    "validate_history",
    "zero_signal_config",
]
