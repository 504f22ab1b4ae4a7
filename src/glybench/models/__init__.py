from .base import FeaturePipeline, LogLearner, Predictor, log_targets
from .forest import RandomForestPredictor
from .gpr import (
    DEFAULT_NUGGET,
    GprCore,
    GprPredictor,
    WeightedGprEnsemble,
    rbf_kernel,
    weighted_log_mean,
)
from .linear import KnnPredictor, NaivePredictor, RidgePredictor
from .registry import (
    REGISTRY_CSV_HEADER,
    ModelRegistryEntry,
    builtin_registry,
    registry_csv,
)
from .stacking import attach_stacked, fit_stacker

__all__ = [
    "DEFAULT_NUGGET",
    "FeaturePipeline",
    "GprCore",
    "GprPredictor",
    "KnnPredictor",
    "LogLearner",
    "ModelRegistryEntry",
    "NaivePredictor",
    "Predictor",
    "RandomForestPredictor",
    "REGISTRY_CSV_HEADER",
    "RidgePredictor",
    "WeightedGprEnsemble",
    "attach_stacked",
    "builtin_registry",
    "fit_stacker",
    "log_targets",
    "rbf_kernel",
    "registry_csv",
    "weighted_log_mean",
]
