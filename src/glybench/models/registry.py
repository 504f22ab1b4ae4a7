"""The named model zoo.

Each entry couples a public name (stable across the CLI and result
tables) with a display symbol, the base algorithm, whether predictions
are confidence weighted, whether the cross-patient stacking feature is
attached, and a factory. Factories take the variant's feature
configuration, a flag for the stacked feature column, and a seed. The
built-in learners ignore the flag: a stacking model's design carries
the stacked column, and every model fits to the width it is given.
The stacked column itself comes from the ``ridge`` entry, fit on the
other patients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..features import FeatureConfig
from .base import Predictor
from .forest import RandomForestPredictor
from .gpr import GprPredictor, WeightedGprEnsemble
from .linear import KnnPredictor, NaivePredictor, RidgePredictor

Factory = Callable[[FeatureConfig, bool, int], Predictor]


@dataclass(frozen=True)
class ModelRegistryEntry:
    name: str
    symbol: str
    algorithm: str
    confidence_weighting: bool
    stacking: bool
    factory: Factory

    def build(self, cfg: FeatureConfig, seed: int = 0) -> Predictor:
        return self.factory(cfg, self.stacking, seed)


def _naive_factory(cfg: FeatureConfig, with_stacked: bool, seed: int) -> Predictor:
    return NaivePredictor()


def _ridge_factory(cfg: FeatureConfig, with_stacked: bool, seed: int) -> Predictor:
    return RidgePredictor(cfg)


def _knn_factory(cfg: FeatureConfig, with_stacked: bool, seed: int) -> Predictor:
    return KnnPredictor(cfg, k=10)


def _rf_factory(cfg: FeatureConfig, with_stacked: bool, seed: int) -> Predictor:
    return RandomForestPredictor(cfg, max_depth=4, n_trees=100, seed=seed)


def _gpr_factory(cfg: FeatureConfig, with_stacked: bool, seed: int) -> Predictor:
    return GprPredictor(cfg)


def _weighted_gpr_factory(cfg: FeatureConfig, with_stacked: bool, seed: int) -> Predictor:
    return WeightedGprEnsemble(cfg)


def builtin_registry() -> dict[str, ModelRegistryEntry]:
    """Shipped learners, keyed by name.

    The support-vector and neural-network rows of the original line-up
    are extension points: register additional entries by adding to the
    returned mapping.
    """
    entries = [
        ModelRegistryEntry("naive", "M_avg", "BG History Average", False, False,
                           _naive_factory),
        ModelRegistryEntry("ridge", "M_ridge", "Ridge Regression", False, False,
                           _ridge_factory),
        ModelRegistryEntry("KNN10U", "M_knn", "KNN", False, False, _knn_factory),
        ModelRegistryEntry("rf4", "M_rf", "Random Forest", False, False, _rf_factory),
        ModelRegistryEntry("gpr_IndPat_AllMeals", "M_gpr", "GPR", False, False,
                           _gpr_factory),
        ModelRegistryEntry("gpr_be", "M^w_gpr", "GPR", True, False,
                           _weighted_gpr_factory),
        ModelRegistryEntry("gpr_AllPat_AllMeals", "M^s_gpr", "GPR", False, True,
                           _gpr_factory),
        ModelRegistryEntry("gpr_be_AllPat_AllMeals", "M^ws_gpr", "GPR", True, True,
                           _weighted_gpr_factory),
    ]
    return {e.name: e for e in entries}


REGISTRY_CSV_HEADER = "name,symbol,algorithm,confidence_weighting,stacking"


def registry_csv() -> str:
    lines = [REGISTRY_CSV_HEADER]
    for e in builtin_registry().values():
        lines.append(
            f"{e.name},{e.symbol},{e.algorithm},"
            f"{int(e.confidence_weighting)},{int(e.stacking)}"
        )
    return "\n".join(lines) + "\n"

