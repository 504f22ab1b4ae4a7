"""Baseline, ridge and nearest-neighbour predictors.

Ridge and KNN are :class:`~glybench.models.base.LogLearner` subclasses; the
naive baseline works on raw glucose and stands outside that frame.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..features import Design, FeatureConfig
from .base import LogLearner


class NaivePredictor:
    """Predicts the patient's mean training glucose, ignoring the features.

    The one model that works on raw (not log) glucose: it is the plain
    arithmetic mean of the training targets.
    """

    def __init__(self):
        self.mean_bg: Optional[float] = None

    def fit(self, train: Design) -> None:
        if not len(train):
            raise ValueError("naive predictor needs at least one training row")
        self.mean_bg = float(np.mean(train.target_bg))

    def predict(self, test: Design) -> np.ndarray:
        if self.mean_bg is None:
            raise ValueError("predictor not fitted")
        return np.full(len(test), self.mean_bg)


class RidgePredictor(LogLearner):
    """Ridge regression on standardized features, log-space targets.

    Solves (Zᵀ Z + αI) w = Zᵀ (y - ȳ) by Cholesky; the intercept ȳ is
    not penalized. Degenerate all-identical training rows collapse to an
    intercept-only model, i.e. the geometric-mean prediction.
    """

    min_rows = 2

    def __init__(self, cfg: FeatureConfig, alpha: float = 1.0):
        super().__init__(cfg)
        self.alpha = alpha

    def _fit(self, z: np.ndarray, y: np.ndarray, train: Design) -> None:
        from scipy.linalg import cho_factor, cho_solve  # lazily: it loads in 0.2 s

        self.intercept = float(y.mean())
        gram = z.T @ z + self.alpha * np.eye(z.shape[1])
        self.weights = cho_solve(cho_factor(gram), z.T @ (y - self.intercept))

    def _predict(self, q: np.ndarray, test: Design) -> np.ndarray:
        return self.intercept + q @ self.weights


class KnnPredictor(LogLearner):
    """K nearest neighbours (uniform weights) in standardized feature space.

    Prediction is the geometric mean of the neighbours' targets; when the
    training set is smaller than K all rows are used.
    """

    def __init__(self, cfg: FeatureConfig, k: int = 10):
        super().__init__(cfg)
        self.k = k

    def _fit(self, z: np.ndarray, y: np.ndarray, train: Design) -> None:
        self.z, self.y = z, y

    def _predict(self, q: np.ndarray, test: Design) -> np.ndarray:
        d2 = ((q[:, None, :] - self.z[None, :, :]) ** 2).sum(axis=2)
        k = min(self.k, self.z.shape[0])
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        # per row, the same summation as averaging one row's neighbours alone
        return self.y[nearest].mean(axis=1)
