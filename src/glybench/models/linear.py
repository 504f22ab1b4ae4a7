"""Baseline, ridge and nearest-neighbour predictors."""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..features import Design, FeatureConfig
from .base import FeaturePipeline, from_log_array, log_targets


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


class RidgePredictor:
    """Ridge regression on standardized features, log-space targets.

    Solves (Zᵀ Z + αI) w = Zᵀ (y - ȳ) by Cholesky; the intercept ȳ is
    not penalized. Degenerate all-identical training rows collapse to an
    intercept-only model, i.e. the geometric-mean prediction.
    """

    def __init__(self, cfg: FeatureConfig, alpha: float = 1.0):
        self.alpha = alpha
        self.pipeline = FeaturePipeline(cfg)
        self.intercept: Optional[float] = None
        self.weights: Optional[np.ndarray] = None

    def fit(self, train: Design) -> None:
        if len(train) < 2:
            raise ValueError("ridge needs at least two training rows")
        z = self.pipeline.fit(train.x)
        y = log_targets(train)
        self.intercept = float(y.mean())
        gram = z.T @ z + self.alpha * np.eye(z.shape[1])
        self.weights = cho_solve(cho_factor(gram), z.T @ (y - self.intercept))

    def predict(self, test: Design) -> np.ndarray:
        if self.weights is None or self.intercept is None:
            raise ValueError("predictor not fitted")
        z = self.pipeline.transform(test.x)
        return from_log_array(self.intercept + z @ self.weights)


class KnnPredictor:
    """K nearest neighbours (uniform weights) in standardized feature space.

    Prediction is the geometric mean of the neighbours' targets; when the
    training set is smaller than K all rows are used.
    """

    def __init__(self, cfg: FeatureConfig, k: int = 10):
        self.k = k
        self.pipeline = FeaturePipeline(cfg)
        self.z: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None

    def fit(self, train: Design) -> None:
        if not len(train):
            raise ValueError("knn needs at least one training row")
        self.z = self.pipeline.fit(train.x)
        self.y = log_targets(train)

    def predict(self, test: Design) -> np.ndarray:
        if self.z is None or self.y is None:
            raise ValueError("predictor not fitted")
        q = self.pipeline.transform(test.x)
        d2 = ((q[:, None, :] - self.z[None, :, :]) ** 2).sum(axis=2)
        k = min(self.k, self.z.shape[0])
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        # per row, the same summation as averaging one row's neighbours alone
        return from_log_array(self.y[nearest].mean(axis=1))
