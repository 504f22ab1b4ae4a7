"""Shared predictor contract and the feature-space pipeline.

Every model fits on a training :class:`~glybench.features.Design` and
predicts a strictly positive mmol/L value for each row of a test
design, as one array. Every learner but the naive baseline is a
:class:`LogLearner`, fit on log glucose and exponentiated at the
boundary. The pipeline standardizes columns from training rows only
(zero-variance columns are centered and left at zero so they carry no
weight) and, for PCA variants, projects onto components fit on the
standardized training matrix.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from ..features import PCA_COMPONENTS, Design, FeatureConfig, PcaModel, from_log, pca_apply, pca_fit


class Predictor(Protocol):
    def fit(self, train: Design) -> None: ...

    def predict(self, test: Design) -> np.ndarray: ...


def from_log_array(log_values: np.ndarray) -> np.ndarray:
    """Exponentiate log-space predictions one scalar at a time."""
    return np.array([from_log(v) for v in log_values.tolist()], dtype=float)


class FeaturePipeline:
    """Standardize -> optionally project, fit on a training design matrix."""

    def __init__(self, cfg: FeatureConfig):
        self.cfg = cfg
        self.mean: Optional[np.ndarray] = None
        self.scale: Optional[np.ndarray] = None
        self.pca: Optional[PcaModel] = None
        self.pca_skipped = False

    def fit(self, x: np.ndarray) -> np.ndarray:
        if len(x) == 0:
            raise ValueError("cannot fit a pipeline on an empty training set")
        self.mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale = scale
        z = (x - self.mean) / self.scale
        if self.cfg.pca:
            k = PCA_COMPONENTS
            if z.shape[0] >= k + 1 and z.shape[1] >= k:
                self.pca = pca_fit(z)
                z = pca_apply(self.pca, z)
            else:
                self.pca_skipped = True  # too few rows to estimate components
        return z

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean is None or self.scale is None:
            raise ValueError("pipeline not fitted")
        if x.shape[1] != len(self.mean):
            raise ValueError(
                f"design has {x.shape[1]} columns, the pipeline was fit on {len(self.mean)}"
            )
        z = (x - self.mean) / self.scale
        if self.pca is not None:
            z = pca_apply(self.pca, z)
        return z


class LogLearner:
    """Standardize, fit on the design's log targets; exponentiate on predict.

    A subclass implements ``_fit(z, y, train)`` on the pipeline's training
    matrix and log targets, and ``_predict(q, test)``, which returns log
    values for the transformed test matrix. ``fit`` needs ``min_rows`` rows.
    """

    min_rows = 1

    def __init__(self, cfg: FeatureConfig):
        self.pipeline = FeaturePipeline(cfg)
        self._fitted = False

    def fit(self, train: Design) -> None:
        if len(train) < self.min_rows:
            raise ValueError(f"{type(self).__name__} needs {self.min_rows}+ training rows")
        self._fit(self.pipeline.fit(train.x), train.log_target, train)
        self._fitted = True

    def predict(self, test: Design) -> np.ndarray:
        if not self._fitted:
            raise ValueError("predictor not fitted")
        return from_log_array(self._predict(self.pipeline.transform(test.x), test))
