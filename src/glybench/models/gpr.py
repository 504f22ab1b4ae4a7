"""Gaussian process regression and the confidence-weighted ensemble.

The GP uses a unit-variance RBF kernel with length scale 1 on
standardized features, a constant nugget added to the kernel diagonal
for observation noise, and the training log-target mean as its prior
mean. Posterior mean and standard deviation come from a Cholesky solve
of the nugget-augmented kernel matrix.

The ensemble blends a patient-wide GP with a per-meal-slot GP, weighting
each by the reciprocal of its posterior standard deviation at the query
point, so the more confident member dominates. The blend happens in log
space and is exponentiated at the boundary.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..features import Design, FeatureConfig
from ..records import MealSlot
from .base import FeaturePipeline, from_log_array, log_targets

DEFAULT_NUGGET = 0.25


def rbf_kernel(a: np.ndarray, b: np.ndarray, length_scale: float = 1.0) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    # exp(-0.5 * max(|a|² + |b|² - 2 a·b, 0) / l²) computed in place, so at
    # most two (len(a), len(b)) arrays are alive at once instead of three:
    # this kernel is the memory peak of a GP fit
    d2 = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :]
    d2 -= 2.0 * a @ b.T
    np.maximum(d2, 0.0, out=d2)
    d2 *= -0.5
    d2 /= length_scale**2
    return np.exp(d2, out=d2)


class GprCore:
    """Posterior mean and standard deviation over standardized inputs."""

    def __init__(
        self,
        nugget: float = DEFAULT_NUGGET,
        length_scale: float = 1.0,
        prior_mean: Optional[float] = None,
    ):
        self.nugget = nugget
        self.length_scale = length_scale
        self.prior_mean = prior_mean
        self._z: Optional[np.ndarray] = None
        self._factor = None
        self._alpha: Optional[np.ndarray] = None
        self._mean = 0.0

    def fit(self, z: np.ndarray, y: np.ndarray) -> None:
        if len(y) == 0:
            raise ValueError("gpr needs at least one training row")
        self._z = np.atleast_2d(np.asarray(z, float))
        y = np.asarray(y, float)
        self._mean = self.prior_mean if self.prior_mean is not None else float(y.mean())
        k = rbf_kernel(self._z, self._z, self.length_scale)
        k[np.diag_indices_from(k)] += self.nugget
        self._factor = cho_factor(k)
        self._alpha = cho_solve(self._factor, y - self._mean)

    def _cross_kernel(self, q: np.ndarray) -> np.ndarray:
        if self._z is None or self._alpha is None:
            raise ValueError("gpr not fitted")
        return rbf_kernel(np.atleast_2d(q), self._z, self.length_scale)

    def mean(self, q: np.ndarray) -> np.ndarray:
        """Posterior means for a batch of queries, without the variance solve."""
        return self._mean + self._cross_kernel(q) @ self._alpha

    def posterior(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and standard deviations for a batch of queries."""
        k_star = self._cross_kernel(q)
        means = self._mean + k_star @ self._alpha
        solved = cho_solve(self._factor, k_star.T)
        var = 1.0 - np.sum(k_star.T * solved, axis=0)
        return means, np.sqrt(np.maximum(var, 0.0))


class GprPredictor:
    """Patient-wide GP regression; predicts mmol/L."""

    def __init__(self, cfg: FeatureConfig, nugget: float = DEFAULT_NUGGET):
        self.pipeline = FeaturePipeline(cfg)
        self.core = GprCore(nugget=nugget)
        self._fitted = False

    def fit(self, train: Design) -> None:
        if not len(train):
            raise ValueError("gpr needs at least one training row")
        z = self.pipeline.fit(train.x)
        self.core.fit(z, log_targets(train))
        self._fitted = True

    def predict(self, test: Design) -> np.ndarray:
        if not self._fitted:
            raise ValueError("predictor not fitted")
        return from_log_array(self.core.mean(self.pipeline.transform(test.x)))


def weighted_log_mean(mu_p, sigma_p, mu_m, sigma_m) -> np.ndarray:
    """Blend two log-space predictions with reciprocal-sigma weights.

    Elementwise ``(mu_p / sigma_p + mu_m / sigma_m) / (1 / sigma_p + 1 / sigma_m)``.
    A member with zero sigma is trusted exclusively; if both are zero the
    members average equally.
    """
    p_zero, m_zero = sigma_p <= 0.0, sigma_m <= 0.0
    # a zero sigma's weight is never used; dividing by 1 instead avoids inf
    alpha = 1.0 / np.where(p_zero, 1.0, sigma_p)
    beta = 1.0 / np.where(m_zero, 1.0, sigma_m)
    blend = (alpha * mu_p + beta * mu_m) / (alpha + beta)
    return np.where(p_zero, np.where(m_zero, 0.5 * (mu_p + mu_m), mu_p),
                    np.where(m_zero, mu_m, blend))


class WeightedGprEnsemble:
    """Patient-wide GP blended with a per-meal-slot GP by posterior confidence.

    Both members share one standardization so their sigmas are
    comparable. Queries whose slot has no fitted member fall back to the
    patient-wide GP alone (counted in ``fallback_count``).
    """

    def __init__(self, cfg: FeatureConfig, nugget: float = DEFAULT_NUGGET):
        self.pipeline = FeaturePipeline(cfg)
        self.nugget = nugget
        self.core_p = GprCore(nugget=nugget)
        self.core_m: dict[MealSlot, GprCore] = {}
        self.fallback_count = 0
        self._fitted = False

    def fit(self, train: Design) -> None:
        if not len(train):
            raise ValueError("ensemble needs at least one training row")
        z = self.pipeline.fit(train.x)
        y = log_targets(train)
        self.core_p.fit(z, y)
        self.core_m = {}
        # grouped by the raw meal column, never the standardized or projected one
        for value in np.unique(train.meal):
            idx = np.flatnonzero(train.meal == value)
            core = GprCore(nugget=self.nugget)
            core.fit(z[idx], y[idx])
            self.core_m[MealSlot(int(value))] = core
        self.fallback_count = 0
        self._fitted = True

    def predict(self, test: Design) -> np.ndarray:
        if not self._fitted:
            raise ValueError("predictor not fitted")
        q = self.pipeline.transform(test.x)
        mu_p, sigma_p = self.core_p.posterior(q)
        out = mu_p.copy()  # slots without a member keep the patient-wide GP
        for value in np.unique(test.meal):
            idx = np.flatnonzero(test.meal == value)
            core = self.core_m.get(MealSlot(int(value)))
            if core is None:
                self.fallback_count += len(idx)
                continue
            mu_m, sigma_m = core.posterior(q[idx])
            out[idx] = weighted_log_mean(mu_p[idx], sigma_p[idx], mu_m, sigma_m)
        return from_log_array(out)
