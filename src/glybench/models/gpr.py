"""Gaussian process regression and the confidence-weighted ensemble.

The GP uses a unit-variance RBF kernel with length scale 1 on
standardized features, a constant nugget added to the kernel diagonal
for observation noise, and the training log-target mean as its prior
mean. Posterior mean and standard deviation come from a Cholesky solve
of the nugget-augmented kernel matrix.

The ensemble extends the patient-wide GP predictor with one GP per meal
slot, weighting each member by the reciprocal of its posterior standard
deviation at the query point, so the more confident member dominates.
The blend happens in log space and is exponentiated at the boundary.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..features import Design, FeatureConfig
from ..records import MealSlot
from .base import LogLearner

DEFAULT_NUGGET = 0.25
KERNEL_BLOCK_ROWS = 256


def rbf_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    # exp(-0.5 * max(|a|² + |b|² - 2 a·b, 0)) built in the one (len(a),
    # len(b)) array that holds 2 a·b: the norm sums are added a block of
    # rows at a time, so the only other temporary is (block, len(b)). This
    # kernel is the memory peak of a GP fit. Each element is still rounded
    # as (|a|² + |b|²) - 2 a·b.
    sa = np.sum(a**2, axis=1)[:, None]
    sb = np.sum(b**2, axis=1)[None, :]
    d2 = np.matmul(2.0 * a, b.T)
    for start in range(0, len(a), KERNEL_BLOCK_ROWS):
        rows = slice(start, start + KERNEL_BLOCK_ROWS)
        np.subtract(sa[rows] + sb, d2[rows], out=d2[rows])
    np.maximum(d2, 0.0, out=d2)
    d2 *= -0.5
    return np.exp(d2, out=d2)


class GprCore:
    """Posterior mean and standard deviation over standardized inputs."""

    def __init__(self, nugget: float = DEFAULT_NUGGET, prior_mean: Optional[float] = None):
        self.nugget = nugget
        self.prior_mean = prior_mean
        self._z: Optional[np.ndarray] = None
        self._factor = None
        self._alpha: Optional[np.ndarray] = None
        self._mean = 0.0

    def fit(self, z: np.ndarray, y: np.ndarray) -> None:
        from scipy.linalg import cho_factor, cho_solve  # lazily: it loads in 0.2 s

        if len(y) == 0:
            raise ValueError("gpr needs at least one training row")
        self._z = np.atleast_2d(np.asarray(z, float))
        y = np.asarray(y, float)
        self._mean = self.prior_mean if self.prior_mean is not None else float(y.mean())
        k = rbf_kernel(self._z, self._z)
        k[np.diag_indices_from(k)] += self.nugget
        self._factor = cho_factor(k)
        self._alpha = cho_solve(self._factor, y - self._mean)

    def _cross_kernel(self, q: np.ndarray) -> np.ndarray:
        if self._z is None or self._alpha is None:
            raise ValueError("gpr not fitted")
        return rbf_kernel(np.atleast_2d(q), self._z)

    def mean(self, q: np.ndarray) -> np.ndarray:
        """Posterior means for a batch of queries, without the variance solve."""
        return self._mean + self._cross_kernel(q) @ self._alpha

    def posterior(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and standard deviations for a batch of queries."""
        from scipy.linalg import cho_solve

        k_star = self._cross_kernel(q)
        means = self._mean + k_star @ self._alpha
        solved = cho_solve(self._factor, k_star.T)
        var = 1.0 - np.sum(k_star.T * solved, axis=0)
        return means, np.sqrt(np.maximum(var, 0.0))


class GprPredictor(LogLearner):
    """Patient-wide GP regression; predicts mmol/L."""

    def __init__(self, cfg: FeatureConfig):
        super().__init__(cfg)
        self.core = GprCore()

    def _fit(self, z: np.ndarray, y: np.ndarray, train: Design) -> None:
        # the core is a function of the training rows (``train`` carries
        # them), the pipeline's configuration, the nugget and the prior mean:
        # another GP fit on the same design reuses it
        key = (GprCore, self.pipeline.cfg, self.core.nugget, self.core.prior_mean)
        shared = train.shared.get(key)
        if shared is None:
            self.core.fit(z, y)
            train.shared[key] = self.core
        else:
            self.core = shared

    def _predict(self, q: np.ndarray, test: Design) -> np.ndarray:
        return self.core.mean(q)


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


class WeightedGprEnsemble(GprPredictor):
    """Patient-wide GP blended with a per-meal-slot GP by posterior confidence.

    The inherited ``core`` is the patient-wide member (reused from, or left
    for, a GP fit on the same training design); ``core_m`` holds a GP per
    meal slot. All share one standardization so their sigmas are
    comparable. Queries whose slot has no fitted member fall back to the
    patient-wide GP alone (counted in ``fallback_count``).
    """

    def __init__(self, cfg: FeatureConfig):
        super().__init__(cfg)
        self.core_m: dict[MealSlot, GprCore] = {}
        self.fallback_count = 0

    def _fit(self, z: np.ndarray, y: np.ndarray, train: Design) -> None:
        super()._fit(z, y, train)
        self.core_m = {}
        # grouped by the raw meal column, never the standardized or projected one
        for value in np.unique(train.meal):
            idx = np.flatnonzero(train.meal == value)
            core = GprCore()
            core.fit(z[idx], y[idx])
            self.core_m[MealSlot(int(value))] = core
        self.fallback_count = 0

    def _predict(self, q: np.ndarray, test: Design) -> np.ndarray:
        mu_p, sigma_p = self.core.posterior(q)
        out = mu_p.copy()  # slots without a member keep the patient-wide GP
        for value in np.unique(test.meal):
            idx = np.flatnonzero(test.meal == value)
            core = self.core_m.get(MealSlot(int(value)))
            if core is None:
                self.fallback_count += len(idx)
                continue
            mu_m, sigma_m = core.posterior(q[idx])
            out[idx] = weighted_log_mean(mu_p[idx], sigma_p[idx], mu_m, sigma_m)
        return out
