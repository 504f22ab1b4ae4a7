"""Reference scoring functions: one point at a time.

The direct scalar readings of the Clarke error-grid zones and of the
ensemble's reciprocal-sigma blend, which the array versions in
``glybench.evaluation`` and ``glybench.models.gpr`` must reproduce
element for element.
"""

from __future__ import annotations


def clarke_zone(ref_mgdl: float, pred_mgdl: float) -> str:
    """Clinical-error zone of one (reference, predicted) point, in mg/dl."""
    ref, pred = ref_mgdl, pred_mgdl
    if abs(ref - pred) <= 0.2 * ref or (ref < 70 and pred < 70):
        return "A"
    if (ref >= 180 and pred <= 70) or (ref <= 70 and pred >= 180):
        return "E"
    if (70 <= ref <= 290 and pred >= ref + 110) or (
        130 <= ref <= 180 and pred <= (7.0 / 5.0) * ref - 182
    ):
        return "C"
    if (
        (ref >= 240 and 70 <= pred <= 180)
        or (ref <= 175.0 / 3.0 and 70 <= pred <= 180)
        or (175.0 / 3.0 <= ref <= 70 and pred >= (6.0 / 5.0) * ref)
    ):
        return "D"
    return "B"


def convex_combine(mu_p: float, mu_m: float, alpha: float, beta: float) -> float:
    """Weighted average (alpha*mu_p + beta*mu_m) / (alpha + beta)."""
    return (alpha * mu_p + beta * mu_m) / (alpha + beta)


def weighted_log_mean(
    mu_p: float, sigma_p: float, mu_m: float, sigma_m: float
) -> float:
    """Blend two log-space predictions with reciprocal-sigma weights.

    A member with zero sigma is trusted exclusively; if both are zero the
    members average equally.
    """
    if sigma_p <= 0.0 and sigma_m <= 0.0:
        return 0.5 * (mu_p + mu_m)
    if sigma_p <= 0.0:
        return mu_p
    if sigma_m <= 0.0:
        return mu_m
    return convex_combine(mu_p, mu_m, 1.0 / sigma_p, 1.0 / sigma_m)
