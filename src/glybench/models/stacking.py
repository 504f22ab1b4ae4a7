"""Cross-patient stacking: borrow the rest of the cohort as a feature.

A stacking learner is fit on the pooled rows of every patient except the
target; its prediction for each target row is appended as one extra
column. The stacking model never sees the target patient, so the added
column cannot leak the target's own test folds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from ..features import Design
from .base import Predictor


def fit_stacker(stacker: Predictor, other_patients: Sequence[Design]) -> Predictor:
    if not other_patients:
        raise ValueError("stacking requires rows from at least one other patient")
    stacker.fit(
        Design(
            np.vstack([d.x for d in other_patients]),
            np.concatenate([d.target_bg for d in other_patients]),
            np.concatenate([d.index for d in other_patients]),
            np.concatenate([d.log_target for d in other_patients]),
        )
    )
    return stacker


def attach_stacked(stacker: Predictor, design: Design) -> Design:
    """The design with one batch stacker prediction appended as its last column."""
    return replace(design, x=np.column_stack([design.x, stacker.predict(design)]))
