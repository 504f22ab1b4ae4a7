"""The expert-predictable (EP) filter.

A record's glucose value counts as expert predictable when a clinician
would be comfortable predicting it from the diary alone:

1. the preceding record is not hypoglycemic (>= 4 mmol/L),
2. a glucose reading exists for the preceding record, and
3. at least six of the eight calendar days before the record's date have
   entries for both the record's meal slot and the preceding one, so the
   slot-to-slot transition has recent precedent.

The window is the eight calendar days before the record's date, so a
day without records does not qualify. :func:`failed_rules` decides every record
at once, as masks over the meal, date and glucose arrays of
``features.RecordArrays``; :func:`ep_counts` reads a patient's cleaned
arrays, and :func:`is_expert_predictable` decides one record of a
``PatientHistory``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import RecordArrays
from .records import PatientHistory

HYPO_THRESHOLD_MMOLL = 4.0

PREV_HYPO = "PrevHypo"
PREV_MEAL_MISSING = "PrevMealMissing"
SIX_OF_EIGHT = "SixOfEight"


@dataclass(frozen=True)
class EpDecision:
    predictable: bool
    failed_rules: frozenset[str] = field(default_factory=frozenset)


def failed_rules(meal: np.ndarray, day: np.ndarray, bg: np.ndarray) -> dict[str, np.ndarray]:
    """For each rule, the mask of the records that fail it.

    ``meal`` holds slot ordinals, ``day`` date ordinals (0 for an undated
    record; real ordinals start at 1) and ``bg`` glucose (NaN when
    missing). Record 0 fails only the preceding-meal rule; an undated
    record fails the six-of-eight rule.
    """
    prev_bg = np.roll(bg, 1)
    prev_bg[:1] = np.nan
    both = np.left_shift(1, meal) | np.left_shift(1, np.roll(meal, 1))
    dated = day > 0
    dates, on_date = np.unique(day[dated], return_inverse=True)
    # the bit mask of the slots recorded on each date, then a 0 that
    # position -1 reads for a date with no records
    coverage = np.zeros(len(dates) + 1, dtype=np.int64)
    np.bitwise_or.at(coverage, on_date, np.left_shift(1, meal[dated]))
    padded = np.append(dates, np.iinfo(np.int64).max)
    qualifying = np.zeros(len(meal), dtype=np.intp)
    for back in range(1, 9):
        at = np.searchsorted(dates, day - back)
        at[padded[at] != day - back] = -1
        qualifying += (coverage[at] & both) == both
    six_of_eight = ~dated | (qualifying < 6)
    six_of_eight[:1] = False
    return {
        PREV_HYPO: prev_bg < HYPO_THRESHOLD_MMOLL,
        PREV_MEAL_MISSING: np.isnan(prev_bg),
        SIX_OF_EIGHT: six_of_eight,
    }


def predictable(masks: dict[str, np.ndarray]) -> np.ndarray:
    """The records that fail none of :func:`failed_rules`' masks."""
    return ~np.logical_or.reduce(list(masks.values()))


def is_expert_predictable(h: PatientHistory, i: int) -> EpDecision:
    """Decide whether the glucose at record ``i`` is expert predictable.

    Reads records ``0..i`` only, so the decision is free of look-ahead.
    ``i == 0`` fails the preceding-meal rule by construction.
    """
    records = h.records[: i + 1]
    masks = failed_rules(
        np.array([r.meal.value for r in records], dtype=np.intp),
        np.array([0 if r.date is None else r.date.toordinal() for r in records],
                 dtype=np.int64),
        np.array([r.bg for r in records], dtype=float),
    )
    failed = frozenset(rule for rule, mask in masks.items() if mask[i])
    return EpDecision(not failed, failed)


def ep_counts(a: RecordArrays) -> tuple[int, int]:
    """(total records, records whose glucose is expert predictable) of a
    patient's cleaned arrays."""
    masks = failed_rules(a.meal, a.day, a.bg)
    return len(a), int(np.count_nonzero(predictable(masks)))


EP_COUNTS_CSV_HEADER = "patient_id,total,ep_count"
