"""The expert-predictable (EP) filter.

A record's glucose value counts as expert predictable when a clinician
would be comfortable predicting it from the diary alone:

1. the preceding record is not hypoglycemic (>= 4 mmol/L),
2. a glucose reading exists for the preceding record, and
3. at least six of the eight calendar days before the record's date have
   entries for both the record's meal slot and the preceding one, so the
   slot-to-slot transition has recent precedent.

The eight-day window is literal calendar days by default; set
``window_recorded_dates`` to count back over the patient's eight most
recent recorded dates instead.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .records import DiaryRecord, PatientHistory

HYPO_THRESHOLD_MMOLL = 4.0

PREV_HYPO = "PrevHypo"
PREV_MEAL_MISSING = "PrevMealMissing"
SIX_OF_EIGHT = "SixOfEight"


@dataclass(frozen=True)
class EpDecision:
    predictable: bool
    failed_rules: frozenset[str] = field(default_factory=frozenset)


def _slot_coverage(h: PatientHistory) -> dict[int, int]:
    """Bit mask of the meal slots recorded on each date, keyed by ordinal."""
    coverage: dict[int, int] = {}
    for r in h.records:
        if r.date is not None:
            day = r.date.toordinal()
            coverage[day] = coverage.get(day, 0) | (1 << r.meal.value)
    return coverage


def _decide(
    records: Sequence[DiaryRecord],
    i: int,
    coverage: dict[int, int],
    recorded_days: Optional[list[int]],
) -> EpDecision:
    """The decision for record ``i``, given the history's slot coverage and,
    to count back over recorded dates, its sorted recorded date ordinals."""
    failed: set[str] = set()
    if i == 0:
        return EpDecision(False, frozenset({PREV_MEAL_MISSING}))
    prev = records[i - 1]
    if prev.bg is None:
        failed.add(PREV_MEAL_MISSING)
    elif prev.bg < HYPO_THRESHOLD_MMOLL:
        failed.add(PREV_HYPO)

    current = records[i]
    if current.date is None:
        failed.add(SIX_OF_EIGHT)
    else:
        day = current.date.toordinal()
        if recorded_days is None:
            days = range(day - 8, day)
        else:
            end = bisect.bisect_left(recorded_days, day)
            days = recorded_days[max(end - 8, 0):end]
        both = (1 << current.meal.value) | (1 << prev.meal.value)
        qualifying = sum(1 for d in days if coverage.get(d, 0) & both == both)
        if qualifying < 6:
            failed.add(SIX_OF_EIGHT)

    return EpDecision(not failed, frozenset(failed))


def ep_decisions(
    h: PatientHistory, window_recorded_dates: bool = False
) -> list[EpDecision]:
    """:func:`is_expert_predictable` for every record, in one linear pass."""
    coverage = _slot_coverage(h)
    recorded = sorted(coverage) if window_recorded_dates else None
    return [_decide(h.records, i, coverage, recorded) for i in range(len(h.records))]


def is_expert_predictable(
    h: PatientHistory, i: int, window_recorded_dates: bool = False
) -> EpDecision:
    """Decide whether the glucose at record ``i`` is expert predictable.

    Only looks at records strictly before index ``i`` and dates strictly
    before its date, so the decision is free of look-ahead. ``i == 0``
    fails the preceding-meal rule by construction.
    """
    coverage = _slot_coverage(h)
    recorded = sorted(coverage) if window_recorded_dates else None
    return _decide(h.records, i, coverage, recorded)


def ep_counts(h: PatientHistory, window_recorded_dates: bool = False) -> tuple[int, int]:
    """(total records, records whose glucose is expert predictable)."""
    decisions = ep_decisions(h, window_recorded_dates)
    return len(decisions), sum(d.predictable for d in decisions)


EP_COUNTS_CSV_HEADER = "patient_id,total,ep_count"
