"""Reference expert-predictable filter: one history scan per record.

This is the direct reading of the three rules that the linear
``glybench.ep`` (one slot-coverage map per history) must reproduce:
for each record it lists the window dates and rescans the whole history
for their meal slots, so deciding every record is quadratic.
"""

from __future__ import annotations

import datetime as dt

from glybench.ep import (
    HYPO_THRESHOLD_MMOLL,
    PREV_HYPO,
    PREV_MEAL_MISSING,
    SIX_OF_EIGHT,
    EpDecision,
)
from glybench.records import MealSlot, PatientHistory


def window_dates(h: PatientHistory, before: dt.date, recorded_dates: bool) -> list[dt.date]:
    if not recorded_dates:
        return [before - dt.timedelta(days=d) for d in range(1, 9)]
    seen = sorted({r.date for r in h.records if r.date is not None and r.date < before})
    return seen[-8:]


def is_expert_predictable(
    h: PatientHistory, i: int, window_recorded_dates: bool = False
) -> EpDecision:
    failed: set[str] = set()
    if i == 0:
        return EpDecision(False, frozenset({PREV_MEAL_MISSING}))
    prev = h.records[i - 1]
    if prev.bg is None:
        failed.add(PREV_MEAL_MISSING)
    elif prev.bg < HYPO_THRESHOLD_MMOLL:
        failed.add(PREV_HYPO)

    current = h.records[i]
    slot_pair = (current.meal, prev.meal)
    if current.date is None:
        failed.add(SIX_OF_EIGHT)
    else:
        days = window_dates(h, current.date, window_recorded_dates)
        coverage: dict[dt.date, set[MealSlot]] = {d: set() for d in days}
        for r in h.records:
            if r.date in coverage and r.meal in slot_pair:
                coverage[r.date].add(r.meal)
        qualifying = sum(
            1 for slots in coverage.values()
            if slot_pair[0] in slots and slot_pair[1] in slots
        )
        if qualifying < 6:
            failed.add(SIX_OF_EIGHT)

    return EpDecision(not failed, frozenset(failed))
