"""Reference expert-predictable filter: one history scan per record.

This is the direct reading of the three rules that the array
``glybench.ep.failed_rules`` (one mask per rule over a history's meal,
date and glucose arrays) must reproduce: for each record it lists the
window dates and rescans the whole history for their meal slots, so
deciding every record is quadratic.
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


def window_dates(before: dt.date) -> list[dt.date]:
    return [before - dt.timedelta(days=d) for d in range(1, 9)]


def is_expert_predictable(h: PatientHistory, i: int) -> EpDecision:
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
        days = window_dates(current.date)
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
