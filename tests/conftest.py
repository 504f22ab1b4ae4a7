from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import strategies as st

from glybench.records import (
    DiaryRecord,
    ExerciseLevel,
    MealSlot,
    PatientHistory,
    StaticInfo,
)


def rec(
    date: str,
    time: str,
    meal: MealSlot,
    bg=None,
    cho=None,
    bolus=None,
    basal=None,
    ev=None,
    pv=0.0,
) -> DiaryRecord:
    return DiaryRecord(
        meal=meal,
        date=dt.date.fromisoformat(date) if date else None,
        time=dt.time.fromisoformat(time) if time else None,
        bg=bg,
        cho=cho,
        bolus=bolus,
        basal=basal,
        ev=ev,
        pv=pv,
    )


def history(pid: str, records, static: StaticInfo | None = None) -> PatientHistory:
    return PatientHistory(pid, tuple(records), static)


TIMED_START = dt.datetime(2016, 3, 7, 6, 0)


def timed_history(steps) -> PatientHistory:
    """Records from ``(minutes after the previous one, bg, cho, bolus)``
    steps, the first at ``TIMED_START`` plus its minutes; the meal slot
    follows the hour of day (three hours per slot)."""
    t = TIMED_START
    records = []
    for minutes, bg, cho, bolus in steps:
        t += dt.timedelta(minutes=minutes)
        records.append(DiaryRecord(meal=MealSlot(t.hour // 3), date=t.date(),
                                   time=t.time(), bg=bg, cho=cho, bolus=bolus))
    return history("timed", records)


# None is a gap, 0.0 no event; step lengths hit the five-hour IOB window
# edge, equal timestamps, several boluses inside one window and times off
# the whole minute (microseconds)
_amount = st.one_of(st.none(), st.just(0.0), st.floats(0.5, 80.0))
history_steps = st.lists(
    st.tuples(
        st.sampled_from([0, 20, 45, 61.2345678, 180, 180, 299, 300, 301, 720]),
        st.floats(1.0, 25.0),
        _amount,
        _amount,
    ),
    min_size=1,
    max_size=60,
)


@pytest.fixture
def single_day() -> PatientHistory:
    """One day of six entries with a mid-morning bolus still on board."""
    return history(
        "p16",
        [
            rec("2015-11-25", "08:36:00", MealSlot.BeforeBreakfast,
                bg=16.2, cho=30.0, bolus=10.4, basal=0.0, ev=ExerciseLevel.Normal, pv=0.50),
            rec("2015-11-25", "10:19:00", MealSlot.AfterBreakfast,
                bg=14.7, cho=0.0, bolus=0.0, basal=0.0, ev=ExerciseLevel.Normal, pv=0.50),
            rec("2015-11-25", "12:19:00", MealSlot.BeforeLunch,
                bg=5.6, cho=30.0, bolus=3.0, basal=0.0, ev=ExerciseLevel.Normal, pv=0.63),
            rec("2015-11-25", "15:35:00", MealSlot.AfterLunch,
                bg=6.8, cho=0.0, bolus=0.0, basal=0.0, ev=ExerciseLevel.Normal, pv=0.45),
            rec("2015-11-25", "18:42:00", MealSlot.BeforeSupper,
                bg=10.5, cho=15.0, bolus=3.8, basal=0.0, ev=ExerciseLevel.Normal, pv=0.90),
            rec("2015-11-25", "20:11:00", MealSlot.AfterSupper,
                bg=3.0, cho=0.0, bolus=0.0, basal=0.0, ev=ExerciseLevel.Normal, pv=0.90),
        ],
    )


def ep_fixture(days_with_both: int, prev_bg: float = 6.0) -> tuple[PatientHistory, int]:
    """History where `days_with_both` of the 8 days before the target carry
    both an after-breakfast and a before-lunch entry; returns (history, index
    of the target before-lunch record)."""
    records = []
    base = dt.date(2016, 5, 1)
    for d in range(8):
        date = (base + dt.timedelta(days=d)).isoformat()
        records.append(rec(date, "09:30:00", MealSlot.AfterBreakfast, bg=7.0, cho=0.0, bolus=0.0))
        if d < days_with_both:
            records.append(rec(date, "12:00:00", MealSlot.BeforeLunch, bg=6.5, cho=40.0, bolus=4.0))
    target_date = (base + dt.timedelta(days=8)).isoformat()
    records.append(rec(target_date, "09:30:00", MealSlot.AfterBreakfast, bg=prev_bg, cho=0.0, bolus=0.0))
    records.append(rec(target_date, "12:00:00", MealSlot.BeforeLunch, bg=5.8, cho=40.0, bolus=4.0))
    h = history("ep", records)
    return h, len(records) - 1
