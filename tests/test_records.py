from __future__ import annotations

import datetime as dt

from hypothesis import given
from hypothesis import strategies as st

from glybench.ingest import parse_diary_csv
from glybench.records import (
    DiaryRecord,
    ExerciseLevel,
    MealSlot,
    PatientHistory,
    encode_diary_csv,
    validate_history,
)

from conftest import history, rec


def test_meal_slots_are_eight_and_ordered():
    slots = list(MealSlot)
    assert len(slots) == 8
    assert slots[0] is MealSlot.BeforeBreakfast
    assert slots[-1] is MealSlot.DuringNight
    assert sorted(slots, key=lambda s: s.value) == slots


def test_exercise_levels_bijection():
    assert [e.value for e in ExerciseLevel] == [2, 4, 7, 10]
    assert ExerciseLevel(7) is ExerciseLevel.Active


def test_validate_clean_history_is_empty(single_day):
    assert validate_history(single_day) == []


def test_validate_flags_low_bg():
    h = history(
        "p",
        [
            rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=5.0),
            rec("2016-01-01", "10:00:00", MealSlot.AfterBreakfast, bg=6.0),
            rec("2016-01-01", "12:00:00", MealSlot.BeforeLunch, bg=7.0),
            rec("2016-01-01", "14:00:00", MealSlot.AfterLunch, bg=0.5),
        ],
    )
    assert validate_history(h) == ["bg<1.0 @3"]


def test_validate_flags_out_of_order_timestamps():
    h = history(
        "p",
        [
            rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=5.0),
            rec("2016-01-01", "12:00:00", MealSlot.BeforeLunch, bg=6.0),
            rec("2016-01-01", "10:00:00", MealSlot.AfterBreakfast, bg=6.0),
        ],
    )
    assert validate_history(h) == ["order @(1,2)"]


def test_validate_flags_missing_bg_and_date():
    h = history("p", [rec("", "08:00:00", MealSlot.BeforeBreakfast, bg=None)])
    problems = validate_history(h)
    assert "missing timestamp @0" in problems
    assert "bg missing @0" in problems


def test_csv_round_trip_is_byte_identical(single_day):
    cohort = {"p16": single_day}
    text = encode_diary_csv(cohort)
    assert encode_diary_csv(parse_diary_csv(text)) == text


def test_csv_round_trip_with_missing_fields():
    h = history(
        "p1",
        [
            rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=5.5,
                cho=None, bolus=None, basal=None, ev=None, pv=0.0),
            rec("2016-01-01", "12:00:00", MealSlot.BeforeLunch, bg=None,
                cho=40.0, bolus=3.25, basal=12.0, ev=ExerciseLevel.Active, pv=0.75),
        ],
    )
    text = encode_diary_csv({"p1": h})
    again = parse_diary_csv(text)
    assert encode_diary_csv(again) == text
    parsed = again["p1"].records
    assert parsed[0].cho is None and parsed[0].ev is None
    assert parsed[1].ev is ExerciseLevel.Active


@given(
    bg=st.floats(min_value=1.0, max_value=35.0, allow_nan=False),
    cho=st.one_of(st.none(), st.floats(min_value=0, max_value=200, allow_nan=False)),
    bolus=st.one_of(st.none(), st.floats(min_value=0, max_value=40, allow_nan=False)),
    meal=st.sampled_from(list(MealSlot)),
    ev=st.one_of(st.none(), st.sampled_from(list(ExerciseLevel))),
)
def test_csv_round_trip_property(bg, cho, bolus, meal, ev):
    h = PatientHistory(
        "x",
        (
            DiaryRecord(
                meal=meal,
                date=dt.date(2016, 2, 3),
                time=dt.time(7, 45, 12),
                bg=bg,
                cho=cho,
                bolus=bolus,
                basal=None,
                ev=ev,
                pv=0.5,
            ),
        ),
    )
    text = encode_diary_csv({"x": h})
    assert encode_diary_csv(parse_diary_csv(text)) == text
