from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glybench.ep import (
    PREV_HYPO,
    PREV_MEAL_MISSING,
    SIX_OF_EIGHT,
    ep_counts,
    ep_decisions,
    is_expert_predictable,
)
from glybench.ingest import clean_cohort
from glybench.records import DiaryRecord, MealSlot, PatientHistory
from glybench.synth import default_config, generate

import ep_oracle
from conftest import ep_fixture, history, rec


def test_first_record_is_never_predictable():
    h, _ = ep_fixture(8)
    decision = is_expert_predictable(h, 0)
    assert not decision.predictable
    assert decision.failed_rules == {PREV_MEAL_MISSING}


def test_preceding_hypo_blocks_prediction():
    h, i = ep_fixture(8, prev_bg=3.5)
    decision = is_expert_predictable(h, i)
    assert not decision.predictable
    assert decision.failed_rules == {PREV_HYPO}


def test_eight_full_days_predictable():
    h, i = ep_fixture(8, prev_bg=6.0)
    decision = is_expert_predictable(h, i)
    assert decision.predictable
    assert decision.failed_rules == frozenset()


def test_six_of_eight_is_the_boundary():
    h6, i6 = ep_fixture(6)
    assert is_expert_predictable(h6, i6).predictable

    h5, i5 = ep_fixture(5)
    decision = is_expert_predictable(h5, i5)
    assert not decision.predictable
    assert decision.failed_rules == {SIX_OF_EIGHT}


def test_missing_prev_bg_fails_rule_two():
    h, i = ep_fixture(8)
    records = list(h.records)
    records[i - 1] = rec(
        records[i - 1].date.isoformat(), "09:30:00", MealSlot.AfterBreakfast, bg=None
    )
    weakened = history("ep", records)
    decision = is_expert_predictable(weakened, i)
    assert not decision.predictable
    assert PREV_MEAL_MISSING in decision.failed_rules


def test_adding_a_qualifying_day_never_flips_true_to_false():
    # monotonicity: grow day coverage from 5 to 8, decision goes false -> true
    previous = False
    for days in range(5, 9):
        h, i = ep_fixture(days)
        now = is_expert_predictable(h, i).predictable
        assert now >= previous
        previous = now


def test_decision_ignores_future_records():
    h, i = ep_fixture(8)
    base = is_expert_predictable(h, i)
    extended = history(
        "ep",
        list(h.records)
        + [rec("2016-05-10", "19:00:00", MealSlot.AfterSupper, bg=2.0, cho=0.0)],
    )
    assert is_expert_predictable(extended, i) == base


def test_window_is_calendar_days_by_default_and_flippable():
    # both-slot days exist but only every second calendar day: 4 of the last
    # 8 calendar days qualify, while the last 8 *recorded* dates all do.
    records = []
    base = dt.date(2016, 5, 1)
    for d in range(0, 16, 2):
        date = (base + dt.timedelta(days=d)).isoformat()
        records.append(rec(date, "09:30:00", MealSlot.AfterBreakfast, bg=7.0))
        records.append(rec(date, "12:00:00", MealSlot.BeforeLunch, bg=6.5))
    target = (base + dt.timedelta(days=16)).isoformat()
    records.append(rec(target, "09:30:00", MealSlot.AfterBreakfast, bg=6.0))
    records.append(rec(target, "12:00:00", MealSlot.BeforeLunch, bg=5.8))
    h = history("gap", records)
    i = len(records) - 1
    assert not is_expert_predictable(h, i).predictable
    assert is_expert_predictable(h, i, window_recorded_dates=True).predictable


def test_ep_counts_bounded_by_total():
    h, _ = ep_fixture(8)
    total, ep = ep_counts(h)
    assert total == len(h.records)
    assert 0 <= ep <= total


def _assert_matches_oracle(h: PatientHistory, window_recorded_dates: bool) -> None:
    expected = [
        ep_oracle.is_expert_predictable(h, i, window_recorded_dates)
        for i in range(len(h.records))
    ]
    assert ep_decisions(h, window_recorded_dates) == expected
    assert [
        is_expert_predictable(h, i, window_recorded_dates) for i in range(len(h.records))
    ] == expected
    assert ep_counts(h, window_recorded_dates) == (
        len(expected), sum(d.predictable for d in expected)
    )


# days 0..11 and four of the eight slots keep six-of-eight coverage common;
# undated records, missing and hypoglycemic readings hit the other rules
_ep_records = st.lists(
    st.builds(
        lambda day, slot, bg: DiaryRecord(
            meal=MealSlot(slot),
            date=None if day is None else dt.date(2016, 5, 1) + dt.timedelta(days=day),
            time=None,
            bg=bg,
        ),
        st.one_of(st.none(), st.integers(0, 11)),
        st.sampled_from([0, 1, 2, 7]),
        st.sampled_from([None, 3.9, 4.0, 6.5]),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_ep_records, st.booleans())
def test_ep_decisions_equal_the_quadratic_oracle(records, window_recorded_dates):
    _assert_matches_oracle(history("ep", records), window_recorded_dates)


@pytest.mark.parametrize("window_recorded_dates", [False, True])
def test_ep_decisions_equal_the_oracle_on_a_synthetic_cohort(window_recorded_dates):
    cleaned, _ = clean_cohort(generate(default_config(patients=2, days=30, seed=5)))
    for h in cleaned.values():
        _assert_matches_oracle(h, window_recorded_dates)
    assert 0 < sum(ep_counts(h)[1] for h in cleaned.values())
