from __future__ import annotations

import datetime as dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from glybench.ep import (
    PREV_HYPO,
    PREV_MEAL_MISSING,
    SIX_OF_EIGHT,
    ep_counts,
    failed_rules,
    is_expert_predictable,
)
from glybench.features import RecordArrays
from glybench.ingest import clean, clean_cohort
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
    # 8 calendar days qualify, while the last 8 *recorded* dates all do, so
    # a window over recorded dates would pass the target record.
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
    assert is_expert_predictable(h, i).failed_rules == {SIX_OF_EIGHT}
    _assert_matches_oracle(h)
    assert ep_counts(RecordArrays.of(h)) == _oracle_counts(h) == (len(records), 0)


def test_ep_counts_bounded_by_total():
    h, _ = ep_fixture(8)
    total, ep = ep_counts(RecordArrays.of(h))
    assert total == len(h.records)
    assert 0 <= ep <= total


def _oracle_decisions(h: PatientHistory) -> list:
    return [ep_oracle.is_expert_predictable(h, i) for i in range(len(h.records))]


def _oracle_counts(h: PatientHistory) -> tuple[int, int]:
    expected = _oracle_decisions(h)
    return len(expected), sum(d.predictable for d in expected)


def _assert_matches_oracle(h: PatientHistory) -> None:
    records = h.records
    expected = _oracle_decisions(h)
    masks = failed_rules(
        np.array([r.meal.value for r in records], dtype=np.intp),
        np.array([0 if r.date is None else r.date.toordinal() for r in records],
                 dtype=np.int64),
        np.array([np.nan if r.bg is None else r.bg for r in records]),
    )
    assert masks.keys() == {PREV_HYPO, PREV_MEAL_MISSING, SIX_OF_EIGHT}
    for rule, mask in masks.items():
        assert mask.dtype == bool
        assert mask.tolist() == [rule in d.failed_rules for d in expected], rule
    # a decision reads records 0..i only: the oracle over that prefix
    assert [is_expert_predictable(h, i) for i in range(len(records))] == [
        ep_oracle.is_expert_predictable(history(h.patient_id, records[: i + 1]), i)
        for i in range(len(records))
    ]


# days 0..11 and four of the eight slots keep six-of-eight coverage common
# (in the long lists); undated records, missing and hypoglycemic readings
# hit the other rules
_ep_record = st.builds(
    lambda day, slot, bg: DiaryRecord(
        meal=MealSlot(slot),
        date=None if day is None else dt.date(2016, 5, 1) + dt.timedelta(days=day),
        time=None,
        bg=bg,
    ),
    st.one_of(st.none(), st.integers(0, 11)),
    st.sampled_from([0, 1, 2, 7]),
    st.sampled_from([None, 3.9, 4.0, 6.5]),
)
_ep_records = st.lists(_ep_record, max_size=80) | st.lists(_ep_record, min_size=40, max_size=80)


@settings(max_examples=200, deadline=None)
@given(_ep_records)
def test_ep_decisions_equal_the_quadratic_oracle(records):
    _assert_matches_oracle(history("ep", records))


# dated, timed records in time order, as cleaning lays them out; days
# with no records leave holes in the calendar window
_timed_ep_entry = st.tuples(
    st.integers(0, 11), st.integers(0, 24 * 60 - 1), st.sampled_from([0, 1, 2, 7]),
    st.sampled_from([None, 3.9, 4.0, 6.5]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_timed_ep_entry, max_size=80)
       | st.lists(_timed_ep_entry, min_size=40, max_size=80),
       st.sets(st.integers(0, 11), max_size=4))
def test_ep_counts_equal_the_oracle_on_dated_timed_histories(entries, empty_days):
    h = history("ep", [
        DiaryRecord(meal=MealSlot(slot), date=dt.date(2016, 5, 1) + dt.timedelta(days=day),
                    time=dt.time(minute // 60, minute % 60), bg=bg)
        for day, minute, slot, bg in sorted(entries, key=lambda e: e[:2])
        if day not in empty_days
    ])
    assert ep_counts(RecordArrays.of(h)) == _oracle_counts(h)


def test_undated_records_add_no_window_date():
    # five dates cover both slots; undated records of both slots must not
    # make a sixth
    records = [rec("", "", slot, bg=6.0) for slot in (MealSlot.AfterBreakfast,
                                                     MealSlot.BeforeLunch)]
    for d in range(3, 8):
        date = (dt.date(2016, 5, 1) + dt.timedelta(days=d)).isoformat()
        records.append(rec(date, "09:30:00", MealSlot.AfterBreakfast, bg=7.0))
        records.append(rec(date, "12:00:00", MealSlot.BeforeLunch, bg=6.5))
    records.append(rec("2016-05-09", "09:30:00", MealSlot.AfterBreakfast, bg=6.0))
    records.append(rec("2016-05-09", "12:00:00", MealSlot.BeforeLunch, bg=5.8))
    h = history("undated", records)
    _assert_matches_oracle(h)
    decision = is_expert_predictable(h, len(records) - 1)
    assert decision.failed_rules == {SIX_OF_EIGHT}


def test_ep_decisions_equal_the_oracle_on_a_synthetic_cohort():
    raw = generate(default_config(patients=2, days=30, seed=5))
    cleaned, _ = clean_cohort(raw)
    for pid, arrays in cleaned.items():
        h, _ = clean(raw[pid])
        _assert_matches_oracle(h)
        assert ep_counts(arrays) == _oracle_counts(h)
        # cleaned records are in time order, so no later record is in a
        # window: the decision equals the oracle's over the whole history
        assert [is_expert_predictable(h, i) for i in range(len(h))] == [
            ep_oracle.is_expert_predictable(h, i) for i in range(len(h))
        ]
    assert 0 < sum(ep_counts(arrays)[1] for arrays in cleaned.values())
