from __future__ import annotations

import dataclasses
import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glybench.features import DowMode, RecordArrays, Vectorizer, build_feature_rows
from glybench.ingest import MissingPolicy, clean_cohort
from glybench.synth import default_config, generate
from glybench.records import DiaryRecord, MealSlot, PatientHistory
from glybench.variants import (
    _gap_fills,
    builtin_specs,
    materialize,
    prepare_patient,
    rebuild_rows,
    spec_by_id,
    variant_table_csv,
)

import feature_oracle
from conftest import history_steps, timed_history


@pytest.fixture(scope="module")
def cohort():
    raw = generate(default_config(patients=3, days=25, seed=11))
    cleaned, _ = clean_cohort(raw)
    return cleaned


def test_builtin_specs_count_and_split():
    specs = builtin_specs()
    assert len(specs) == 22
    ep = [s for s in specs if s.id.startswith("D_e")]
    alla = [s for s in specs if s.id.startswith("D_a")]
    assert len(ep) == len(alla) == 11
    assert all(s.ep_rules for s in ep)
    assert not any(s.ep_rules for s in alla)
    assert len({s.id for s in specs}) == 22


def test_spec_flags_match_known_rows():
    de2 = spec_by_id("D_e2")
    assert de2.ep_rules
    assert de2.cho is MissingPolicy.Throwout
    assert de2.bolus is MissingPolicy.Throwout

    da8 = spec_by_id("D_a8")
    assert not da8.ep_rules
    assert da8.features.dow_mode is DowMode.Omit
    assert not da8.features.include_basal
    assert da8.cho is MissingPolicy.ImputeMean
    assert da8.bolus is MissingPolicy.ImputeMean

    de12 = spec_by_id("D_e12")
    assert de12.features.pca is True
    assert de12.cho is MissingPolicy.ImputeMean
    assert de12.bolus is MissingPolicy.ImputeMean

    de5 = spec_by_id("D_e5")
    assert de5.features.dow_mode is DowMode.OneHot and de5.features.include_static


def test_unknown_variant_raises():
    with pytest.raises(KeyError):
        spec_by_id("D_e9")  # externally-defined feature set, not built in


def test_ep_variant_rows_subset_of_all_variant(cohort):
    ds_a = materialize(cohort, spec_by_id("D_a6"), min_records=5)
    ds_e = materialize(cohort, spec_by_id("D_e6"), min_records=5)
    assert ds_e.per_patient
    for pid, prep_e in ds_e.per_patient.items():
        prep_a = ds_a.per_patient[pid]
        assert len(prep_e) <= len(prep_a)
        # the filtered design is the unfiltered one at the kept record indices
        kept = list(prep_e.row_starts)
        assert prep_e.design.x.tobytes() == prep_a.design.x[kept].tobytes()
        assert prep_e.design.target_bg.tobytes() == prep_a.design.target_bg[kept].tobytes()


def test_throwout_never_creates_rows(cohort):
    impute_rows = materialize(cohort, spec_by_id("D_a6"), min_records=1)
    throwout_rows = materialize(cohort, spec_by_id("D_a2"), min_records=1)
    for pid in impute_rows.per_patient:
        assert len(throwout_rows.per_patient.get(pid, ())) <= len(
            impute_rows.per_patient[pid]
        )


def test_min_records_excludes_small_patients(cohort):
    ds = materialize(cohort, spec_by_id("D_a6"), min_records=100_000)
    assert not ds.per_patient
    assert set(ds.excluded_patients) == set(cohort)


def test_materialize_is_deterministic(cohort):
    a = materialize(cohort, spec_by_id("D_e1"), min_records=5)
    b = materialize(cohort, spec_by_id("D_e1"), min_records=5)
    assert a.per_patient.keys() == b.per_patient.keys()
    for pid, prep in a.per_patient.items():
        other = b.per_patient[pid]
        assert np.array_equal(prep.row_starts, other.row_starts) and prep.cfg == other.cfg
        assert prep.design.x.tobytes() == other.design.x.tobytes()
        assert prep.design.target_bg.tobytes() == other.design.target_bg.tobytes()
        _assert_same_columns(prep.arrays, other.arrays)


def _record_columns(a) -> dict:
    """Every array a ``RecordArrays`` holds, by name."""
    return {f.name: getattr(a, f.name) for f in dataclasses.fields(a)
            if isinstance(getattr(a, f.name), np.ndarray)}


def _assert_same_columns(a, b) -> None:
    mine, theirs = _record_columns(a), _record_columns(b)
    assert len(mine) == 12 and mine.keys() == theirs.keys()
    for name, column in mine.items():
        assert column.dtype == theirs[name].dtype, name
        assert column.shape == theirs[name].shape, name
        assert column.tobytes() == theirs[name].tobytes(), name
    assert a.static == b.static


def test_variants_leave_the_shared_cleaned_arrays_unchanged(cohort):
    # every variant selects and masks the one RecordArrays per patient that
    # cleaning built, so a write into it would leak into the next variant
    before = {pid: {name: column.copy() for name, column in _record_columns(a).items()}
              for pid, a in cohort.items()}
    for spec in builtin_specs():
        for prep in materialize(cohort, spec, min_records=5).per_patient.values():
            rebuild_rows(prep, range(0, len(prep.arrays), 2))
    for pid, a in cohort.items():
        columns = _record_columns(a)
        assert columns.keys() == before[pid].keys()
        for name, column in columns.items():
            assert column.tobytes() == before[pid][name].tobytes(), (pid, name)


@settings(max_examples=200, deadline=None)
@given(history_steps, st.just([True] * 60) | st.just([False] * 60)
       | st.lists(st.booleans(), min_size=60, max_size=60))
def test_rows_equal_the_arrays_of_the_kept_records(steps, bits):
    h = timed_history(steps)
    keep = np.array(bits[:len(h)], dtype=bool)
    kept = PatientHistory(h.patient_id, tuple(r for r, k in zip(h.records, keep) if k))
    _assert_same_columns(RecordArrays.of(h).rows(keep), RecordArrays.of(kept))


def test_variant_rows_conform_to_spec(cohort):
    ds = materialize(cohort, spec_by_id("D_e5"), min_records=5)
    names = Vectorizer(ds.feature_config).column_names()
    assert names[-4:] == ["age", "sex", "height", "weight"]
    for prep in ds.per_patient.values():
        x = prep.design.x
        assert np.isfinite(x).all()
        for name in ("dt_cho", "dt_bolus", "horizon_dt"):
            assert (x[:, names.index(name)] > 0).all()
        assert (prep.design.target_bg >= 1.0).all()


def test_variant_table_csv_lists_all():
    text = variant_table_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("id,ep_rules")
    assert len(lines) == 23
    assert any(line.startswith("D_e12,1,0,0,0,1,ImputeMean,ImputeMean") for line in lines)


def test_rebuild_rows_uses_only_visible_records():
    import datetime as dt

    from glybench.records import MealSlot, PatientHistory

    from conftest import rec

    # before-breakfast boluses: 2.0 on the first five days, 4.0 on the last
    # five, missing on day 5; the imputed value must follow whichever half
    # of the history is visible.
    records = []
    for day in range(11):
        date = (dt.date(2016, 6, 1) + dt.timedelta(days=day)).isoformat()
        if day == 5:
            bolus = None
        elif day < 5:
            bolus = 2.0
        else:
            bolus = 4.0
        records.append(
            rec(date, "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, cho=40.0, bolus=bolus)
        )
        records.append(
            rec(date, "10:00:00", MealSlot.AfterBreakfast, bg=7.0, cho=0.0, bolus=0.0)
        )
    h = PatientHistory("p", tuple(records))
    spec = spec_by_id("D_a6")
    cfg = spec.features
    prep = prepare_patient(RecordArrays.of(h), spec, cfg)
    assert prep.needs_fold_means

    # the row *after* the missing-bolus record carries the imputed value
    gap_row = 2 * 5 + 1  # row whose features sit on the after-breakfast of day 5
    first_half = list(range(0, 10))
    second_half = list(range(12, 22))
    low = rebuild_rows(prep, first_half)
    high = rebuild_rows(prep, second_half)
    bolus_prev = Vectorizer(cfg).column_names().index("bolus_prev")
    assert low.x[gap_row, bolus_prev] == pytest.approx(2.0)
    assert high.x[gap_row, bolus_prev] == pytest.approx(4.0)
    # rows not downstream of the gap are identical either way
    assert np.array_equal(low.x[:gap_row], high.x[:gap_row])


# ---------------------------------------------------------------------------
# fold-local rebuild against the record-by-record oracle
# ---------------------------------------------------------------------------

def _day_steps(days, cho, bolus, bg=lambda i: 6.0 + (i % 5) * 0.7):
    """Eight records a day, 180 minutes apart (one per meal slot)."""
    return [(0 if i == 0 else 180, bg(i), cho(i), bolus(i)) for i in range(8 * days)]


# record 0 sits at 06:00, meal slot BeforeLunch; every 8th record shares it
_SLOT_OF_FIRST = [i for i in range(24) if i % 8 == 0]

REBUILD_CASES = {
    # the second day is all gaps, so every slot has one
    "gaps_in_every_slot": (
        _day_steps(3, lambda i: None if 8 <= i < 16 else 30.0 + i,
                   lambda i: None if 8 <= i < 16 else 2.0 + 0.1 * i),
        None, "D_a6",
    ),
    # the first record's slot has only zeros visible: its gap fills with 0
    "zero_mean_slot": (
        _day_steps(3, lambda i: (None if i == 16 else 0.0) if i in _SLOT_OF_FIRST else 25.0,
                   lambda i: (None if i == 8 else 0.0) if i in _SLOT_OF_FIRST else 3.5),
        None, "D_a6",
    ),
    "nothing_visible": (
        _day_steps(2, lambda i: None if i % 3 == 0 else 40.0,
                   lambda i: None if i % 4 == 1 else 4.0),
        [], "D_a6",
    ),
    "300_minutes_apart_and_equal_times": (
        [(0, 7.0, 20.0, 4.0), (300, 8.0, None, 3.0), (0, 9.0, 10.0, None),
         (300, 6.0, 0.0, 2.5), (0, 5.5, None, 1.0), (301, 7.5, 15.0, None),
         (300, 8.5, 5.0, 2.0), (0, 9.5, None, 0.0)],
        None, "D_a6",
    ),
    "several_boluses_in_one_window": (
        [(0 if i == 0 else 20, 6.0 + 0.3 * i, None if i % 4 == 2 else 12.5 + i,
          None if i % 5 == 3 else 0.5 + 0.7 * i) for i in range(16)],
        None, "D_a6",
    ),
    # twelve full days: the EP filter keeps the later days' rows only
    "ep_filtered_row_starts": (
        _day_steps(12, lambda i: None if i % 5 == 0 else 30.0 + i % 7,
                   lambda i: None if i % 7 == 3 else 1.5 + i % 4),
        None, "D_e6",
    ),
}


def _rebuild_and_oracle(steps, visible, spec_id):
    h = timed_history(steps)
    spec = spec_by_id(spec_id)
    cfg = spec.features
    prep = prepare_patient(RecordArrays.of(h), spec, cfg)
    base = feature_oracle.base_records(h, spec)
    assert prep.row_starts.tolist() == feature_oracle.row_starts(base, spec)
    n = len(base)
    # throwout and zero fills as masks over one RecordArrays equal the
    # arrays of the oracle's copied records, column for column
    _assert_same_columns(prep.arrays, RecordArrays.of(base))
    assert prep.arrays.day.tolist() == [r.date.toordinal() for r in base.records]
    shown = range(n) if visible is None else [i for i in visible if i < n]
    got = rebuild_rows(prep, list(shown))
    # at materialize time the means come from every record
    for design, visible_records in ((got, list(shown)), (prep.design, None)):
        want = feature_oracle.rebuild_rows(h, spec, cfg, visible_records)
        assert design.x.tobytes() == want.x.tobytes()
        assert design.target_bg.tobytes() == want.target_bg.tobytes()
        assert np.array_equal(design.index, want.index)
    return prep, got


@pytest.mark.parametrize("case", sorted(REBUILD_CASES))
def test_rebuild_equals_the_oracle_on_fixed_cases(case):
    steps, visible, spec_id = REBUILD_CASES[case]
    prep, got = _rebuild_and_oracle(steps, visible, spec_id)
    assert prep.needs_fold_means
    if case == "ep_filtered_row_starts":
        assert 0 < len(prep.row_starts) < len(steps) - 1
    if case == "zero_mean_slot":
        # the filled zero is no event: the rows after record 16 still see
        # record 15's carbs, as when nothing is filled
        cho_prev = Vectorizer(spec_by_id(spec_id).features).column_names().index("cho_prev")
        assert got.x[17, cho_prev] == 25.0
    if case == "nothing_visible":
        # gaps fill with 0.0: the design differs from the all-records means
        assert not np.array_equal(got.x, prep.design.x)


@settings(max_examples=200, deadline=None)
@given(history_steps, st.lists(st.integers(0, 59), max_size=60),
       st.sampled_from([s.id for s in builtin_specs()]))
def test_rebuild_equals_the_record_by_record_oracle(steps, visible, spec_id):
    _rebuild_and_oracle(steps, sorted(set(visible)), spec_id)


@settings(max_examples=200, deadline=None)
@given(history_steps, st.lists(st.integers(0, 59), max_size=60), st.booleans())
def test_a_design_without_mean_policy_gaps_equals_every_rebuild(steps, visible, clear_gaps):
    # rebuild_rows returns the materialized design of a patient without
    # needs_fold_means: for such a patient, no set of visible records may
    # change the design that build_feature_rows makes
    a = RecordArrays.of(timed_history(steps))
    if clear_gaps:  # a gap reads 0, so this is the same diary without gaps
        a = dataclasses.replace(a, cho_gap=np.zeros_like(a.cho_gap),
                                bolus_gap=np.zeros_like(a.bolus_gap))
    for spec in builtin_specs():
        prep = prepare_patient(a, spec, spec.features)
        assert not (clear_gaps and prep.needs_fold_means)
        if prep.needs_fold_means:
            continue
        shown = np.zeros(len(prep.arrays), dtype=bool)
        shown[sorted(i for i in set(visible) if i < len(prep.arrays))] = True
        built = build_feature_rows(prep.arrays, prep.cfg, _gap_fills(prep.arrays, shown),
                                   prep.row_starts)
        assert rebuild_rows(prep, np.flatnonzero(shown)) is prep.design
        for name in ("x", "target_bg", "index", "log_target"):
            mine, want = getattr(built, name), getattr(prep.design, name)
            assert mine.shape == want.shape and mine.tobytes() == want.tobytes(), \
                (spec.id, name)


# ---------------------------------------------------------------------------
# gap fills against the record-by-record means
# ---------------------------------------------------------------------------

# few distinct values, so slots tie and sums repeat; -0.0 is a present
# amount that reads as zero; None is a gap
_fill_amount = st.one_of(
    st.none(), st.sampled_from([0.0, -0.0, 1.5, 2.5, 0.1, 0.7]), st.floats(0.0, 80.0)
)


# (meal slot, carbs, bolus, visible); half the records share slot 3, and
# long lists make its sums long enough that a pairwise or blocked sum
# would round differently
_fill_entry = st.tuples(st.just(3) | st.integers(0, 7), _fill_amount, _fill_amount,
                        st.just(True) | st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(_fill_entry, max_size=10) | st.lists(_fill_entry, min_size=30, max_size=80))
@example([])
# a slot whose values are all gaps falls back to the overall mean
@example([(0, None, None, True), (0, None, 0.5, True), (3, 4.0, None, True)])
# nothing visible: every fill is 0
@example([(1, 2.0, 3.0, False), (1, None, None, False)])
# only -0.0 present in a slot and overall
@example([(2, -0.0, -0.0, True), (2, None, None, True)])
def test_gap_fills_equal_the_sequential_means_bit_for_bit(entries):
    records = [
        DiaryRecord(meal=MealSlot(meal), date=datetime.date(2016, 1, 1) + datetime.timedelta(i),
                    time=datetime.time(8), bg=6.0, cho=cho, bolus=bolus)
        for i, (meal, cho, bolus, _) in enumerate(entries)
    ]
    visible = np.array([shown for *_, shown in entries], dtype=bool)
    fills = _gap_fills(RecordArrays.of(PatientHistory("p", tuple(records))), visible)
    source = [r for r, shown in zip(records, visible) if shown]
    for name, got in zip(("cho", "bolus"), fills):
        want = feature_oracle.slot_fills(source, name)
        assert got.tobytes() == np.array([want[slot] for slot in MealSlot]).tobytes()


@pytest.mark.parametrize("variant", ["D_a6", "D_e6"])
def test_log_targets_are_taken_once_per_patient_design(cohort, variant, monkeypatch):
    import math

    from glybench import evaluation, features
    from glybench.models import builtin_registry

    ds = materialize(cohort, spec_by_id(variant), min_records=20)
    for prep in ds.per_patient.values():
        design = prep.design
        want = np.array([math.log(v) for v in design.target_bg.tolist()])
        assert design.log_target.tobytes() == want.tobytes()
        rows = np.arange(0, len(design), 3)
        assert design[rows].log_target.tobytes() == want[rows].tobytes()
        assert rebuild_rows(prep, np.arange(len(prep.arrays) // 2)).log_target \
            is design.log_target

    calls = []
    to_log_target = features.to_log_target
    monkeypatch.setattr(features, "to_log_target",
                        lambda bg: calls.append(bg) or to_log_target(bg))
    registry = builtin_registry()
    for name in ("ridge", "gpr_be_AllPat_AllMeals"):  # fold rebuilds and the stacker
        evaluation.evaluate(ds, registry[name], k=5, seed=0)
    assert calls == []
