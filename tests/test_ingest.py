from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glybench.features import RecordArrays
from glybench.ingest import (
    CleaningReport,
    MissingPolicy,
    clean,
    cleaning_csv,
    parse_diary_csv,
)
from glybench.records import ExerciseLevel, MealSlot, SchemaError, encode_diary_csv
from glybench.variants import VariantSpec, prepare_patient, rebuild_rows

import feature_oracle

from conftest import history, rec

HEADER = "patient_id,meal,date,time,bg,cho,bolus,basal,ev,pv"


def test_parse_sorts_out_of_order_rows():
    text = "\n".join(
        [
            HEADER,
            "a,BeforeLunch,2016-01-01,12:00:00,6.0,,,,,0.0",
            "a,BeforeBreakfast,2016-01-01,08:00:00,5.0,,,,,0.0",
        ]
    )
    cohort = parse_diary_csv(text)
    meals = [r.meal for r in cohort["a"].records]
    assert meals == [MealSlot.BeforeBreakfast, MealSlot.BeforeLunch]


def test_parse_rejects_unknown_meal_label():
    text = "\n".join([HEADER, "a,Brunch,2016-01-01,08:00:00,5.0,,,,,0.0"])
    with pytest.raises(SchemaError) as err:
        parse_diary_csv(text)
    assert err.value.line == 2
    assert err.value.column == "meal"


def test_parse_rejects_bad_number_with_location():
    text = "\n".join([HEADER, "a,BeforeLunch,2016-01-01,08:00:00,abc,,,,,0.0"])
    with pytest.raises(SchemaError) as err:
        parse_diary_csv(text)
    assert err.value.line == 2 and err.value.column == "bg"


NUMERIC_COLUMNS = {"bg": 4, "cho": 5, "bolus": 6, "basal": 7, "ev": 8, "pv": 9}


def _row(column: str, text: str) -> str:
    fields = "a,BeforeLunch,2016-01-01,08:00:00,6.0,40.0,4.0,0.0,Normal,0.5".split(",")
    fields[NUMERIC_COLUMNS[column]] = text
    return "\n".join([HEADER, ",".join(fields)])


_non_finite = st.sampled_from(
    ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+INF", "1e400", "-1e400",
     "1" + "0" * 400, "9" * 309 + ".0"]
)


@given(st.sampled_from(sorted(NUMERIC_COLUMNS)), _non_finite)
def test_parse_rejects_non_finite_numbers_with_location(column, text):
    with pytest.raises(SchemaError) as err:
        parse_diary_csv(_row(column, text))
    assert err.value.line == 2 and err.value.column == column


@given(st.sampled_from(["bg", "cho", "bolus", "basal", "pv"]),
       st.sampled_from(["-0", "-0.0", "-0e5", "0", "+0.0"]))
def test_parse_reads_signed_zero_as_zero_and_round_trips(column, text):
    cohort = parse_diary_csv(_row(column, text))
    value = getattr(cohort["a"].records[0], column)
    assert value == 0.0
    canonical = encode_diary_csv(cohort)
    assert encode_diary_csv(parse_diary_csv(canonical)) == canonical


@given(st.sampled_from(sorted(NUMERIC_COLUMNS)),
       st.floats(allow_nan=False, allow_infinity=False).map(repr)
       | st.text(alphabet="0123456789eE+-.naifINF", max_size=12))
def test_parse_accepts_or_rejects_any_numeric_text_with_location(column, text):
    # every numeric field either parses to a finite value or names its column
    try:
        cohort = parse_diary_csv(_row(column, text))
    except SchemaError as err:
        assert err.line == 2 and err.column == column
        return
    value = getattr(cohort["a"].records[0], column)
    if isinstance(value, ExerciseLevel):
        value = value.value
    assert value is None or math.isfinite(value)


def test_parse_header_only_gives_empty_mapping():
    assert parse_diary_csv(HEADER + "\n") == {}


def test_clean_clamps_low_bg():
    h = history("p", [rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=0.5)])
    cleaned, report = clean(h)
    assert cleaned.records[0].bg == 1.0
    assert report == CleaningReport(0, 0, 1)


def test_clean_drops_missing_bg_and_date():
    h = history(
        "p",
        [
            rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=None),
            rec("", "09:00:00", MealSlot.AfterBreakfast, bg=6.0),
            rec("2016-01-01", "12:00:00", MealSlot.BeforeLunch, bg=6.0),
        ],
    )
    cleaned, report = clean(h)
    assert len(cleaned.records) == 1
    assert report.dropped_missing_bg == 1
    assert report.dropped_missing_date == 1
    assert len(h.records) - len(cleaned.records) == (
        report.dropped_missing_bg + report.dropped_missing_date
    )


def test_clean_is_idempotent(single_day):
    once, report = clean(single_day)
    assert report == CleaningReport(0, 0, 0)
    twice, report2 = clean(once)
    assert twice == once
    assert report2 == CleaningReport(0, 0, 0)


def _bolus_history():
    return history(
        "p",
        [
            rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, cho=40.0, bolus=2.0),
            rec("2016-01-02", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, cho=40.0, bolus=3.0),
            rec("2016-01-03", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, cho=40.0, bolus=4.0),
            rec("2016-01-04", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, cho=40.0, bolus=None),
        ],
    )


# Imputation is the variant preparation. The oracle copies the records
# with throwout, zero fills and the fixed defaults applied and fills the
# mean gaps; ``prepare_patient`` and ``rebuild_rows`` must give the
# oracle's design bit for bit, and the tests below read the oracle's
# filled records.

def _impute(h, bolus=MissingPolicy.ImputeMean, visible=None):
    spec = VariantSpec("test", ep_rules=False, bolus=bolus)
    cfg = spec.features
    prep = prepare_patient(RecordArrays.of(h), spec, cfg)
    base = feature_oracle.base_records(h, spec)
    # the policies as masks over the kept records equal the copied records
    copied = RecordArrays.of(base)
    for name in ("meal", "ev", "basal", "cho", "cho_gap", "bolus", "bolus_gap"):
        assert getattr(prep.arrays, name).tobytes() == getattr(copied, name).tobytes()
    got = prep.design if visible is None else rebuild_rows(prep, visible)
    want = feature_oracle.rebuild_rows(h, spec, cfg, visible)
    assert got.x.tobytes() == want.x.tobytes()
    return feature_oracle.fill_mean_gaps(base, visible)


def test_impute_mean_uses_per_meal_average():
    out = _impute(_bolus_history())
    assert out.records[3].bolus == pytest.approx(3.0)


def test_impute_defaults_for_exercise_and_basal():
    h = history(
        "p",
        [rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, cho=1.0, bolus=1.0)],
    )
    out = _impute(h)
    assert out.records[0].ev is ExerciseLevel.Normal
    assert out.records[0].basal == 0.0


def test_impute_zero_policy():
    out = _impute(_bolus_history(), bolus=MissingPolicy.ImputeZero)
    assert out.records[3].bolus == 0.0


def test_impute_throwout_removes_record():
    h = _bolus_history()
    out = _impute(h, bolus=MissingPolicy.Throwout)
    assert len(out.records) == len(h.records) - 1
    assert [r.bolus for r in out.records] == [2.0, 3.0, 4.0]


def test_impute_never_alters_present_values():
    h = _bolus_history()
    out = _impute(h)
    for before, after in zip(h.records[:3], out.records[:3]):
        assert after.bolus == before.bolus
        assert after.cho == before.cho
        assert after.bg == before.bg


def test_impute_falls_back_to_patient_mean_then_zero():
    h = history(
        "p",
        [
            rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, cho=10.0, bolus=5.0),
            rec("2016-01-01", "12:00:00", MealSlot.BeforeLunch, bg=6.0, cho=10.0, bolus=None),
        ],
    )
    out = _impute(h)
    # no before-lunch bolus on file -> patient-wide mean
    assert out.records[1].bolus == pytest.approx(5.0)

    h2 = history(
        "p",
        [rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, cho=10.0, bolus=None)],
    )
    out2 = _impute(h2)
    assert out2.records[0].bolus == 0.0


def test_impute_means_from_reference_history_only():
    out = _impute(_bolus_history(), visible=[0, 1])  # boluses 2 and 3
    assert out.records[3].bolus == pytest.approx(2.5)


def test_cleaning_report_csv():
    text = cleaning_csv({"b": CleaningReport(1, 2, 3), "a": CleaningReport(0, 0, 0)})
    lines = text.strip().splitlines()
    assert lines[0] == "patient_id,dropped_missing_bg,dropped_missing_date,clamped_low_bg"
    assert lines[1] == "a,0,0,0"
    assert lines[2] == "b,1,2,3"
