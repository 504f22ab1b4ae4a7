from __future__ import annotations

import pytest

from glybench.features import DowMode
from glybench.ingest import MissingPolicy, clean_cohort
from glybench.synth import default_config, generate
from glybench.variants import (
    builtin_specs,
    materialize,
    spec_by_id,
    variant_table_csv,
)


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
    assert da8.dow_mode is DowMode.Omit
    assert not da8.include_basal
    assert da8.cho is MissingPolicy.ImputeMean
    assert da8.bolus is MissingPolicy.ImputeMean

    de12 = spec_by_id("D_e12")
    assert de12.pca is not None and de12.pca.components == 4
    assert de12.cho is MissingPolicy.ImputeMean
    assert de12.bolus is MissingPolicy.ImputeMean

    de5 = spec_by_id("D_e5")
    assert de5.dow_mode is DowMode.OneHot and de5.include_static


def test_unknown_variant_raises():
    with pytest.raises(KeyError):
        spec_by_id("D_e9")  # externally-defined feature set, not built in


def test_ep_variant_rows_subset_of_all_variant(cohort):
    ds_a = materialize(cohort, spec_by_id("D_a6"), min_records=5)
    ds_e = materialize(cohort, spec_by_id("D_e6"), min_records=5)
    for pid, ep_rows in ds_e.per_patient.items():
        all_rows = list(ds_a.per_patient[pid])
        assert len(ep_rows) <= len(all_rows)
        for row in ep_rows:
            assert row in all_rows


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
    assert a.per_patient == b.per_patient
    assert a.prepared == b.prepared


def test_variant_rows_conform_to_spec(cohort):
    ds = materialize(cohort, spec_by_id("D_e5"), min_records=5)
    for rows in ds.per_patient.values():
        for row in rows:
            assert row.static is not None
            assert row.dt_cho > 0 and row.dt_bolus > 0 and row.horizon_dt > 0
            assert row.target_bg >= 1.0


def test_variant_table_csv_lists_all():
    text = variant_table_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("id,ep_rules")
    assert len(lines) == 23
    assert any(line.startswith("D_e12,1,0,0,0,1,ImputeMean,ImputeMean") for line in lines)


def test_rebuild_rows_uses_only_visible_records():
    import datetime as dt

    from glybench.records import MealSlot, PatientHistory
    from glybench.variants import prepare_patient, rebuild_rows

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
    cfg = spec.feature_config()
    prep = prepare_patient(h, spec, cfg)
    assert prep.needs_fold_means

    # the row *after* the missing-bolus record carries the imputed value
    gap_row = 2 * 5 + 1  # row whose features sit on the after-breakfast of day 5
    first_half = list(range(0, 10))
    second_half = list(range(12, 22))
    low = rebuild_rows(prep, cfg, first_half)
    high = rebuild_rows(prep, cfg, second_half)
    assert low[gap_row].bolus_prev == pytest.approx(2.0)
    assert high[gap_row].bolus_prev == pytest.approx(4.0)
    # rows not downstream of the gap are identical either way
    assert low[:gap_row] == high[:gap_row]
