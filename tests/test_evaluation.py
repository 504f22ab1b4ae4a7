from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glybench import evaluation
from glybench.evaluation import (
    METRICS,
    PenaltyConfigError,
    PenaltyTable,
    clarke_zone,
    contiguous_kfold,
    evaluate,
    g_metric,
    improvement_csv,
    l1,
    percent_improvement,
    results_long_csv,
    rl1,
    rmse,
    wide_csv,
)
from glybench.ingest import clean_cohort
from glybench.models import builtin_registry
from glybench.records import MGDL_PER_MMOLL, PredictionPair
from glybench.synth import default_config, generate
from glybench.variants import materialize, spec_by_id

import feature_oracle


# ---------------------------------------------------------------------------
# fold plans
# ---------------------------------------------------------------------------

def test_fifty_rows_five_folds():
    plan = contiguous_kfold(50, 5)
    assert plan.bounds == ((0, 10), (10, 20), (20, 30), (30, 40), (40, 50))


def test_singleton_folds():
    plan = contiguous_kfold(10, 10)
    assert all(stop - start == 1 for start, stop in plan.bounds)


def test_remainder_goes_to_earliest_folds():
    plan = contiguous_kfold(12, 10)
    sizes = [stop - start for start, stop in plan.bounds]
    assert sizes == [2, 2, 1, 1, 1, 1, 1, 1, 1, 1]


def test_too_few_rows_raises():
    with pytest.raises(ValueError):
        contiguous_kfold(5, 10)
    with pytest.raises(ValueError):
        contiguous_kfold(10, 1)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=12))
def test_folds_partition_all_rows(n, k):
    if n < k:
        return
    plan = contiguous_kfold(n, k)
    seen = []
    for j in range(k):
        test_idx = plan.test_indices(j)
        train_idx = plan.train_indices(j)
        assert not set(test_idx) & set(train_idx)
        assert sorted(test_idx + train_idx) == list(range(n))
        assert test_idx == list(range(test_idx[0], test_idx[-1] + 1))  # contiguous
        seen.extend(test_idx)
    assert sorted(seen) == list(range(n))


# ---------------------------------------------------------------------------
# plain metrics
# ---------------------------------------------------------------------------

def test_relative_loss_rationale_pairs():
    low = [PredictionPair(5.0, 3.0)]
    high = [PredictionPair(10.0, 12.0)]
    assert l1(low) == 2.0 and l1(high) == 2.0
    assert rl1(low) == 2.0 / 3.0
    assert rl1(high) == 2.0 / 12.0


def test_perfect_predictions_are_zero():
    pairs = [PredictionPair(v, v) for v in (3.0, 7.5, 12.0)]
    assert l1(pairs) == 0.0 and rl1(pairs) == 0.0 and rmse(pairs) == 0.0


def test_metrics_match_per_pair_summation_oracle():
    rng = np.random.default_rng(17)
    pairs = [
        PredictionPair(float(rng.uniform(1, 30)), float(rng.uniform(1, 30)))
        for _ in range(200)
    ]
    n = len(pairs)
    o_l1 = math.fsum(abs(p.predicted - p.actual) for p in pairs) / n
    o_rl1 = math.fsum(abs(p.predicted - p.actual) / p.actual for p in pairs) / n
    o_rmse = math.sqrt(math.fsum((p.predicted - p.actual) ** 2 for p in pairs) / n)
    assert l1(pairs) == pytest.approx(o_l1, abs=1e-12)
    assert rl1(pairs) == pytest.approx(o_rl1, abs=1e-12)
    assert rmse(pairs) == pytest.approx(o_rmse, abs=1e-12)


def test_metrics_refuse_empty_input():
    for fn in (l1, rl1, rmse):
        with pytest.raises(ValueError):
            fn([])


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=40, allow_nan=False),
            st.floats(min_value=1.0, max_value=40, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_rmse_dominates_l1(raw):
    pairs = [PredictionPair(p, a) for p, a in raw]
    assert rmse(pairs) >= l1(pairs) - 1e-12


# ---------------------------------------------------------------------------
# penalty table and glucose-specific metrics
# ---------------------------------------------------------------------------

def test_zone_of_missed_hypo_outranks_near_accurate():
    table = PenaltyTable()
    missed_low = table.weight(3.0, 7.0)       # true 3 mmol/L, predicted normal
    near_accurate = table.weight(7.5, 7.0)
    assert missed_low >= near_accurate
    assert near_accurate == 1.0


def test_clarke_zone_spot_checks():
    assert clarke_zone(100.0, 100.0) == "A"
    assert clarke_zone(3.0 * MGDL_PER_MMOLL, 7.0 * MGDL_PER_MMOLL) == "D"
    assert clarke_zone(5.0 * MGDL_PER_MMOLL, 15.0 * MGDL_PER_MMOLL) == "C"
    assert clarke_zone(200.0, 60.0) == "E"


def test_identity_penalty_recovers_base_metrics_bitwise():
    rng = np.random.default_rng(23)
    pairs = [
        PredictionPair(float(rng.uniform(1, 30)), float(rng.uniform(1, 30)))
        for _ in range(100)
    ]
    unit = PenaltyTable.identity()
    assert g_metric(pairs, unit, "MAD") == l1(pairs)
    assert g_metric(pairs, unit, "MARD") == rl1(pairs)
    assert g_metric(pairs, unit, "RMSE") == rmse(pairs)


def test_g_metric_three_pair_hand_oracle():
    # zones by hand from the zone definitions: D (w=6), A (w=1), C (w=4)
    pairs = [
        PredictionPair(7.0, 3.0),
        PredictionPair(7.0, 7.5),
        PredictionPair(15.0, 5.0),
    ]
    table = PenaltyTable()
    gmad = (6 * 4.0 + 1 * 0.5 + 4 * 10.0) / 3
    gmard = (6 * 4.0 / 3.0 + 1 * 0.5 / 7.5 + 4 * 10.0 / 5.0) / 3
    grmse = math.sqrt(((6 * 4.0) ** 2 + (1 * 0.5) ** 2 + (4 * 10.0) ** 2) / 3)
    assert g_metric(pairs, table, "MAD") == pytest.approx(gmad, abs=1e-12)
    assert g_metric(pairs, table, "MARD") == pytest.approx(gmard, abs=1e-12)
    assert g_metric(pairs, table, "RMSE") == pytest.approx(grmse, abs=1e-12)


def test_penalty_table_validation():
    with pytest.raises(PenaltyConfigError):
        PenaltyTable({"A": 1.0, "B": 0.5, "C": 4.0, "D": 6.0, "E": 8.0})
    with pytest.raises(PenaltyConfigError):
        PenaltyTable({"A": 2.0, "B": 2.0, "C": 4.0, "D": 6.0, "E": 8.0})
    with pytest.raises(PenaltyConfigError):
        PenaltyTable({"A": 1.0, "B": 2.0})
    loaded = PenaltyTable.from_json('{"A":1,"B":3,"C":5,"D":7,"E":9}')
    assert loaded.weights["D"] == 7.0


def test_percent_improvement_formula():
    assert percent_improvement(4.0, 3.0) == pytest.approx(25.0)
    assert percent_improvement(4.0, 4.0) == 0.0
    assert percent_improvement(0.0, 0.0) == 0.0
    # consistent with summary arithmetic on rounded published-style inputs
    assert percent_improvement(2.91, 2.70) == pytest.approx(7.22, abs=0.005)


# ---------------------------------------------------------------------------
# end-to-end evaluate semantics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dataset():
    raw = generate(default_config(patients=3, days=25, seed=31))
    cleaned, _ = clean_cohort(raw)
    return materialize(cleaned, spec_by_id("D_a6"), min_records=20)


def test_model_equal_to_naive_improves_zero(dataset):
    report = evaluate(dataset, builtin_registry()["naive"], k=5, seed=0)
    for metric in METRICS:
        assert report.cohort[metric] == report.naive_cohort[metric]
        assert report.improvement[metric] == 0.0


def test_evaluate_is_deterministic(dataset):
    a = evaluate(dataset, builtin_registry()["rf4"], k=5, seed=9)
    b = evaluate(dataset, builtin_registry()["rf4"], k=5, seed=9)
    assert a.per_patient == b.per_patient
    assert a.cohort == b.cohort
    assert a.improvement == b.improvement


def test_evaluate_micro_average_pools_pairs(dataset):
    report = evaluate(dataset, builtin_registry()["naive"], k=5, seed=0, audit=True)
    for pid, pairs in report.pairs.items():
        assert len(pairs) == len(dataset.per_patient[pid])
        assert report.per_patient[pid]["L1"] == l1(list(pairs))


def test_evaluate_fold_splits_never_overlap(dataset):
    report = evaluate(dataset, builtin_registry()["ridge"], k=5, seed=0, audit=True)
    for pid, splits in report.fold_splits.items():
        n = len(dataset.per_patient[pid])
        covered = []
        for train_idx, test_idx in splits:
            assert not set(train_idx) & set(test_idx)
            covered.extend(test_idx)
        assert sorted(covered) == list(range(n))


def test_evaluate_rejects_a_prediction_count_unequal_to_the_test_rows(dataset):
    class OneShort:
        def fit(self, train):
            pass

        def predict(self, test):
            return np.full(len(test) - 1, 6.0)

    entry = dataclasses.replace(builtin_registry()["naive"],
                                factory=lambda cfg, with_stacked, seed: OneShort())
    with pytest.raises(ValueError, match="predictions for"):
        evaluate(dataset, entry, k=5, seed=0)


@pytest.mark.parametrize("model", ["ridge", "gpr_be_AllPat_AllMeals"])
@pytest.mark.parametrize("variant", ["D_a6", "D_e6"])
def test_evaluate_cells_equal_those_on_the_oracle_rebuild(variant, model, monkeypatch):
    cleaned, _ = clean_cohort(generate(default_config(patients=3, days=25, seed=31)))
    entry = builtin_registry()[model]

    def cell():
        ds = materialize(cleaned, spec_by_id(variant), min_records=20)
        return ds, evaluate(ds, entry, k=5, seed=3, audit=True)

    ds, report = cell()
    assert all(p.needs_fold_means for p in ds.prepared.values())
    cfg = ds.feature_config
    monkeypatch.setattr(evaluation, "rebuild_rows",
                        lambda prep, visible: feature_oracle.rebuild_rows(prep, cfg, visible))
    _, expected = cell()
    assert report.pairs == expected.pairs
    assert report.naive_pairs == expected.naive_pairs
    assert report.per_patient == expected.per_patient


def test_evaluate_excludes_patients_below_k():
    raw = generate(default_config(patients=3, days=25, seed=31))
    cleaned, _ = clean_cohort(raw)
    ds = materialize(cleaned, spec_by_id("D_a6"), min_records=5)
    # force one patient below the fold count by shrinking its rows
    pid = sorted(ds.per_patient)[0]
    ds.per_patient[pid] = ds.per_patient[pid][:3]
    report = evaluate(ds, builtin_registry()["naive"], k=5, seed=0)
    assert pid in report.excluded_patients
    assert pid not in report.per_patient


def test_identity_penalty_collapses_g_metrics_in_reports(dataset):
    report = evaluate(
        dataset, builtin_registry()["naive"], k=5, seed=0,
        penalty=PenaltyTable.identity(),
    )
    for pid in report.per_patient:
        values = report.per_patient[pid]
        assert values["gMAD"] == values["L1"]
        assert values["gMARD"] == values["rL1"]
        assert values["gRMSE"] == values["RMSE"]


def test_result_tables_round_values(dataset):
    reports = [
        evaluate(dataset, builtin_registry()[name], k=5, seed=0)
        for name in ("naive", "ridge")
    ]
    long_text = results_long_csv(reports)
    assert long_text.splitlines()[0] == "model,variant,metric,patient,value"
    wide = wide_csv(reports, "L1")
    lines = wide.strip().splitlines()
    assert lines[0] == "variant,naive,ridge"
    assert lines[1].startswith("D_a6,")
    impr = improvement_csv(reports, "L1").strip().splitlines()
    naive_col = impr[0].split(",").index("naive")
    assert float(impr[1].split(",")[naive_col]) == 0.0
