from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glybench import evaluation
from glybench.evaluation import (
    METRICS,
    PenaltyConfigError,
    PenaltyTable,
    clarke_zone,
    compute_metrics,
    contiguous_kfold,
    evaluate,
    g_metric,
    improvement_csv,
    improvements,
    l1,
    percent_improvement,
    results_long_csv,
    rl1,
    rmse,
    wide_csv,
)
from glybench.features import PCA_COMPONENTS
from glybench.ingest import clean, clean_cohort
from glybench.models import builtin_registry
from glybench.records import MGDL_PER_MMOLL, MealSlot
from glybench.synth import default_config, generate
from glybench.variants import materialize, prepare_patient, rebuild_rows, spec_by_id

import feature_oracle
import metric_oracle


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
    sizes = [stop - start for start, stop in plan.bounds]
    assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# plain metrics
# ---------------------------------------------------------------------------

def test_relative_loss_rationale_pairs():
    low = (np.array([5.0]), np.array([3.0]))
    high = (np.array([10.0]), np.array([12.0]))
    assert l1(*low) == 2.0 and l1(*high) == 2.0
    assert rl1(*low) == 2.0 / 3.0
    assert rl1(*high) == 2.0 / 12.0


def test_perfect_predictions_are_zero():
    values = np.array([3.0, 7.5, 12.0])
    assert l1(values, values) == 0.0 and rl1(values, values) == 0.0
    assert rmse(values, values) == 0.0


def test_metrics_match_per_pair_summation_oracle():
    rng = np.random.default_rng(17)
    predicted, actual = rng.uniform(1, 30, size=(2, 200))
    pairs = list(zip(predicted.tolist(), actual.tolist()))
    n = len(pairs)
    o_l1 = math.fsum(abs(p - a) for p, a in pairs) / n
    o_rl1 = math.fsum(abs(p - a) / a for p, a in pairs) / n
    o_rmse = math.sqrt(math.fsum((p - a) ** 2 for p, a in pairs) / n)
    assert l1(predicted, actual) == pytest.approx(o_l1, abs=1e-12)
    assert rl1(predicted, actual) == pytest.approx(o_rl1, abs=1e-12)
    assert rmse(predicted, actual) == pytest.approx(o_rmse, abs=1e-12)


def test_metrics_refuse_empty_input():
    empty = np.array([])
    for fn in (l1, rl1, rmse):
        with pytest.raises(ValueError):
            fn(empty, empty)
    for base in ("MAD", "MARD", "RMSE"):
        with pytest.raises(ValueError):
            g_metric(empty, empty, PenaltyTable(), base)


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
    predicted, actual = np.array(raw).T
    assert rmse(predicted, actual) >= l1(predicted, actual) - 1e-12


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
    predicted, actual = rng.uniform(1, 30, size=(2, 100))
    unit = PenaltyTable.identity()
    assert g_metric(predicted, actual, unit, "MAD") == l1(predicted, actual)
    assert g_metric(predicted, actual, unit, "MARD") == rl1(predicted, actual)
    assert g_metric(predicted, actual, unit, "RMSE") == rmse(predicted, actual)


def test_g_metric_three_pair_hand_oracle():
    # zones by hand from the zone definitions: D (w=6), A (w=1), C (w=4)
    predicted = np.array([7.0, 7.0, 15.0])
    actual = np.array([3.0, 7.5, 5.0])
    table = PenaltyTable()
    assert table.weight(actual, predicted).tolist() == [6.0, 1.0, 4.0]
    gmad = (6 * 4.0 + 1 * 0.5 + 4 * 10.0) / 3
    gmard = (6 * 4.0 / 3.0 + 1 * 0.5 / 7.5 + 4 * 10.0 / 5.0) / 3
    grmse = math.sqrt(((6 * 4.0) ** 2 + (1 * 0.5) ** 2 + (4 * 10.0) ** 2) / 3)
    assert g_metric(predicted, actual, table, "MAD") == pytest.approx(gmad, abs=1e-12)
    assert g_metric(predicted, actual, table, "MARD") == pytest.approx(gmard, abs=1e-12)
    assert g_metric(predicted, actual, table, "RMSE") == pytest.approx(grmse, abs=1e-12)


# every boundary of the zone conditions, on the reference axis and, as a
# function of the reference, on the predicted axis
_REF_EDGES = (70.0, 180.0, 290.0, 175.0 / 3.0, 130.0, 240.0)
_MGDL = st.floats(min_value=0.0, max_value=1000.0)


def _pred_edges(ref: float) -> tuple[float, ...]:
    return (70.0, 180.0, ref - 0.2 * ref, ref + 0.2 * ref, ref + 110,
            (7.0 / 5.0) * ref - 182, (6.0 / 5.0) * ref)


def _neighbours(value: float) -> list[float]:
    return [float(np.nextafter(value, -np.inf)), value, float(np.nextafter(value, np.inf))]


def _near(draw, edges) -> float:
    """An edge or any value, or a floating-point neighbour of it."""
    return draw(st.sampled_from(_neighbours(draw(st.one_of(st.sampled_from(edges), _MGDL)))))


@st.composite
def _clarke_points(draw) -> tuple[float, float]:
    ref = _near(draw, _REF_EDGES)
    return ref, _near(draw, _pred_edges(ref))


def _assert_zones_equal_the_oracle(points):
    ref, pred = np.array(points, dtype=float).reshape(-1, 2).T
    want = [metric_oracle.clarke_zone(r, p) for r, p in points]
    assert clarke_zone(ref, pred).tolist() == want


def test_array_zones_equal_the_scalar_oracle_on_every_boundary():
    points = [
        (ref, pred)
        for edge in _REF_EDGES
        for ref in _neighbours(edge)
        for pred_edge in _pred_edges(ref) + _REF_EDGES
        for pred in _neighbours(pred_edge)
    ]
    _assert_zones_equal_the_oracle(points)
    assert {metric_oracle.clarke_zone(r, p) for r, p in points} == set("ABCDE")


@given(st.lists(_clarke_points(), min_size=1, max_size=60))
def test_array_zones_equal_the_scalar_oracle(points):
    _assert_zones_equal_the_oracle(points)


_MMOLL = hnp.arrays(float, st.integers(1, 60),
                    elements=st.floats(min_value=0.1, max_value=40.0))


@given(_MMOLL, st.data())
def test_zone_weights_are_at_least_one_and_a_unit_table_is_the_plain_metric(predicted, data):
    actual = data.draw(hnp.arrays(float, len(predicted),
                                  elements=st.floats(min_value=1.0, max_value=40.0)))
    weights = {"A": 1.0}
    weights.update({z: data.draw(st.floats(min_value=1.0, max_value=100.0)) for z in "BCDE"})
    table = PenaltyTable(weights)
    w = table.weight(actual, predicted)
    assert w.shape == actual.shape and (w >= 1.0).all()
    assert w.tolist() == [
        weights[metric_oracle.clarke_zone(a * MGDL_PER_MMOLL, p * MGDL_PER_MMOLL)]
        for a, p in zip(actual.tolist(), predicted.tolist())
    ]

    unit = PenaltyTable.identity()
    assert g_metric(predicted, actual, unit, "MAD") == l1(predicted, actual)
    assert g_metric(predicted, actual, unit, "MARD") == rl1(predicted, actual)
    assert g_metric(predicted, actual, unit, "RMSE") == rmse(predicted, actual)

    # compute_metrics shares one set of zone weights among its g-metrics
    for penalty in (table, unit):
        metrics = compute_metrics(predicted, actual, penalty)
        assert list(metrics) == list(METRICS)
        assert [metrics[m] for m in ("L1", "rL1", "RMSE")] == [
            l1(predicted, actual), rl1(predicted, actual), rmse(predicted, actual)]
        for base in ("MAD", "MARD", "RMSE"):
            assert metrics[f"g{base}"] == g_metric(predicted, actual, penalty, base)


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
    naive = evaluate(dataset, builtin_registry()["naive"], k=5, seed=0)
    again = evaluate(dataset, builtin_registry()["naive"], k=5, seed=0)
    assert again.cohort == naive.cohort
    assert improvements(naive.cohort, again.cohort) == {m: 0.0 for m in METRICS}
    for metric in METRICS:
        assert improvement_csv([naive], metric) == "variant,naive\nD_a6,0.0\n"


def test_improvements_compare_each_cohort_score_with_the_naive_cell(dataset):
    registry = builtin_registry()
    naive = evaluate(dataset, registry["naive"], k=5, seed=0)
    ridge = evaluate(dataset, registry["ridge"], k=5, seed=0)
    gains = improvements(naive.cohort, ridge.cohort)
    assert list(gains) == list(METRICS)
    for metric in METRICS:
        mean = float(np.mean([ridge.per_patient[p][metric] for p in sorted(ridge.per_patient)]))
        assert ridge.cohort[metric] == mean
        assert gains[metric] == percent_improvement(naive.cohort[metric], mean)
        row = improvement_csv([ridge, naive], metric).splitlines()[1]
        assert row == f"D_a6,0.0,{gains[metric]!r}"
    # without a naive cell on the variant, an improvement is not defined
    assert improvement_csv([ridge], "L1") == "variant,ridge\nD_a6,nan\n"


def test_evaluate_is_deterministic(dataset):
    a = evaluate(dataset, builtin_registry()["rf4"], k=5, seed=9)
    b = evaluate(dataset, builtin_registry()["rf4"], k=5, seed=9)
    assert a.per_patient == b.per_patient
    assert a.cohort == b.cohort
    assert all(a.predicted[pid].tobytes() == b.predicted[pid].tobytes()
               for pid in a.predicted)


def test_evaluate_micro_average_pools_pairs(dataset):
    registry = builtin_registry()
    for name in ("naive", "ridge"):
        report = evaluate(dataset, registry[name], k=5, seed=0)
        for pid, predicted in report.predicted.items():
            actual = report.actual[pid]
            assert predicted.shape == actual.shape == (len(dataset.per_patient[pid]),)
            assert report.per_patient[pid]["L1"] == l1(predicted, actual)


def test_evaluate_fold_splits_never_overlap(dataset):
    report = evaluate(dataset, builtin_registry()["ridge"], k=5, seed=0)
    assert sorted(report.folds) == sorted(report.per_patient)
    for pid, plan in report.folds.items():
        n = len(dataset.per_patient[pid])
        assert (plan.n, plan.k) == (n, 5)
        covered = []
        for train_idx, test_idx in plan.splits():
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_evaluate_rejects_non_finite_or_non_positive_predictions(dataset, value):
    class Broken:
        def fit(self, train):
            pass

        def predict(self, test):
            out = np.full(len(test), 6.0)
            out[-1] = value
            return out

    entry = dataclasses.replace(builtin_registry()["naive"], name="broken",
                                factory=lambda cfg, with_stacked, seed: Broken())
    pid = sorted(dataset.per_patient)[0]
    with pytest.raises(ValueError) as err:
        evaluate(dataset, entry, k=5, seed=0)
    message = str(err.value)
    assert f"broken predicted {value!r} mmol/L on variant D_a6, patient {pid}, fold 0" \
        in message
    assert "finite and > 0" in message


@pytest.mark.parametrize("model", ["ridge", "gpr_be_AllPat_AllMeals"])
@pytest.mark.parametrize("variant", ["D_a6", "D_e6"])
def test_evaluate_cells_equal_those_on_the_oracle_rebuild(variant, model, monkeypatch):
    raw = generate(default_config(patients=3, days=25, seed=31))
    cleaned, _ = clean_cohort(raw)
    entry = builtin_registry()[model]
    spec = spec_by_id(variant)
    ds = materialize(cleaned, spec, min_records=20)
    report = evaluate(ds, entry, k=5, seed=3)
    assert all(p.needs_fold_means for p in ds.per_patient.values())

    history = {id(prep): clean(raw[pid])[0] for pid, prep in ds.per_patient.items()}
    cfg = ds.feature_config
    monkeypatch.setattr(evaluation, "rebuild_rows", lambda prep, visible: (
        feature_oracle.rebuild_rows(history[id(prep)], spec, cfg, visible)))
    expected = evaluate(ds, entry, k=5, seed=3)
    for field in ("predicted", "actual"):
        ours, theirs = getattr(report, field), getattr(expected, field)
        assert ours.keys() == theirs.keys()
        assert all(ours[pid].tobytes() == theirs[pid].tobytes() for pid in ours)
    assert report.per_patient == expected.per_patient


@pytest.mark.parametrize("variant", ["D_a6", "D_e6"])
def test_fold_rebuild_sees_only_the_records_of_training_rows(variant, monkeypatch):
    cleaned, _ = clean_cohort(generate(default_config(patients=3, days=25, seed=31)))
    ds = materialize(cleaned, spec_by_id(variant), min_records=20)
    patient_of = {id(prep): pid for pid, prep in ds.per_patient.items()}
    seen = []

    def spy(prep, visible):
        seen.append((patient_of[id(prep)], np.asarray(visible).tolist()))
        design = rebuild_rows(prep, visible)
        # evaluate scores against the materialized targets
        assert design.target_bg.tobytes() == prep.design.target_bg.tobytes()
        return design

    monkeypatch.setattr(evaluation, "rebuild_rows", spy)
    k = 5
    evaluate(ds, builtin_registry()["ridge"], k=k, seed=3)

    expected_calls = []
    test_only_records = 0
    for pid in sorted(ds.per_patient):
        starts = ds.per_patient[pid].row_starts
        for train, test in contiguous_kfold(len(starts), k).splits():
            touched_by_train = {starts[t] for t in train} | {starts[t] + 1 for t in train}
            touched_by_test = {starts[t] for t in test} | {starts[t] + 1 for t in test}
            expected_calls.append((pid, touched_by_train, touched_by_test - touched_by_train))
    assert len(seen) == len(expected_calls) == k * len(ds.per_patient)
    for (pid, visible), (want_pid, train_records, test_only) in zip(seen, expected_calls):
        assert pid == want_pid
        assert len(visible) == len(set(visible)) and set(visible) == train_records
        assert not set(visible) & test_only
        test_only_records += len(test_only)
    assert test_only_records > 0


def test_evaluate_excludes_patients_below_k():
    raw = generate(default_config(patients=3, days=25, seed=31))
    cleaned, _ = clean_cohort(raw)
    ds = materialize(cleaned, spec_by_id("D_a6"), min_records=5)
    # force one patient below the fold count by shrinking its rows
    pid = sorted(ds.per_patient)[0]
    prep = ds.per_patient[pid]
    ds.per_patient[pid] = dataclasses.replace(
        prep, row_starts=prep.row_starts[:3], design=prep.design[:3]
    )
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


class Forwarding:
    """Forwards fit/predict and every other attribute to the wrapped model,
    as a timing proxy does."""

    def __init__(self, inner):
        self._inner = inner

    def fit(self, train):
        self._inner.fit(train)

    def predict(self, test):
        return self._inner.predict(test)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _forwarded(entry):
    return dataclasses.replace(entry, factory=lambda cfg, with_stacked, seed: Forwarding(
        entry.factory(cfg, with_stacked, seed)))


@pytest.mark.parametrize("wrap", [False, True])
def test_evaluate_counts_slot_fallbacks_of_a_slot_seen_in_one_fold_only(dataset, wrap):
    pid = sorted(dataset.per_patient)[0]
    prep = dataset.per_patient[pid]
    assert prep.needs_fold_means
    k = 5
    _, test_idx = contiguous_kfold(len(prep), k).splits()[0]
    a = prep.arrays
    assert not np.any(a.meal == MealSlot.DuringNight.value)
    meal = a.meal.copy()
    # a slot no other fold trains on: the records whose state feeds fold 0
    meal[np.array(prep.row_starts)[test_idx]] = MealSlot.DuringNight.value
    entry = builtin_registry()["gpr_be"]
    # without gaps the materialized design serves every fold; with
    # mean-policy gaps each fold rebuilds it
    for gaps in (False, True):
        arrays = dataclasses.replace(a, meal=meal)
        if not gaps:
            arrays = dataclasses.replace(arrays, cho_gap=np.zeros_like(a.cho_gap),
                                         bolus_gap=np.zeros_like(a.bolus_gap))
        changed = prepare_patient(arrays, dataset.spec, dataset.feature_config)
        assert changed.needs_fold_means is gaps
        assert changed.row_starts == prep.row_starts
        assert np.all(changed.design.meal[test_idx] == MealSlot.DuringNight.value)
        ds = dataclasses.replace(dataset, per_patient={pid: changed})
        report = evaluate(ds, _forwarded(entry) if wrap else entry, k=k, seed=0)
        assert report.metadata["slot_fallbacks"] == len(test_idx) > 0


@pytest.mark.parametrize("wrap", [False, True])
@pytest.mark.parametrize("model", ["ridge", "KNN10U", "rf4", "gpr_IndPat_AllMeals", "gpr_be"])
def test_evaluate_counts_a_fold_with_too_few_rows_for_pca(model, wrap):
    cleaned, _ = clean_cohort(generate(default_config(patients=1, days=25, seed=31)))
    ds = materialize(cleaned, spec_by_id("D_a12"), min_records=5)
    pid = sorted(ds.per_patient)[0]
    prep = ds.per_patient[pid]
    assert ds.feature_config.pca and PCA_COMPONENTS == 4
    ds.per_patient[pid] = dataclasses.replace(
        prep, row_starts=prep.row_starts[:5], design=prep.design[:5])
    entry = builtin_registry()[model]
    # each of the 5 folds trains on 4 rows, too few to fit 4 components
    report = evaluate(ds, _forwarded(entry) if wrap else entry, k=5, seed=0)
    assert report.metadata["pca_flags"] == 5


# ---------------------------------------------------------------------------
# one fold pass per group of models
# ---------------------------------------------------------------------------

def _assert_reports_equal(a, b):
    """Equal float for float: metrics, metadata, fold plans and the
    prediction and target arrays."""
    for name in ("model", "variant", "k", "per_patient", "cohort", "excluded_patients",
                 "metadata", "folds"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("predicted", "actual"):
        arrays_a, arrays_b = getattr(a, name), getattr(b, name)
        assert list(arrays_a) == list(arrays_b), name
        for pid in arrays_a:
            assert arrays_a[pid].tobytes() == arrays_b[pid].tobytes(), (name, pid)


@pytest.mark.parametrize("variant", ["D_a6", "D_a12", "D_e2"])  # fold-local, PCA, one design
def test_evaluate_group_equals_evaluate_per_entry(variant):
    cleaned, _ = clean_cohort(generate(default_config(patients=3, days=25, seed=31)))
    ds = materialize(cleaned, spec_by_id(variant), min_records=20)
    groups = evaluation.sharing_groups(list(builtin_registry().values()))
    assert sorted(len(g) for g in groups) == [1, 1, 1, 1, 2, 2]
    reports = 0
    for group in groups:
        for entry, report in zip(group, evaluation.evaluate_group(ds, group, k=5, seed=7)):
            _assert_reports_equal(report, evaluate(ds, entry, k=5, seed=7))
            reports += 1
    assert reports == len(builtin_registry())


def test_evaluate_group_refuses_entries_that_disagree_on_stacking(dataset):
    registry = builtin_registry()
    with pytest.raises(ValueError, match="agree on stacking"):
        evaluation.evaluate_group(dataset, [registry["gpr_be"],
                                            registry["gpr_be_AllPat_AllMeals"]], k=5)
    with pytest.raises(ValueError, match="agree on stacking"):
        evaluation.evaluate_group(dataset, [], k=5)


@pytest.mark.parametrize("jobs", [1, 2])
def test_evaluate_grid_equals_evaluate_per_cell(jobs):
    cleaned, _ = clean_cohort(generate(default_config(patients=3, days=25, seed=31)))
    datasets = [materialize(cleaned, spec_by_id(v), min_records=20) for v in ("D_e2", "D_a6")]
    registry = builtin_registry()
    names = ["gpr_be", "ridge", "gpr_AllPat_AllMeals", "naive", "gpr_IndPat_AllMeals"]
    grid = evaluation.evaluate_grid(datasets, [registry[n] for n in names], k=5, seed=7,
                                    jobs=jobs)
    assert list(grid) == sorted((d.spec.id, n) for d in datasets for n in names)
    by_id = {d.spec.id: d for d in datasets}
    for (variant, name), report in grid.items():
        _assert_reports_equal(report, evaluate(by_id[variant], registry[name], k=5, seed=7))
    assert evaluation.evaluate_grid([], [registry[n] for n in names], jobs=jobs) == {}


_GRID_PREDICTIONS = """
import json
import numpy as np
from glybench import FeatureConfig, evaluate_grid, materialize, spec_by_id
from glybench.features import Design
from glybench.ingest import clean_cohort
from glybench.models import builtin_registry
from glybench.synth import default_config, generate

registry = builtin_registry()
cleaned, _ = clean_cohort(generate(default_config(patients=2, days=40, seed=2026)))
dataset = materialize(cleaned, spec_by_id("D_a6"), min_records=20)
grid = evaluate_grid([dataset], list(registry.values()), k=5, seed=2026)
out = {model: {pid: values.tolist() for pid, values in report.predicted.items()}
       for (_, model), report in grid.items()}

# No two KNN distances of the grid come within a rounding of each other,
# so a distance that went through BLAS would not show there. Here KNN10U
# meets near-ties: one row beside each query, then pairs mirrored about
# it, so the 10th and 11th nearest rows are the two rows of one pair.
rng = np.random.default_rng(0)
centres = rng.normal(scale=3.0, size=(8, 14))
offsets = rng.normal(size=(8, 30, 14))
x = np.concatenate([np.concatenate([c + 0.01 * v[:1], c + v, c - v])
                    for c, v in zip(centres, offsets)])
knn = registry["KNN10U"].build(FeatureConfig())
knn.fit(Design(x, rng.uniform(4.0, 12.0, size=len(x)), np.arange(len(x))))
ties = knn.predict(Design(centres, np.full(len(centres), 6.0), np.arange(len(centres))))
out["KNN10U"]["mirrored pairs"] = ties.tolist()
print(json.dumps(out))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS core types named are x86-64 ones")
def test_only_the_models_that_go_through_blas_depend_on_the_blas_kernel():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def predictions(extra_env: dict[str, str]) -> dict[str, dict[str, list[float]]]:
        env = dict(os.environ, **extra_env)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        done = subprocess.run([sys.executable, "-c", _GRID_PREDICTIONS],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    native = predictions({})
    prescott = predictions({"OPENBLAS_CORETYPE": "Prescott"})
    assert list(native) == list(prescott) == sorted(builtin_registry())
    for model in native:
        assert native[model].keys() == prescott[model].keys()
        for pid, values in native[model].items():
            if model in ("naive", "KNN10U", "rf4"):
                assert values == prescott[model][pid], (model, pid)
            else:
                # ridge, the GPs and the stacked column: last bits only
                assert np.allclose(values, prescott[model][pid], rtol=1e-12, atol=0), \
                    (model, pid)


def _count_factorizations(monkeypatch) -> list[np.ndarray]:
    import scipy.linalg

    factorized = []
    cho_factor = scipy.linalg.cho_factor

    def spy(a, *args, **kwargs):
        factorized.append(np.array(a))
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
    return factorized


@pytest.mark.parametrize("variant", ["D_a6", "D_e2"])
def test_a_gp_pair_factorizes_the_patient_wide_kernel_once_per_fold(variant, monkeypatch):
    cleaned, _ = clean_cohort(generate(default_config(patients=3, days=25, seed=31)))
    ds = materialize(cleaned, spec_by_id(variant), min_records=20)
    k = 5
    train_sizes = [len(train) for pid in sorted(ds.per_patient)
                   for train, _ in contiguous_kfold(len(ds.per_patient[pid]), k).splits()]
    registry = builtin_registry()
    for stacking in (False, True):
        pair = [e for e in registry.values() if e.algorithm == "GPR" and e.stacking == stacking]
        assert evaluation.sharing_groups(pair) == [pair]

        factorized = _count_factorizations(monkeypatch)
        evaluation.evaluate_group(ds, pair, k=k, seed=0)
        # patient-wide kernels are the fold's training size; a slot GP's is
        # smaller and the ridge stacker's gram is as wide as the design
        wide = [a.shape[0] for a in factorized if a.shape[0] in train_sizes]
        assert sorted(wide) == sorted(train_sizes)
        assert len({a.tobytes() for a in factorized}) == len(factorized)

        # evaluated one entry at a time, each fold factorizes that kernel twice
        factorized.clear()
        for entry in pair:
            evaluate(ds, entry, k=k, seed=0)
        wide = [a.shape[0] for a in factorized if a.shape[0] in train_sizes]
        assert sorted(wide) == sorted(2 * train_sizes)


class _NanQuery:
    """A model whose first test row of every fold has one NaN feature."""

    def __init__(self, model):
        self.model = model

    def fit(self, train):
        self.model.fit(train)

    def predict(self, test):
        x = test.x.copy()
        x[0, 1] = np.nan
        return self.model.predict(dataclasses.replace(test, x=x))


@pytest.mark.parametrize("stacking", [False, True])
def test_a_nan_test_row_fails_a_gp_pair_naming_the_model(stacking):
    cleaned, _ = clean_cohort(generate(default_config(patients=3, days=25, seed=31)))
    ds = materialize(cleaned, spec_by_id("D_a6"), min_records=20)
    pair = [e for e in builtin_registry().values()
            if e.algorithm == "GPR" and e.stacking == stacking]
    assert len(pair) == 2
    for broken in pair:
        def factory(cfg, with_stacked, seed, build=broken.factory):
            return _NanQuery(build(cfg, with_stacked, seed))

        entries = [dataclasses.replace(e, factory=factory) if e is broken else e
                   for e in pair]
        with pytest.raises(ValueError) as err:
            evaluation.evaluate_group(ds, entries, k=5, seed=0)
        assert f"{broken.name} predicted nan mmol/L on variant D_a6" in str(err.value)
