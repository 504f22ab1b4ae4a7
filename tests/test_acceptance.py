"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them
on success).

The suite is property-and-oracle based: synthetic cohorts stand in for
clinical data, so checks pin closed forms, independent dense oracles,
published curve anchors, and structural guarantees rather than absolute
losses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time

import numpy as np
import pytest

from glybench import evaluation
from glybench.cli import main
from glybench.ep import PREV_HYPO, SIX_OF_EIGHT, is_expert_predictable
from glybench.evaluation import (
    METRICS,
    PenaltyTable,
    evaluate,
    evaluate_grid,
    g_metric,
    improvements,
    l1,
    rl1,
    rmse,
)
from glybench.features import IOB_KNOTS, RecordArrays, event_columns, iob_fraction
from glybench.ingest import clean_cohort, parse_diary_csv
from glybench.models import builtin_registry, weighted_log_mean
from glybench.models.gpr import GprCore, rbf_kernel
from glybench.synth import default_config, generate, high_signal_config, zero_signal_config
from glybench.variants import materialize, spec_by_id

from conftest import ep_fixture

GRID_VARIANTS = ("D_e1", "D_e2", "D_e6", "D_e12", "D_a1", "D_a6", "D_a8", "D_a12")
GRID_MODELS = (
    "naive", "ridge", "KNN10U", "rf4",
    "gpr_IndPat_AllMeals", "gpr_be", "gpr_be_AllPat_AllMeals",
)
GRID_SEED = 2026
GRID_K = 10
GRID_MIN_RECORDS = 20


def _ok(n: int, message: str) -> None:
    print(f"PASS criterion {n}: {message}")


# ---------------------------------------------------------------------------
# criterion 1: metric oracle suite
# ---------------------------------------------------------------------------

def test_criterion_1_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    predicted, actual = rng.uniform(1, 30, size=(2, 200))
    pairs = list(zip(predicted.tolist(), actual.tolist()))
    n = len(pairs)
    oracle_l1 = math.fsum(abs(p - a) for p, a in pairs) / n
    oracle_rl1 = math.fsum(abs(p - a) / a for p, a in pairs) / n
    oracle_rmse = math.sqrt(math.fsum((p - a) ** 2 for p, a in pairs) / n)
    assert abs(l1(predicted, actual) - oracle_l1) <= 1e-12
    assert abs(rl1(predicted, actual) - oracle_rl1) <= 1e-12
    assert abs(rmse(predicted, actual) - oracle_rmse) <= 1e-12

    low = (np.array([5.0]), np.array([3.0]))
    high = (np.array([10.0]), np.array([12.0]))
    assert l1(*low) == 2.0 and l1(*high) == 2.0
    assert rl1(*low) == 2.0 / 3.0 and rl1(*high) == 2.0 / 12.0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"200-pair summation oracle to 1e-12, rationale pairs exact "
           f"({elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------------------
# criterion 2: GP posterior oracle
# ---------------------------------------------------------------------------

def test_criterion_2_gpr_dense_oracle():
    start = time.perf_counter()
    nugget = 0.25
    worst = 0.0
    for n in range(1, 7):
        rng = np.random.default_rng(200 + n)
        z = rng.normal(size=(n, 3))
        y = rng.normal(loc=2.0, size=n)
        core = GprCore(nugget=nugget)
        core.fit(z, y)
        k_inv = np.linalg.inv(rbf_kernel(z, z) + nugget * np.eye(n))
        queries = rng.normal(size=(10, 3))
        means, sigmas = core.posterior(queries)
        for q, mean, sigma in zip(queries, means, sigmas):
            k_star = rbf_kernel(np.atleast_2d(q), z)[0]
            o_mean = float(y.mean()) + float(k_star @ k_inv @ (y - y.mean()))
            o_sigma = math.sqrt(max(1.0 - float(k_star @ k_inv @ k_star), 0.0))
            worst = max(worst, abs(mean - o_mean), abs(sigma - o_sigma))
    assert worst <= 1e-8

    core = GprCore(nugget=nugget, prior_mean=0.0)
    core.fit(np.array([[0.0]]), np.array([2.0]))
    (mean,), _ = core.posterior(np.array([[0.0]]))
    assert mean == pytest.approx(0.8 * 2.0, abs=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(2, f"posterior vs dense inverse <= {worst:.2e} (tol 1e-8), "
           f"1-point shrinkage 0.8 ({elapsed * 1000:.0f} ms)")


# ---------------------------------------------------------------------------
# criterion 3: confidence-weighted combination
# ---------------------------------------------------------------------------

def test_criterion_3_weighted_combination():
    assert weighted_log_mean(6.0, 1.0, 8.0, 1.0) == pytest.approx(7.0, abs=1e-4)
    assert weighted_log_mean(6.0, 1.0, 8.0, 2.0) == pytest.approx(6.6667, abs=1e-4)
    assert weighted_log_mean(6.0, 1.0, 8.0, 1e6) == pytest.approx(6.0, abs=1e-4)

    rng = np.random.default_rng(3)
    for _ in range(1000):
        mu_p, mu_m = (float(v) for v in rng.normal(scale=3.0, size=2))
        sig_p, sig_m = (float(v) for v in rng.uniform(1e-3, 5.0, size=2))
        out = weighted_log_mean(mu_p, sig_p, mu_m, sig_m)
        assert min(mu_p, mu_m) - 1e-12 <= out <= max(mu_p, mu_m) + 1e-12
        # rescaling both sigmas by c rescales both weights by 1/c
        c = float(rng.uniform(0.01, 100.0))
        assert weighted_log_mean(mu_p, c * sig_p, mu_m, c * sig_m) == pytest.approx(
            out, abs=1e-12
        )
    _ok(3, "blend examples to 1e-4; convexity and weight-rescaling "
           "invariance on 1000 draws")


# ---------------------------------------------------------------------------
# criterion 4: insulin-on-board curve
# ---------------------------------------------------------------------------

def test_criterion_4_iob_curve(single_day):
    for hours, frac in IOB_KNOTS:
        assert iob_fraction(hours * 60.0) == pytest.approx(frac, abs=1e-9)
    values = [iob_fraction(float(m)) for m in range(0, 301)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    arrays = RecordArrays.of(single_day)
    anchor = event_columns(arrays, arrays.cho, arrays.bolus)["iob"][1]  # 10.4 u, 103 min earlier
    assert anchor == pytest.approx(7.90, abs=0.10)
    _ok(4, f"six knots to 1e-9, monotone on the minute grid, "
           f"10.4 u @ 103 min -> {anchor:.3f} (7.90 +/- 0.10)")


# ---------------------------------------------------------------------------
# criterion 5: expert-predictable filter
# ---------------------------------------------------------------------------

def test_criterion_5_ep_rules_and_subset():
    h, i = ep_fixture(8, prev_bg=3.5)
    assert is_expert_predictable(h, i).failed_rules == {PREV_HYPO}
    h, i = ep_fixture(8, prev_bg=6.0)
    assert is_expert_predictable(h, i).predictable
    h, i = ep_fixture(5)
    assert is_expert_predictable(h, i).failed_rules == {SIX_OF_EIGHT}

    checked = 0
    for cfg in (
        default_config(4, 25, seed=101),
        default_config(4, 25, seed=102),
        zero_signal_config(3, 20, seed=103),
        high_signal_config(3, 20, seed=104),
    ):
        cleaned, _ = clean_cohort(generate(cfg))
        for pair in (("D_e1", "D_a1"), ("D_e2", "D_a2"), ("D_e6", "D_a6")):
            ds_e = materialize(cleaned, spec_by_id(pair[0]), min_records=1)
            ds_a = materialize(cleaned, spec_by_id(pair[1]), min_records=1)
            for pid in ds_a.per_patient:
                rows_e = ds_e.per_patient.get(pid, ())
                assert len(rows_e) <= len(ds_a.per_patient[pid])
                checked += 1
    _ok(5, f"three rule fixtures exact; |D_e| <= |D_a| on {checked} "
           f"patient-variant pairs across 4 cohorts")


# ---------------------------------------------------------------------------
# shared grid fixtures (criteria 6, 7, 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid_cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cohort") / "cohort.csv"
    assert main(["synth", "--preset", "default", "--seed", str(GRID_SEED),
                 "--out", str(path)]) == 0
    return path


class _Spy:
    """Records the row positions a model sees at fit and predict time.

    It wraps the model at the batch boundary, so evaluation goes through
    the same ``fit``/``predict`` calls as in production.
    """

    def __init__(self, inner):
        self.inner = inner
        self.train_index: np.ndarray | None = None
        self.test_index: list[np.ndarray] = []
        self.predictions = 0

    def fit(self, train):
        self.train_index = train.index.copy()
        self.inner.fit(train)

    def predict(self, test):
        self.test_index.append(test.index.copy())
        out = self.inner.predict(test)
        assert out.shape == (len(test),)
        self.predictions += len(out)
        return out


@pytest.fixture(scope="module")
def library_grid(grid_cohort_csv):
    """Every grid cell evaluated in-process by ``evaluate_grid``, the grid
    function ``run`` calls, with an identity spy on every entry; each
    report holds its prediction pairs. Shared by the hygiene and
    identity-penalty criteria."""
    cleaned, _ = clean_cohort(parse_diary_csv(grid_cohort_csv.read_text()))
    registry = builtin_registry()
    groups = []
    evaluate_group = evaluation.evaluate_group

    def spied_group(dataset, entries, **kwargs):
        groups.append((dataset.spec.id, [entry.name for entry in entries]))
        return evaluate_group(dataset, entries, **kwargs)

    cells = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "evaluate_group", spied_group)
        for vid in GRID_VARIANTS:
            dataset = materialize(cleaned, spec_by_id(vid), min_records=GRID_MIN_RECORDS)
            spies: dict[str, list[_Spy]] = {name: [] for name in GRID_MODELS}
            spied = []
            for name in GRID_MODELS:
                entry = registry[name]

                def spied_factory(cfg, with_stacked, seed, _inner=entry.factory,
                                  _spies=spies[name]):
                    spy = _Spy(_inner(cfg, with_stacked, seed))
                    _spies.append(spy)
                    return spy

                spied.append(dataclasses.replace(entry, factory=spied_factory))
            grid = evaluate_grid([dataset], spied, k=GRID_K, seed=GRID_SEED)
            assert list(grid) == sorted((vid, name) for name in GRID_MODELS)
            for (_, name), report in grid.items():
                cells[(vid, name)] = (report, spies[name], dataset)
            variant_groups = [names for v, names in groups if v == vid]
            assert len(variant_groups) < len(GRID_MODELS)  # the patient-wide GPs share a pass
            assert sorted(sum(variant_groups, [])) == sorted(GRID_MODELS)
    return cells


def test_criterion_6_cv_hygiene(library_grid):
    cells = folds = predictions = 0
    for (vid, name), (report, spies, dataset) in library_grid.items():
        # evaluate fits patients in sorted order, GRID_K folds each
        patients = sorted(report.per_patient)
        assert patients, f"no patient evaluated in {vid}/{name}"
        assert len(spies) == GRID_K * len(patients), f"fit count in {vid}/{name}"
        for p, pid in enumerate(patients):
            n = len(dataset.per_patient[pid])
            covered = []
            for spy in spies[p * GRID_K:(p + 1) * GRID_K]:
                assert spy.test_index, f"fold made no predictions in {vid}/{name}"
                test = np.concatenate(spy.test_index)
                assert test.size, f"empty test fold in {vid}/{name}"
                overlap = set(spy.train_index.tolist()) & set(test.tolist())
                assert not overlap, f"train/test overlap in {vid}/{name}/{pid}"
                assert len(spy.train_index) + len(test) == n
                covered.extend(test.tolist())
                folds += 1
            assert sorted(covered) == list(range(n)), (
                f"test folds do not cover {vid}/{name}/{pid} exactly once"
            )
        cell_predictions = sum(s.predictions for s in spies)
        assert cell_predictions == sum(len(dataset.per_patient[p]) for p in patients)
        assert cell_predictions == sum(len(r) for r in dataset.per_patient.values())
        predictions += cell_predictions
        cells += 1
    assert cells == len(GRID_VARIANTS) * len(GRID_MODELS)
    _ok(6, f"zero train/test row overlap across {cells} cells, {folds} folds, "
           f"test folds cover every row once, {predictions} predictions on a "
           f"5-patient cohort")


def _tree_hashes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def test_criterion_7_end_to_end_grid(grid_cohort_csv, tmp_path_factory):
    out1 = tmp_path_factory.mktemp("grid") / "r1"
    out2 = tmp_path_factory.mktemp("grid") / "r2"
    args = [
        "run", "--input", str(grid_cohort_csv),
        "--variants", ",".join(GRID_VARIANTS),
        "--models", ",".join(GRID_MODELS),
        "--k", str(GRID_K), "--min-records", str(GRID_MIN_RECORDS),
        "--seed", str(GRID_SEED),
    ]
    start = time.perf_counter()
    assert main(args + ["--out", str(out1)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0

    for metric in METRICS:
        wide = (out1 / f"wide_{metric}.csv").read_text().strip().splitlines()
        assert wide[0].split(",")[1:] == sorted(GRID_MODELS)
        assert len(wide) == 1 + len(GRID_VARIANTS)
    assert (out1 / "ep_counts.csv").exists()
    assert (out1 / "cleaning.csv").exists()

    assert main(args + ["--out", str(out2)]) == 0
    assert _tree_hashes(out1) == _tree_hashes(out2)
    _ok(7, f"5 patients x {len(GRID_VARIANTS)} variants x {len(GRID_MODELS)} "
           f"models x {GRID_K}-fold in {elapsed:.1f} s (< 300 s), "
           f"byte-identical rerun, all six metric tables emitted")


# ---------------------------------------------------------------------------
# criterion 8: the harness detects signal iff it exists
# ---------------------------------------------------------------------------

def test_criterion_8_signal_detection():
    registry = builtin_registry()

    cleaned, _ = clean_cohort(generate(zero_signal_config(5, 40, seed=80)))
    dataset = materialize(cleaned, spec_by_id("D_a6"), min_records=GRID_MIN_RECORDS)
    worst_gap = 0.0
    naive_l1 = evaluate(dataset, registry["naive"], k=GRID_K, seed=80).cohort["L1"]
    for name in GRID_MODELS:
        report = evaluate(dataset, registry[name], k=GRID_K, seed=80)
        model_l1 = report.cohort["L1"]
        assert model_l1 <= naive_l1 * 1.05 + 1e-9, (
            f"{name} strayed from naive on the zero-signal preset"
        )
        worst_gap = max(worst_gap, abs(model_l1 - naive_l1))

    cleaned, _ = clean_cohort(generate(high_signal_config(5, 40, seed=81)))
    dataset = materialize(cleaned, spec_by_id("D_a6"), min_records=GRID_MIN_RECORDS)
    naive = evaluate(dataset, registry["naive"], k=GRID_K, seed=81)
    report = evaluate(dataset, registry["gpr_be"], k=GRID_K, seed=81)
    gain = improvements(naive.cohort, report.cohort)["L1"]
    assert gain >= 10.0
    _ok(8, f"zero-signal: all {len(GRID_MODELS)} models within 5% of naive "
           f"(largest absolute gap {worst_gap:.2e}); high-signal: the "
           f"weighted GP ensemble beats naive by {gain:.1f}% L1 (>= 10%)")


# ---------------------------------------------------------------------------
# criterion 9: unit penalty collapses the glucose-specific metrics
# ---------------------------------------------------------------------------

def test_criterion_9_identity_penalty_bitwise(library_grid):
    unit = PenaltyTable.identity()
    cells = 0
    for (vid, name), (report, _spies, _dataset) in library_grid.items():
        for pid, predicted in report.predicted.items():
            actual = report.actual[pid]
            assert g_metric(predicted, actual, unit, "MAD") == l1(predicted, actual)
            assert g_metric(predicted, actual, unit, "MARD") == rl1(predicted, actual)
            assert g_metric(predicted, actual, unit, "RMSE") == rmse(predicted, actual)
        cells += 1
    assert cells == len(GRID_VARIANTS) * len(GRID_MODELS)
    _ok(9, f"gMAD/gMARD/gRMSE == MAD/MARD/RMSE bit-for-bit on all "
           f"{cells} grid cells")
