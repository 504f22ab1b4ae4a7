from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glybench.features import Design, FeatureConfig, Vectorizer
from glybench.models import (
    KnnPredictor,
    NaivePredictor,
    RidgePredictor,
    attach_stacked,
    builtin_registry,
    fit_stacker,
    registry_csv,
)
from glybench.records import MealSlot

import feature_oracle
from feature_oracle import FeatureRow


def frow(**overrides) -> FeatureRow:
    base = dict(
        meal=MealSlot.BeforeBreakfast, dow=0, ev=4.0, pv=0.0, basal=0.0,
        bg=6.0, iob=0.0, cho_prev=30.0, bolus_prev=3.0, bg_at_cho=7.0,
        bg_at_bolus=7.0, dt_cho=120.0, dt_bolus=120.0, horizon_dt=180.0,
        target_bg=6.0,
    )
    base.update(overrides)
    return FeatureRow(**base)


CFG = FeatureConfig()


def design(rows) -> Design:
    return feature_oracle.design(rows, CFG)


def predict_one(model, row) -> float:
    return float(model.predict(design([row]))[0])


# ---------------------------------------------------------------------------
# naive baseline
# ---------------------------------------------------------------------------

def test_naive_replicates_training_average():
    # first training fold whose raw glucose readings average 8.4
    train = [frow(target_bg=v) for v in (7.4, 8.4, 9.4)]
    m = NaivePredictor()
    m.fit(design(train))
    assert predict_one(m, frow(bg=25.0)) == pytest.approx(8.4, abs=1e-12)


def test_naive_is_the_plain_mean():
    m = NaivePredictor()
    m.fit(design([frow(target_bg=v) for v in (4.0, 6.0, 8.0)]))
    assert m.predict(design([frow(), frow(bg=30.0, cho_prev=500.0)])).tolist() == [6.0, 6.0]


def test_naive_single_row():
    m = NaivePredictor()
    m.fit(design([frow(target_bg=5.5)]))
    assert predict_one(m, frow()) == 5.5


def test_naive_refuses_empty_training_set():
    with pytest.raises(ValueError):
        NaivePredictor().fit(design([]))


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------

def test_ridge_two_point_closed_form():
    # one varying feature (bg), log targets 0 and 1
    train = [frow(bg=2.0, target_bg=1.0), frow(bg=4.0, target_bg=math.e)]
    m = RidgePredictor(CFG)
    m.fit(design(train))
    # standardized bg = -1, +1; centered y = -0.5, +0.5
    # (Z'Z + I) w = Z'y  ->  3 w = 1  ->  w = 1/3
    varying = [w for w in m.weights if w != 0.0]
    assert len(varying) == 1
    assert varying[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert predict_one(m, frow(bg=4.0)) == pytest.approx(math.exp(0.5 + 1.0 / 3.0), abs=1e-10)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("where", ["z", "y"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_ridge_refuses_non_finite_inputs(where, value):
    data = design([frow(bg=4.0 + i, cho_prev=10.0 * i, target_bg=5.0 + i) for i in range(6)])
    if where == "z":
        x = data.x.copy()
        x[2, 5] = value
        data = dataclasses.replace(data, x=x)
    else:
        logs = data.log_target.copy()
        logs[2] = value
        data = dataclasses.replace(data, log_target=logs)
    with pytest.raises(ValueError, match="finite"):
        RidgePredictor(CFG).fit(data)


def test_ridge_matches_dense_inverse_oracle():
    rng = np.random.default_rng(5)
    train = [
        frow(
            bg=float(rng.uniform(4, 12)),
            cho_prev=float(rng.uniform(0, 80)),
            dt_cho=float(rng.uniform(30, 400)),
            horizon_dt=float(rng.uniform(60, 600)),
            target_bg=float(rng.uniform(3, 14)),
        )
        for _ in range(20)
    ]
    m = RidgePredictor(CFG)
    m.fit(design(train))
    z = m.pipeline.transform(design(train).x)
    y = np.log([r.target_bg for r in train])
    w_oracle = np.linalg.inv(z.T @ z + np.eye(z.shape[1])) @ z.T @ (y - y.mean())
    assert np.allclose(m.weights, w_oracle, atol=1e-10)


def test_ridge_zero_variance_column_gets_zero_weight():
    train = [frow(bg=v, target_bg=v) for v in (4.0, 5.0, 6.0, 8.0)]
    m = RidgePredictor(CFG)
    m.fit(design(train))
    names = Vectorizer(CFG).column_names()
    weights = dict(zip(names, m.weights))
    assert weights["pv"] == 0.0        # constant column
    assert weights["basal"] == 0.0
    assert weights["bg"] != 0.0


def test_ridge_full_shrinkage_tends_to_geometric_mean():
    targets = (4.0, 6.0, 9.0)
    train = [frow(bg=3.0 + i, target_bg=t) for i, t in enumerate(targets)]
    m = RidgePredictor(CFG, alpha=1e12)
    m.fit(design(train))
    geo = math.exp(np.mean(np.log(targets)))
    assert predict_one(m, frow(bg=5.0)) == pytest.approx(geo, rel=1e-6)


def test_ridge_degenerate_identical_rows_predicts_geometric_mean():
    train = [frow(target_bg=4.0), frow(target_bg=9.0)]
    m = RidgePredictor(CFG)
    m.fit(design(train))
    assert predict_one(m, frow()) == pytest.approx(6.0, abs=1e-9)  # sqrt(4*9)


# ---------------------------------------------------------------------------
# knn
# ---------------------------------------------------------------------------

def test_knn_falls_back_to_all_rows_when_small():
    targets = (4.0, 6.0, 9.0)
    train = [frow(bg=4.0 + i, target_bg=t) for i, t in enumerate(targets)]
    m = KnnPredictor(CFG, k=10)
    m.fit(design(train))
    geo = math.exp(np.mean(np.log(targets)))
    assert predict_one(m, frow(bg=5.0)) == pytest.approx(geo, abs=1e-12)


def test_knn_k1_returns_exact_neighbour():
    train = [frow(bg=4.0, target_bg=5.0), frow(bg=10.0, target_bg=12.0)]
    m = KnnPredictor(CFG, k=1)
    m.fit(design(train))
    assert predict_one(m, train[1]) == pytest.approx(12.0, abs=1e-12)


def test_knn_matches_exhaustive_neighbour_oracle():
    rng = np.random.default_rng(7)
    train = [
        frow(
            bg=float(rng.uniform(3, 15)),
            cho_prev=float(rng.uniform(0, 90)),
            dt_cho=float(rng.uniform(20, 500)),
            target_bg=float(rng.uniform(2, 20)),
        )
        for _ in range(12)
    ]
    m = KnnPredictor(CFG, k=10)
    m.fit(design(train))
    query = frow(bg=7.7, cho_prev=33.0, dt_cho=140.0)
    z = m.pipeline.transform(design(train).x)
    q = m.pipeline.transform(design([query]).x)[0]
    dist = np.sqrt(((z - q) ** 2).sum(axis=1))
    nearest = np.argsort(dist, kind="stable")[:10]
    oracle = math.exp(np.mean([math.log(train[i].target_bg) for i in nearest]))
    assert predict_one(m, query) == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------

def _patient_rows(seed: int, n: int = 12, bg_target=None):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        t = bg_target if bg_target is not None else float(rng.uniform(4, 12))
        rows.append(
            frow(
                bg=float(rng.uniform(4, 12)),
                cho_prev=float(rng.uniform(0, 80)),
                dt_cho=float(rng.uniform(30, 400)),
                target_bg=t,
            )
        )
    return rows


def _patient_designs(*seeds):
    return [design(_patient_rows(seed)) for seed in seeds]


def test_stack_appends_exactly_one_feature():
    target = design(_patient_rows(3))
    stacked = attach_stacked(fit_stacker(RidgePredictor(CFG), _patient_designs(1, 2)), target)
    assert stacked.x.shape == (len(target), target.x.shape[1] + 1)
    assert np.array_equal(stacked.x[:, :-1], target.x)
    assert np.array_equal(stacked.target_bg, target.target_bg)
    assert np.array_equal(stacked.index, target.index)


def test_stacked_value_is_the_stacker_prediction():
    target = design(_patient_rows(3))
    stacker = fit_stacker(RidgePredictor(CFG), _patient_designs(1))
    stacked = attach_stacked(stacker, target)
    assert np.array_equal(stacked.x[:, -1], stacker.predict(target))
    # the batch column agrees with one-row predictions up to rounding
    for i in range(len(target)):
        assert stacked.x[i, -1] == pytest.approx(stacker.predict(target[[i]])[0], rel=1e-12)


def test_stacker_fits_the_pooled_rows_of_the_other_patients():
    others = _patient_designs(1, 2)
    stacker = fit_stacker(RidgePredictor(CFG), others)
    pooled = RidgePredictor(CFG)
    pooled.fit(design(_patient_rows(1) + _patient_rows(2)))
    assert np.array_equal(stacker.weights, pooled.weights)
    assert stacker.intercept == pooled.intercept


def test_stacking_constant_patient_transfers_constant():
    others = [design(_patient_rows(1, bg_target=7.0))]
    stacked = attach_stacked(fit_stacker(RidgePredictor(CFG), others),
                             design(_patient_rows(3)))
    assert stacked.x[:, -1] == pytest.approx(7.0, abs=1e-9)


def test_stacking_requires_another_patient():
    with pytest.raises(ValueError):
        fit_stacker(RidgePredictor(CFG), [])


def test_stacking_rejects_already_stacked_rows():
    stacker = fit_stacker(RidgePredictor(CFG), _patient_designs(1))
    once = attach_stacked(stacker, design(_patient_rows(3)))
    with pytest.raises(ValueError):
        attach_stacked(stacker, once)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_names_are_unique_and_known():
    reg = builtin_registry()
    assert len(reg) == 8
    expected = {
        "naive", "ridge", "KNN10U", "rf4", "gpr_IndPat_AllMeals",
        "gpr_be", "gpr_AllPat_AllMeals", "gpr_be_AllPat_AllMeals",
    }
    assert set(reg) == expected
    assert reg["gpr_be"].confidence_weighting and not reg["gpr_be"].stacking
    assert reg["gpr_be_AllPat_AllMeals"].confidence_weighting
    assert reg["gpr_be_AllPat_AllMeals"].stacking


def test_registry_csv_shape():
    lines = registry_csv().strip().splitlines()
    assert lines[0] == "name,symbol,algorithm,confidence_weighting,stacking"
    assert "gpr_be,M^w_gpr,GPR,1,0" in lines
    assert "naive,M_avg,BG History Average,0,0" in lines


def test_every_registry_model_refits_bit_identically():
    rng = np.random.default_rng(33)
    rows = []
    for _ in range(24):
        rows.append(
            frow(
                meal=MealSlot(int(rng.integers(0, 8))),
                bg=float(rng.uniform(3, 15)),
                cho_prev=float(rng.uniform(0, 90)),
                dt_cho=float(rng.uniform(20, 500)),
                target_bg=float(rng.uniform(2, 18)),
            )
        )
    plain = design(rows)
    stacked = Design(np.column_stack([plain.x, rng.uniform(2, 18, size=len(rows))]),
                     plain.target_bg, plain.index)
    for entry in builtin_registry().values():
        data = stacked if entry.stacking else plain
        a = entry.build(CFG, seed=7)
        b = entry.build(CFG, seed=7)
        a.fit(data)
        b.fit(data)
        assert np.array_equal(a.predict(data[:5]), b.predict(data[:5])), entry.name


_SETUP_PATH = """
import contextlib
import io
import json
import sys
import glybench
from glybench.cli import main
from glybench.ep import ep_counts
from glybench.ingest import clean_cohort, parse_diary_csv
from glybench.records import encode_diary_csv
from glybench.synth import default_config, generate
from glybench.variants import materialize, spec_by_id

text = encode_diary_csv(generate(default_config(patients=2, days=10, seed=1)))
cleaned, _ = clean_cohort(parse_diary_csv(text))
for vid in ("D_a6", "D_e12"):
    materialize(cleaned, spec_by_id(vid), min_records=1)
with open(sys.argv[1], "w") as f:
    f.write(text)
with contextlib.redirect_stdout(io.StringIO()):
    status = main(["inspect", "--input", sys.argv[1]])
print(json.dumps({"ep_counts": [ep_counts(cleaned[pid]) for pid in sorted(cleaned)],
                  "inspect": status, "modules": sorted(sys.modules)}))
"""

_RUN = """
import contextlib
import io
import json
import sys
from glybench.cli import main
from glybench.records import encode_diary_csv
from glybench.synth import default_config, generate

with open(sys.argv[1], "w") as f:
    f.write(encode_diary_csv(generate(default_config(patients=2, days=20, seed=4))))
with contextlib.redirect_stdout(io.StringIO()):
    status = main(["run", "--input", sys.argv[1], "--out", sys.argv[2], "--variants", "D_a6",
                   "--models", "ridge,gpr_be", "--k", "5", "--min-records", "20"])
print(json.dumps({"run": status, "modules": sorted(sys.modules)}))
"""


def python_json(code: str, *args: str) -> dict:
    """The JSON that ``code`` prints, run in a fresh process on this tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_set_up_path_does_not_load_scipy_linalg(tmp_path):
    # neither the set-up path nor `inspect` factorizes, so neither loads LAPACK
    loaded = python_json(_SETUP_PATH, str(tmp_path / "cohort.csv"))
    assert len(loaded["ep_counts"]) == 2
    assert loaded["inspect"] == 0
    assert "scipy.linalg" not in loaded["modules"]
    assert "scipy.linalg._flapack" not in loaded["modules"]


def test_a_run_loads_scipy_lapack_without_the_scipy_linalg_package(tmp_path):
    loaded = python_json(_RUN, str(tmp_path / "cohort.csv"), str(tmp_path / "out"))
    assert loaded["run"] == 0
    assert "scipy.linalg._flapack" in loaded["modules"]
    assert "scipy.linalg" not in loaded["modules"]
