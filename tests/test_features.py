from __future__ import annotations

import datetime as dt
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glybench.features import (
    DowMode,
    FeatureConfig,
    IOB_KNOTS,
    PcaConfig,
    Vectorizer,
    build_feature_rows,
    compute_iob,
    encode_dow,
    from_log,
    iob_fraction,
    pca_apply,
    pca_fit,
    to_log_target,
)
from glybench.records import ExerciseLevel, MealSlot

import feature_oracle
from conftest import history, history_steps, rec, timed_history


# ---------------------------------------------------------------------------
# insulin-on-board curve
# ---------------------------------------------------------------------------

def test_iob_fraction_reproduces_every_knot():
    for hours, frac in IOB_KNOTS:
        assert iob_fraction(hours * 60.0) == pytest.approx(frac, abs=1e-9)


def test_iob_fraction_monotone_on_minute_grid():
    values = [iob_fraction(float(m)) for m in range(0, 301)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_iob_fraction_zero_beyond_window():
    assert iob_fraction(300.0) == pytest.approx(0.03, abs=1e-9)
    assert iob_fraction(301.0) == 0.0
    assert iob_fraction(10_000.0) == 0.0


def test_iob_fraction_rejects_negative_elapsed():
    with pytest.raises(ValueError):
        iob_fraction(-1.0)


def test_iob_fraction_is_bit_identical_to_scipy_pchip():
    from scipy.interpolate import PchipInterpolator

    spline = PchipInterpolator([k[0] for k in IOB_KNOTS], [k[1] for k in IOB_KNOTS])
    knots = np.array([k[0] * 60.0 for k in IOB_KNOTS])
    minutes = np.concatenate([
        np.linspace(0.0, 300.0, 30_001),
        knots,
        np.nextafter(knots, np.inf),
        np.nextafter(knots, -np.inf),
    ])
    minutes = minutes[(minutes >= 0.0) & (minutes <= 300.0)]
    expected = spline(minutes / 60.0)
    mismatched = [
        m for m, e in zip(minutes.tolist(), expected.tolist()) if iob_fraction(m) != e
    ]
    assert not mismatched


def test_importing_the_cli_leaves_scipy_interpolate_unloaded():
    code = "import sys, glybench.cli; print('scipy.interpolate' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.strip() == "False"


def test_compute_iob_single_bolus_103_minutes(single_day):
    # 10.4 units injected 103 minutes earlier
    assert compute_iob(single_day, 1) == pytest.approx(7.90, abs=0.10)


def test_compute_iob_no_prior_bolus(single_day):
    assert compute_iob(single_day, 0) == 0.0


def test_compute_iob_ignores_boluses_older_than_window():
    h = history(
        "p",
        [
            rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, bolus=8.0),
            rec("2016-01-01", "14:30:00", MealSlot.AfterLunch, bg=6.0, bolus=0.0),
        ],
    )
    assert compute_iob(h, 1) == 0.0  # 390 minutes


def test_compute_iob_is_additive():
    h = history(
        "p",
        [
            rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, bolus=4.0),
            rec("2016-01-01", "09:00:00", MealSlot.AfterBreakfast, bg=6.0, bolus=2.0),
            rec("2016-01-01", "10:00:00", MealSlot.BeforeLunch, bg=6.0, bolus=0.0),
        ],
    )
    expected = 4.0 * iob_fraction(120.0) + 2.0 * iob_fraction(60.0)
    assert compute_iob(h, 2) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# feature rows
# ---------------------------------------------------------------------------

def _four_records():
    return history(
        "p",
        [
            rec("2016-01-04", "08:00:00", MealSlot.BeforeBreakfast,
                bg=10.0, cho=20.0, bolus=2.0, basal=0.0, ev=ExerciseLevel.Normal),
            rec("2016-01-04", "10:00:00", MealSlot.AfterBreakfast,
                bg=12.0, cho=0.0, bolus=0.0, basal=0.0, ev=ExerciseLevel.Normal),
            rec("2016-01-04", "12:00:00", MealSlot.BeforeLunch,
                bg=6.0, cho=30.0, bolus=3.0, basal=0.0, ev=ExerciseLevel.Normal),
            rec("2016-01-04", "14:00:00", MealSlot.AfterLunch,
                bg=7.5, cho=0.0, bolus=0.0, basal=0.0, ev=ExerciseLevel.Normal),
        ],
    )


def test_build_feature_rows_emits_n_minus_1_rows():
    h = _four_records()
    rows = build_feature_rows(h, FeatureConfig())
    assert len(rows) == 3
    assert build_feature_rows(history("p", h.records[:1]), FeatureConfig()) == []
    two = build_feature_rows(history("p", h.records[:2]), FeatureConfig())
    assert len(two) == 1


def test_feature_rows_reference_strictly_earlier_events():
    rows = build_feature_rows(_four_records(), FeatureConfig())
    # row 1: previous event is record 0
    assert rows[1].cho_prev == 20.0
    assert rows[1].bolus_prev == 2.0
    assert rows[1].bg_at_cho == 10.0
    assert rows[1].dt_cho == pytest.approx(120.0)
    # row 2 sits on a record with its own carbs; they must not self-reference
    assert rows[2].cho_prev == 20.0
    assert rows[2].dt_cho == pytest.approx(240.0)
    assert rows[2].dt_cho > 0 and rows[2].dt_bolus > 0


def test_feature_rows_same_event_for_cho_and_bolus():
    rows = build_feature_rows(_four_records(), FeatureConfig())
    assert rows[1].dt_cho == rows[1].dt_bolus
    assert rows[1].bg_at_cho == rows[1].bg_at_bolus


def test_feature_rows_targets_and_horizon():
    rows = build_feature_rows(_four_records(), FeatureConfig())
    assert rows[0].target_bg == 12.0
    assert rows[0].horizon_dt == pytest.approx(120.0)
    assert rows[2].target_bg == 7.5
    assert [r.meal for r in rows] == [
        MealSlot.BeforeBreakfast, MealSlot.AfterBreakfast, MealSlot.BeforeLunch,
    ]


def test_feature_rows_iob_matches_compute_iob():
    h = _four_records()
    rows = build_feature_rows(h, FeatureConfig())
    for i, row in enumerate(rows):
        assert row.iob == pytest.approx(compute_iob(h, i))


@settings(max_examples=150, deadline=None)
@given(history_steps)
def test_feature_rows_and_iob_equal_the_per_record_oracle(steps):
    h = timed_history(steps)
    cfg = FeatureConfig(dow_mode=DowMode.OneHot, include_static=True)
    rows = build_feature_rows(h, cfg)
    expected = feature_oracle.build_feature_rows(h, cfg)
    assert rows == expected
    v = Vectorizer(cfg)
    assert v.matrix(rows).tobytes() == v.matrix(expected).tobytes()
    for i in range(len(h)):
        assert np.float64(compute_iob(h, i)).tobytes() == \
            np.float64(feature_oracle.compute_iob(h, i)).tobytes()


def test_iob_counts_a_bolus_exactly_five_hours_back():
    # 8.0 units 300 minutes back still count, also from a record sharing
    # the timestamp; 5.0 units 360 minutes back do not
    h = history(
        "p",
        [
            rec("2016-01-01", "02:00:00", MealSlot.DuringNight, bg=6.0, bolus=5.0),
            rec("2016-01-01", "02:59:00", MealSlot.DuringNight, bg=6.0, bolus=0.0),
            rec("2016-01-01", "03:00:00", MealSlot.BeforeBreakfast, bg=6.0, bolus=8.0),
            rec("2016-01-01", "08:00:00", MealSlot.AfterBreakfast, bg=6.0, bolus=0.0),
            rec("2016-01-01", "08:00:00", MealSlot.BeforeLunch, bg=6.0, bolus=0.0),
        ],
    )
    assert compute_iob(h, 3) == 8.0 * iob_fraction(300.0)
    assert compute_iob(h, 4) == 8.0 * iob_fraction(300.0)


# ---------------------------------------------------------------------------
# day-of-week encodings
# ---------------------------------------------------------------------------

def test_encode_dow_integer_known_wednesday():
    # 2015-11-25 is a Wednesday on the civil calendar
    assert dt.date(2015, 11, 25).strftime("%A") == "Wednesday"
    assert encode_dow(dt.date(2015, 11, 25), DowMode.Integer) == (2.0,)


def test_encode_dow_omit_is_empty():
    assert encode_dow(dt.date(2015, 11, 25), DowMode.Omit) == ()


@given(st.dates(min_value=dt.date(2000, 1, 1), max_value=dt.date(2030, 1, 1)))
def test_encode_dow_onehot_sums_to_one(date):
    vec = encode_dow(date, DowMode.OneHot)
    assert len(vec) == 7
    assert sum(vec) == 1.0
    assert set(vec) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# log target
# ---------------------------------------------------------------------------

def test_log_target_round_trips():
    assert to_log_target(1.0) == 0.0
    assert from_log(to_log_target(1.0)) == 1.0
    assert from_log(to_log_target(8.4)) == pytest.approx(8.4, abs=1e-12)


def test_log_target_rejects_below_one():
    with pytest.raises(ValueError):
        to_log_target(0.5)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_from_log_always_positive(r):
    assert from_log(r) > 0.0


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def test_pca_components_are_orthonormal():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 6))
    model = pca_fit(x, components=4)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(4), atol=1e-9)


def test_pca_matches_svd_oracle_up_to_sign():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 5))
    model = pca_fit(x, components=4)
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)  # independent route
    for ours, oracle in zip(model.components, vt[:4]):
        assert abs(float(ours @ oracle)) == pytest.approx(1.0, abs=1e-8)


def test_pca_preserves_distances_for_low_rank_data():
    rng = np.random.default_rng(2)
    basis = rng.normal(size=(4, 7))
    coords = rng.normal(size=(20, 4))
    x = coords @ basis
    model = pca_fit(x, components=4)
    proj = pca_apply(model, x)
    for i in range(0, 20, 5):
        for j in range(20):
            orig = np.linalg.norm(x[i] - x[j])
            low = np.linalg.norm(proj[i] - proj[j])
            assert low == pytest.approx(orig, abs=1e-9)


def test_pca_pads_rank_deficient_data():
    x = np.zeros((10, 5))
    x[:, 0] = np.arange(10.0)
    model = pca_fit(x, components=4)
    assert model.rank_deficient
    assert np.allclose(model.components[1:], 0.0)


def test_pca_reconstruction_error_non_increasing():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 6)) @ np.diag([3.0, 2.5, 2.0, 1.0, 0.5, 0.1])
    errors = []
    for k in range(1, 5):
        model = pca_fit(x, components=k)
        proj = pca_apply(model, x)
        recon = proj @ model.components + model.mean
        errors.append(float(np.sum((x - recon) ** 2)))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


def test_pca_rejects_too_small_input():
    with pytest.raises(ValueError):
        pca_fit(np.zeros((3, 6)), components=4)


# ---------------------------------------------------------------------------
# vectorizer
# ---------------------------------------------------------------------------

def test_vectorizer_dow_modes_change_width():
    rows = build_feature_rows(_four_records(), FeatureConfig())
    base = Vectorizer(FeatureConfig(dow_mode=DowMode.Omit)).matrix(rows).shape[1]
    integer = Vectorizer(FeatureConfig(dow_mode=DowMode.Integer)).matrix(rows).shape[1]
    onehot = Vectorizer(FeatureConfig(dow_mode=DowMode.OneHot)).matrix(rows).shape[1]
    assert integer == base + 1
    assert onehot == base + 7


def test_vectorizer_matches_column_names():
    cfg = FeatureConfig(dow_mode=DowMode.OneHot, include_basal=False, include_static=True)
    v = Vectorizer(cfg)
    rows = build_feature_rows(_four_records(), cfg)
    assert v.matrix(rows).shape[1] == len(v.column_names())
