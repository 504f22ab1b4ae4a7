from __future__ import annotations

import datetime as dt
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glybench.features import (
    DowMode,
    FeatureConfig,
    IOB_KNOTS,
    PCA_COMPONENTS,
    RecordArrays,
    Vectorizer,
    build_feature_rows,
    cohort_static_defaults,
    event_columns,
    from_log,
    iob_fraction,
    pca_apply,
    pca_fit,
    static_tuple,
    to_log_target,
)
from glybench.records import ExerciseLevel, MealSlot, StaticInfo

import feature_oracle
from conftest import history, history_steps, rec, timed_history


def iob_of(h) -> np.ndarray:
    """Insulin on board at every record of ``h``, from the feature columns."""
    a = RecordArrays.of(h)
    return event_columns(a, a.cho, a.bolus)["iob"]


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
    assert iob_of(single_day)[1] == pytest.approx(7.90, abs=0.10)


def test_compute_iob_no_prior_bolus(single_day):
    assert iob_of(single_day)[0] == 0.0


def test_compute_iob_ignores_boluses_older_than_window():
    h = history(
        "p",
        [
            rec("2016-01-01", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0, bolus=8.0),
            rec("2016-01-01", "14:30:00", MealSlot.AfterLunch, bg=6.0, bolus=0.0),
        ],
    )
    assert iob_of(h)[1] == 0.0  # 390 minutes


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
    assert iob_of(h)[2] == pytest.approx(expected, abs=1e-12)


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


def design_of(h, cfg):
    """The design of a history's consecutive record pairs."""
    return build_feature_rows(RecordArrays.of(h), cfg)


def col(design, cfg, name):
    """One named column of a design built under ``cfg``."""
    return design.x[:, Vectorizer(cfg).column_names().index(name)]


def test_build_feature_rows_emits_n_minus_1_rows():
    h = _four_records()
    cfg = FeatureConfig()
    design = design_of(h, cfg)
    assert len(design) == 3
    assert design.x.shape == (3, len(Vectorizer(cfg).column_names()))
    one = design_of(history("p", h.records[:1]), cfg)
    assert len(one) == 0 and one.x.shape == (0, design.x.shape[1])
    assert len(design_of(history("p", h.records[:2]), cfg)) == 1


def test_feature_rows_reference_strictly_earlier_events():
    cfg = FeatureConfig()
    design = design_of(_four_records(), cfg)
    # row 1: previous event is record 0
    assert col(design, cfg, "cho_prev")[1] == 20.0
    assert col(design, cfg, "bolus_prev")[1] == 2.0
    assert col(design, cfg, "bg_at_cho")[1] == 10.0
    assert col(design, cfg, "dt_cho")[1] == pytest.approx(120.0)
    # row 2 sits on a record with its own carbs; they must not self-reference
    assert col(design, cfg, "cho_prev")[2] == 20.0
    assert col(design, cfg, "dt_cho")[2] == pytest.approx(240.0)
    assert col(design, cfg, "dt_cho")[2] > 0 and col(design, cfg, "dt_bolus")[2] > 0


def test_feature_rows_same_event_for_cho_and_bolus():
    cfg = FeatureConfig()
    design = design_of(_four_records(), cfg)
    assert col(design, cfg, "dt_cho")[1] == col(design, cfg, "dt_bolus")[1]
    assert col(design, cfg, "bg_at_cho")[1] == col(design, cfg, "bg_at_bolus")[1]


def test_feature_rows_targets_and_horizon():
    cfg = FeatureConfig()
    design = design_of(_four_records(), cfg)
    assert design.target_bg[0] == 12.0
    assert col(design, cfg, "horizon_dt")[0] == pytest.approx(120.0)
    assert design.target_bg[2] == 7.5
    assert design.meal.tolist() == [
        MealSlot.BeforeBreakfast.value, MealSlot.AfterBreakfast.value,
        MealSlot.BeforeLunch.value,
    ]


def test_feature_rows_iob_matches_compute_iob():
    h = _four_records()
    cfg = FeatureConfig()
    iob = col(design_of(h, cfg), cfg, "iob")
    assert len(iob) == len(h) - 1
    for i, value in enumerate(iob):
        assert value == pytest.approx(iob_of(h)[i])


def test_missing_exercise_and_basal_read_as_normal_and_zero():
    cfg = FeatureConfig()
    design = design_of(history("p", [
        rec("2016-01-04", "08:00:00", MealSlot.BeforeBreakfast, bg=6.0),
        rec("2016-01-04", "10:00:00", MealSlot.AfterBreakfast, bg=7.0),
    ]), cfg)
    assert col(design, cfg, "ev").tolist() == [4.0]
    assert col(design, cfg, "basal").tolist() == [0.0]


CONFIGS = [
    FeatureConfig(dow_mode=mode, include_basal=basal, include_static=static,
                  static_defaults=(40.0, 0.5, 170.0, 70.0))
    for mode in DowMode for basal in (True, False) for static in (True, False)
]


@settings(max_examples=150, deadline=None)
@given(history_steps, st.sampled_from(CONFIGS),
       st.sampled_from([None, StaticInfo(age=31.0, sex="M", height=None, weight=80.5)]))
def test_feature_rows_and_iob_equal_the_per_record_oracle(steps, cfg, static):
    h = timed_history(steps)
    h = history(h.patient_id, h.records, static)
    got = design_of(h, cfg)
    want = feature_oracle.design(feature_oracle.build_feature_rows(h, cfg), cfg)
    assert got.x.tobytes() == want.x.tobytes()
    assert got.target_bg.tobytes() == want.target_bg.tobytes()
    assert np.array_equal(got.index, want.index)
    iob = iob_of(h)
    for i in range(len(h)):
        assert np.float64(iob[i]).tobytes() == \
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
    assert iob_of(h)[3] == 8.0 * iob_fraction(300.0)
    assert iob_of(h)[4] == 8.0 * iob_fraction(300.0)


# ---------------------------------------------------------------------------
# day-of-week encodings
# ---------------------------------------------------------------------------

def _day_pair(date: dt.date):
    """Two records on ``date``: one design row whose weekday is the date's."""
    return history("p", [
        rec(date.isoformat(), "08:00:00", MealSlot.BeforeBreakfast, bg=6.0),
        rec(date.isoformat(), "10:00:00", MealSlot.AfterBreakfast, bg=7.0),
    ])


def test_dow_integer_column_known_wednesday():
    # 2015-11-25 is a Wednesday on the civil calendar
    assert dt.date(2015, 11, 25).strftime("%A") == "Wednesday"
    cfg = FeatureConfig(dow_mode=DowMode.Integer)
    assert col(design_of(_day_pair(dt.date(2015, 11, 25)), cfg), cfg, "dow")[0] == 2.0


def test_dow_omit_has_no_dow_column():
    names = Vectorizer(FeatureConfig(dow_mode=DowMode.Omit)).column_names()
    assert not [n for n in names if n.startswith("dow")]


@given(st.dates(min_value=dt.date(2000, 1, 1), max_value=dt.date(2030, 1, 1)))
def test_dow_onehot_columns_sum_to_one(date):
    cfg = FeatureConfig(dow_mode=DowMode.OneHot)
    design = design_of(_day_pair(date), cfg)
    vec = [col(design, cfg, f"dow_{d}")[0] for d in range(7)]
    assert sum(vec) == 1.0
    assert set(vec) <= {0.0, 1.0}
    assert vec[date.weekday()] == 1.0


# the weekday is derived from the date ordinal as (ordinal + 6) % 7
@given(st.dates())
@example(dt.date.min)
@example(dt.date.max)
def test_dow_columns_equal_the_weekday_on_every_date(date):
    integer = FeatureConfig(dow_mode=DowMode.Integer)
    assert col(design_of(_day_pair(date), integer), integer, "dow")[0] == date.weekday()
    onehot = FeatureConfig(dow_mode=DowMode.OneHot)
    design = design_of(_day_pair(date), onehot)
    assert [col(design, onehot, f"dow_{d}")[0] for d in range(7)] == [
        float(d == date.weekday()) for d in range(7)]


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


def test_from_log_past_the_float_range_is_inf():
    assert from_log(709.0) == math.exp(709.0)
    assert from_log(710.0) == from_log(1e300) == math.inf


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def test_pca_components_are_orthonormal():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 6))
    model = pca_fit(x, components=4)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(4), atol=1e-9)
    # the paper's width is the default
    assert PCA_COMPONENTS == 4
    assert pca_fit(x).components.tobytes() == model.components.tobytes()


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
    def width(mode):
        return design_of(_four_records(), FeatureConfig(dow_mode=mode)).x.shape[1]

    assert width(DowMode.Integer) == width(DowMode.Omit) + 1
    assert width(DowMode.OneHot) == width(DowMode.Omit) + 7


def test_vectorizer_matches_column_names():
    cfg = FeatureConfig(dow_mode=DowMode.OneHot, include_basal=False, include_static=True)
    v = Vectorizer(cfg)
    assert design_of(_four_records(), cfg).x.shape[1] == len(v.column_names())


def test_static_defaults_are_cohort_means_and_fill_missing_fields():
    cohort = [
        history("a", [], StaticInfo(age=30, sex="m", height=None, weight=70)),
        history("b", [], StaticInfo(age=None, sex="Female", height=181.5, weight=None)),
        history("c", [], None),
        history("d", [], StaticInfo(age=41, sex=None, height=170, weight=80)),
    ]
    defaults = cohort_static_defaults([RecordArrays.of(h) for h in cohort])
    assert defaults == (35.5, 0.5, 175.75, 75.0)
    assert cohort_static_defaults([RecordArrays.of(history("e", []))]) == (0.0, 0.0, 0.0, 0.0)
    assert static_tuple(None, defaults) == defaults
    assert static_tuple(StaticInfo(sex="Male", height=160), defaults) == (35.5, 1.0, 160.0, 75.0)
    assert static_tuple(cohort[1].static, defaults) == (35.5, 0.0, 181.5, 75.0)
