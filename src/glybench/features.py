"""Feature engineering: insulin-on-board, row assembly, encodings, PCA.

Feature rows pair consecutive diary records: the features describe the
state at record i, the target is the glucose reading at record i+1.
Insulin on board decays along a monotone cubic through published
(elapsed time, fraction remaining) points and is summed over every bolus
in the trailing five hours.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .records import FeatureRow, PatientHistory

# (elapsed hours, fraction of injected insulin still active)
IOB_KNOTS: tuple[tuple[float, float], ...] = (
    (0.0, 1.00),
    (1.66, 0.78),
    (2.50, 0.48),
    (3.33, 0.27),
    (4.15, 0.12),
    (5.00, 0.03),
)

IOB_WINDOW_MINUTES = 300.0


def _pchip_edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end derivative, limited to preserve shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(
    x: np.ndarray, y: np.ndarray
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Per-interval cubic coefficients (highest power first) of the
    shape-preserving piecewise cubic Hermite interpolant (Fritsch and
    Carlson 1980, with Moler's end conditions).

    The arithmetic follows ``scipy.interpolate.PchipInterpolator`` step
    by step, so the curve is bit-identical to scipy's.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    # interior derivatives: weighted harmonic mean of the adjacent slopes,
    # or zero at a local extremum or flat segment
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_edge_slope(h[-1], h[-2], m[-1], m[-2])
    # cubic Hermite segment in powers of (t - x[i])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c3 = t / h
    c2 = (m - d[:-1]) / h - t
    return c3.tolist(), c2.tolist(), d[:-1].tolist(), y[:-1].tolist()


_IOB_X = [k[0] for k in IOB_KNOTS]
_IOB_COEFFS = _pchip_coefficients(
    np.array(_IOB_X), np.array([k[1] for k in IOB_KNOTS])
)


def _iob_curve(hours: float) -> float:
    # interval i holds x[i] <= hours < x[i + 1]; the last one is closed
    i = min(max(bisect.bisect_right(_IOB_X, hours) - 1, 0), len(_IOB_X) - 2)
    s = hours - _IOB_X[i]
    # summed by ascending power, in the order scipy's PPoly evaluates
    res = 0.0
    z = 1.0
    for c in reversed(_IOB_COEFFS):
        res = res + c[i] * z
        z *= s
    return res


def iob_fraction(elapsed_minutes: float) -> float:
    """Fraction of a bolus still active ``elapsed_minutes`` after injection.

    Interpolates the decay knots with a shape-preserving cubic (so the
    curve is monotone non-increasing and cannot overshoot) and clamps to
    zero beyond the five-hour window.
    """
    if elapsed_minutes < 0:
        raise ValueError(f"elapsed_minutes must be >= 0, got {elapsed_minutes}")
    if elapsed_minutes > IOB_WINDOW_MINUTES:
        return 0.0
    return _iob_curve(elapsed_minutes / 60.0)


def compute_iob(h: PatientHistory, i: int) -> float:
    """Units of insulin still active at record ``i`` from earlier boluses.

    Contributions are additive over all strictly-earlier records with a
    positive bolus inside the trailing five-hour window; the record's own
    bolus does not count.
    """
    t_i = h.records[i].timestamp()
    total = 0.0
    for j in range(i - 1, -1, -1):
        r = h.records[j]
        elapsed = (t_i - r.timestamp()).total_seconds() / 60.0
        if elapsed > IOB_WINDOW_MINUTES:
            break
        if r.bolus is not None and r.bolus > 0:
            total += r.bolus * iob_fraction(elapsed)
    return total


class DowMode(Enum):
    Omit = "Omit"
    Integer = "Integer"
    OneHot = "OneHot"


def encode_dow(date: dt.date, mode: DowMode) -> tuple[float, ...]:
    """Day-of-week feature values: none, one integer (Monday=0), or a one-hot 7-vector."""
    if mode is DowMode.Omit:
        return ()
    wd = date.weekday()
    if mode is DowMode.Integer:
        return (float(wd),)
    onehot = [0.0] * 7
    onehot[wd] = 1.0
    return tuple(onehot)


def to_log_target(bg: float) -> float:
    """Log-space target; cleaning guarantees bg >= 1 so this never fires."""
    if bg < 1.0:
        raise ValueError(f"bg must be >= 1.0 mmol/L, got {bg}")
    return math.log(bg)


def from_log(pred: float) -> float:
    return math.exp(pred)


@dataclass(frozen=True)
class PcaConfig:
    components: int = 4


@dataclass(frozen=True)
class FeatureConfig:
    """Which optional features a dataset variant carries."""

    dow_mode: DowMode = DowMode.Integer
    include_basal: bool = True
    include_static: bool = False
    pca: Optional[PcaConfig] = None
    static_defaults: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)


def static_tuple(
    h: PatientHistory, defaults: tuple[float, float, float, float]
) -> tuple[float, float, float, float]:
    """(age, sex01, height, weight) with missing entries from cohort defaults."""
    s = h.static
    if s is None:
        return defaults
    sex01 = defaults[1]
    if s.sex is not None:
        sex01 = 1.0 if s.sex.upper().startswith("M") else 0.0
    return (
        float(s.age) if s.age is not None else defaults[0],
        sex01,
        float(s.height) if s.height is not None else defaults[2],
        float(s.weight) if s.weight is not None else defaults[3],
    )


def cohort_static_defaults(
    cohort: Sequence[PatientHistory],
) -> tuple[float, float, float, float]:
    """Cohort means of the static fields, for filling gaps (e.g. missing height)."""
    cols: list[list[float]] = [[], [], [], []]
    for h in cohort:
        s = h.static
        if s is None:
            continue
        if s.age is not None:
            cols[0].append(float(s.age))
        if s.sex is not None:
            cols[1].append(1.0 if s.sex.upper().startswith("M") else 0.0)
        if s.height is not None:
            cols[2].append(float(s.height))
        if s.weight is not None:
            cols[3].append(float(s.weight))
    return tuple(sum(c) / len(c) if c else 0.0 for c in cols)  # type: ignore[return-value]


def build_feature_rows(h: PatientHistory, cfg: FeatureConfig) -> list[FeatureRow]:
    """One row per consecutive record pair of a cleaned, imputed history.

    Fewer than two records yields an empty list. The previous-event
    features look strictly backward: a record's own carbs or bolus never
    reference themselves, so the elapsed-time features stay positive.
    """
    records = h.records
    n = len(records)
    if n < 2:
        return []
    static = static_tuple(h, cfg.static_defaults) if cfg.include_static else None

    rows: list[FeatureRow] = []
    last_cho: Optional[int] = None    # index of last record with positive cho
    last_bolus: Optional[int] = None
    for i in range(n - 1):
        r, nxt = records[i], records[i + 1]
        t_i = r.timestamp()
        horizon = (nxt.timestamp() - t_i).total_seconds() / 60.0

        if last_cho is not None:
            ev_rec = records[last_cho]
            cho_prev = float(ev_rec.cho)  # type: ignore[arg-type]
            bg_at_cho = float(ev_rec.bg)  # type: ignore[arg-type]
            dt_cho = (t_i - ev_rec.timestamp()).total_seconds() / 60.0
        else:
            # no event on file yet: zero amount, "long ago" elapsed time
            cho_prev, bg_at_cho, dt_cho = 0.0, float(r.bg), IOB_WINDOW_MINUTES  # type: ignore[arg-type]
        if last_bolus is not None:
            ev_rec = records[last_bolus]
            bolus_prev = float(ev_rec.bolus)  # type: ignore[arg-type]
            bg_at_bolus = float(ev_rec.bg)  # type: ignore[arg-type]
            dt_bolus = (t_i - ev_rec.timestamp()).total_seconds() / 60.0
        else:
            bolus_prev, bg_at_bolus, dt_bolus = 0.0, float(r.bg), IOB_WINDOW_MINUTES  # type: ignore[arg-type]

        rows.append(
            FeatureRow(
                meal=r.meal,
                dow=r.date.weekday(),  # type: ignore[union-attr]
                ev=float(r.ev.numeric_value if r.ev is not None else 4),
                pv=float(r.pv),
                basal=float(r.basal if r.basal is not None else 0.0),
                bg=float(r.bg),  # type: ignore[arg-type]
                iob=compute_iob(h, i),
                cho_prev=cho_prev,
                bolus_prev=bolus_prev,
                bg_at_cho=bg_at_cho,
                bg_at_bolus=bg_at_bolus,
                dt_cho=dt_cho,
                dt_bolus=dt_bolus,
                horizon_dt=horizon,
                target_bg=float(nxt.bg),  # type: ignore[arg-type]
                static=static,
            )
        )
        if r.cho is not None and r.cho > 0:
            last_cho = i
        if r.bolus is not None and r.bolus > 0:
            last_bolus = i
    return rows


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray   # (k, n_features) rows are eigenvectors
    rank_deficient: bool


def pca_fit(rows: np.ndarray, components: int = 4) -> PcaModel:
    """Top eigenvectors of the column-centered covariance.

    Requires at least ``components + 1`` rows and ``components`` columns.
    If the data has lower rank, the missing directions are padded with
    zero vectors and the model is flagged.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[0] < components + 1 or x.shape[1] < components:
        raise ValueError(
            f"need >= {components + 1} rows and >= {components} columns, got {x.shape}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    tol = max(eigvals[0], 0.0) * 1e-12 if eigvals.size else 0.0
    keep = min(components, int(np.sum(eigvals > tol)))
    comps = np.zeros((components, x.shape[1]))
    comps[:keep] = eigvecs[:, :keep].T
    return PcaModel(mean=mean, components=comps, rank_deficient=keep < components)


def pca_apply(model: PcaModel, row: np.ndarray) -> np.ndarray:
    """Project one centered row (or a matrix of rows) onto the components."""
    x = np.asarray(row, dtype=float)
    return (x - model.mean) @ model.components.T


# ---------------------------------------------------------------------------
# Design-matrix vectorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Design:
    """Feature rows as one numeric block, the unit every model fits and predicts.

    ``x`` holds the raw (unstandardized) feature values in the
    :class:`Vectorizer` column layout, plus any appended stacked column;
    ``target_bg`` the mmol/L targets; ``index`` each row's position in
    the patient's row sequence. Indexing with row positions selects rows.
    """

    x: np.ndarray
    target_bg: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows) -> "Design":
        return Design(self.x[rows], self.target_bg[rows], self.index[rows])

    @property
    def meal(self) -> np.ndarray:
        """Meal-slot ordinals: the Vectorizer's first column."""
        return self.x[:, 0]


class Vectorizer:
    """Maps feature rows to the numeric design matrix a model consumes.

    Column layout: meal ordinal, day-of-week per mode, exercise, pump
    rate, basal (when included), glucose, insulin on board, previous
    carbs/bolus with their glucose-at and minutes-since values, the
    prediction horizon, then optional static columns.
    """

    def __init__(self, cfg: FeatureConfig):
        self.cfg = cfg

    def column_names(self) -> list[str]:
        names = ["meal"]
        if self.cfg.dow_mode is DowMode.Integer:
            names.append("dow")
        elif self.cfg.dow_mode is DowMode.OneHot:
            names.extend(f"dow_{d}" for d in range(7))
        names.extend(["ev", "pv"])
        if self.cfg.include_basal:
            names.append("basal")
        names.extend(
            ["bg", "iob", "cho_prev", "bolus_prev", "bg_at_cho",
             "bg_at_bolus", "dt_cho", "dt_bolus", "horizon_dt"]
        )
        if self.cfg.include_static:
            names.extend(["age", "sex", "height", "weight"])
        return names

    def vector(self, row: FeatureRow) -> np.ndarray:
        values: list[float] = [float(row.meal.value)]
        if self.cfg.dow_mode is not DowMode.Omit:
            wd = row.dow
            if self.cfg.dow_mode is DowMode.Integer:
                values.append(float(wd))
            else:
                values.extend(1.0 if d == wd else 0.0 for d in range(7))
        values.extend([row.ev, row.pv])
        if self.cfg.include_basal:
            values.append(row.basal)
        values.extend(
            [row.bg, row.iob, row.cho_prev, row.bolus_prev, row.bg_at_cho,
             row.bg_at_bolus, row.dt_cho, row.dt_bolus, row.horizon_dt]
        )
        if self.cfg.include_static:
            values.extend(row.static if row.static is not None else self.cfg.static_defaults)
        return np.array(values, dtype=float)

    def matrix(self, rows: Sequence[FeatureRow]) -> np.ndarray:
        if not rows:
            return np.empty((0, len(self.column_names())))
        return np.vstack([self.vector(r) for r in rows])

    def design(self, rows: Sequence[FeatureRow]) -> Design:
        """The rows' design matrix, targets and positions 0..n-1."""
        return Design(
            self.matrix(rows),
            np.array([r.target_bg for r in rows], dtype=float),
            np.arange(len(rows)),
        )
