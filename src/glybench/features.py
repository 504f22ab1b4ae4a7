"""Feature engineering: insulin-on-board, design assembly, PCA.

A design's rows pair consecutive diary records: the features describe
the state at record i, the target is the glucose reading at record i+1.
Insulin on board decays along a monotone cubic through published
(elapsed time, fraction remaining) points and is summed over every bolus
in the trailing five hours. ``RecordArrays`` lays a cleaned history's
records out as the arrays that every design, row filter and count
works on; cleaning builds one per patient.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from .records import PatientHistory, StaticInfo

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


_IOB_X = np.array([k[0] for k in IOB_KNOTS])
_IOB_COEFFS = [
    np.array(c)
    for c in _pchip_coefficients(_IOB_X, np.array([k[1] for k in IOB_KNOTS]))
]


def _iob_curve(hours: np.ndarray) -> np.ndarray:
    # interval i holds x[i] <= hours < x[i + 1]; the last one is closed
    i = np.clip(np.searchsorted(_IOB_X, hours, side="right") - 1, 0, len(_IOB_X) - 2)
    s = hours - _IOB_X[i]
    # summed by ascending power, in the order scipy's PPoly evaluates
    res = np.zeros_like(s)
    z = np.ones_like(s)
    for c in reversed(_IOB_COEFFS):
        res = res + c[i] * z
        z = z * s
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
    return float(_iob_curve(np.array([elapsed_minutes / 60.0]))[0])


def _minutes(delta_us: np.ndarray) -> np.ndarray:
    # int microseconds / 1e6 / 60.0 rounds as timedelta.total_seconds() / 60.0
    return delta_us / 1e6 / 60.0


_EPOCH = dt.datetime(1970, 1, 1)
_MICROSECOND = dt.timedelta(microseconds=1)


def _iob_window(t_us: np.ndarray) -> np.ndarray:
    """``w[l - 1, i]``: the fraction still active at record ``i`` of a bolus
    given ``l`` records earlier; 0 once the backward scan from ``i`` has
    met a record more than five hours back."""
    n = len(t_us)
    open_scan = np.ones(n, dtype=bool)
    lags: list[np.ndarray] = []
    for lag in range(1, n):
        elapsed = np.zeros(n)
        elapsed[lag:] = _minutes(t_us[lag:] - t_us[:-lag])
        open_scan[:lag] = False
        open_scan &= elapsed <= IOB_WINDOW_MINUTES
        if not open_scan.any():
            break
        if (elapsed[open_scan] < 0).any():
            raise ValueError("record timestamps decrease inside the insulin window")
        frac = np.zeros(n)
        frac[open_scan] = _iob_curve(elapsed[open_scan] / 60.0)
        lags.append(frac)
    return np.array(lags).reshape(len(lags), n)


def _insulin_on_board(a: RecordArrays, bolus: np.ndarray) -> np.ndarray:
    given = np.where(bolus > 0, bolus, 0.0)
    iob = np.zeros(len(given))
    # most recent bolus first, the order the per-record sum runs in
    for lag, frac in enumerate(a.iob_window, start=1):
        iob[lag:] += given[:-lag] * frac[lag:]
    return iob


def _last_event(
    a: RecordArrays, amount: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amount, glucose-at and minutes-since of each record's most recent
    strictly earlier positive amount; (0, own glucose, the IOB window)
    when there is none."""
    n = len(amount)
    positions = np.arange(n)
    last = np.full(n, -1)
    last[1:] = np.maximum.accumulate(np.where(amount > 0, positions, -1)[:-1])
    seen = last >= 0
    j = np.where(seen, last, positions)
    return (
        np.where(seen, amount[j], 0.0),
        a.bg[j],
        np.where(seen, _minutes(a.t_us - a.t_us[j]), IOB_WINDOW_MINUTES),
    )


def event_columns(
    a: RecordArrays, cho: np.ndarray, bolus: np.ndarray
) -> dict[str, np.ndarray]:
    """The feature columns that depend on the carbs and bolus amounts
    (``iob``, ``cho_prev``, ``bolus_prev``, ``bg_at_cho``, ``bg_at_bolus``,
    ``dt_cho``, ``dt_bolus``) of every record, from per-record amounts (a
    non-positive amount is no event).

    Insulin on board sums, over strictly earlier boluses inside the
    trailing five-hour window, each bolus times its remaining fraction;
    the previous-event columns look strictly backward, so a record's own
    carbs or bolus never reference themselves.
    """
    cols = {"iob": _insulin_on_board(a, bolus)}
    for name, amount in (("cho", cho), ("bolus", bolus)):
        cols[f"{name}_prev"], cols[f"bg_at_{name}"], cols[f"dt_{name}"] = (
            _last_event(a, amount)
        )
    return cols


class DowMode(Enum):
    Omit = "Omit"
    Integer = "Integer"
    OneHot = "OneHot"


def to_log_target(bg: float) -> float:
    """Log-space target; cleaning guarantees bg >= 1 so this never fires."""
    if bg < 1.0:
        raise ValueError(f"bg must be >= 1.0 mmol/L, got {bg}")
    return math.log(bg)


def from_log(pred: float) -> float:
    return math.exp(pred)


@dataclass(frozen=True)
class FeatureConfig:
    """Which optional features a dataset variant carries. With ``pca`` a
    model projects its standardized features onto
    :data:`PCA_COMPONENTS` principal components."""

    dow_mode: DowMode = DowMode.Integer
    include_basal: bool = True
    include_static: bool = False
    pca: bool = False
    static_defaults: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)


STATIC_COLUMNS = ("age", "sex", "height", "weight")


def _static_values(s: StaticInfo) -> tuple[Optional[float], ...]:
    """(age, sex01, height, weight), None where missing."""
    sex01 = None if s.sex is None else float(s.sex.upper().startswith("M"))
    return tuple(None if v is None else float(v) for v in (s.age, sex01, s.height, s.weight))


def static_tuple(
    s: Optional[StaticInfo], defaults: tuple[float, float, float, float]
) -> tuple[float, float, float, float]:
    """(age, sex01, height, weight) with missing entries from cohort defaults."""
    if s is None:
        return defaults
    pairs = zip(_static_values(s), defaults)
    return tuple(d if v is None else v for v, d in pairs)  # type: ignore[return-value]


def cohort_static_defaults(
    cohort: Sequence[RecordArrays],
) -> tuple[float, float, float, float]:
    """Cohort means of the static fields, for filling gaps (e.g. missing height)."""
    rows = [_static_values(a.static) for a in cohort if a.static is not None]
    cols = [[row[j] for row in rows if row[j] is not None] for j in range(4)]
    return tuple(sum(c) / len(c) if c else 0.0 for c in cols)  # type: ignore[return-value]


@dataclass(frozen=True, eq=False)
class RecordArrays:
    """A cleaned history's records as arrays, the input
    :func:`build_feature_rows` assembles a design from. Cleaning builds
    one per patient, and every later stage reads it in place of the
    records.

    ``t_us`` holds the record times in integer microseconds (so
    differences are exact) and ``iob_window`` each record's
    insulin-on-board window (see :func:`_iob_window`). ``meal`` holds
    slot ordinals and ``day`` date ordinals; a missing exercise level
    reads 4 (normal) and a missing basal 0. ``cho`` and ``bolus`` hold 0
    at a gap, and ``cho_gap``/``bolus_gap`` mark the gaps. Every variant
    of a patient shares these arrays: its row filters are masks over them
    (see :meth:`rows`), and nothing writes into them.
    """

    t_us: np.ndarray
    bg: np.ndarray
    iob_window: np.ndarray
    meal: np.ndarray
    day: np.ndarray
    ev: np.ndarray
    pv: np.ndarray
    basal: np.ndarray
    cho: np.ndarray
    cho_gap: np.ndarray
    bolus: np.ndarray
    bolus_gap: np.ndarray
    static: Optional[StaticInfo]

    def __len__(self) -> int:
        return len(self.t_us)

    @staticmethod
    def of(h: PatientHistory) -> "RecordArrays":
        """Raises ``ValueError`` naming the patient, meal slot and date of
        a record without a date or a time."""
        records = h.records
        for r in records:
            if r.date is None or r.time is None:
                raise ValueError(f"patient {h.patient_id}: the {r.meal.name} record "
                                 f"dated {r.date} has no timestamp")

        def column(values) -> np.ndarray:
            return np.array(list(values), dtype=float)

        t_us = np.array(
            [(r.timestamp() - _EPOCH) // _MICROSECOND for r in records], dtype=np.int64
        )
        day = [r.date.toordinal() for r in records]  # type: ignore[union-attr]
        return RecordArrays(
            t_us=t_us,
            bg=column(r.bg for r in records),
            iob_window=_iob_window(t_us),
            meal=np.array([r.meal.value for r in records], dtype=np.intp),
            day=np.array(day, dtype=np.int64),
            ev=column(4 if r.ev is None else r.ev.numeric_value for r in records),
            pv=column(r.pv for r in records),
            basal=column(0.0 if r.basal is None else r.basal for r in records),
            cho=column(0.0 if r.cho is None else r.cho for r in records),
            cho_gap=np.array([r.cho is None for r in records], dtype=bool),
            bolus=column(0.0 if r.bolus is None else r.bolus for r in records),
            bolus_gap=np.array([r.bolus is None for r in records], dtype=bool),
            static=h.static,
        )

    def rows(self, keep: np.ndarray) -> "RecordArrays":
        """The records that the boolean mask ``keep`` marks, with the
        insulin-on-board window rebuilt over their times."""
        kept = {f.name: getattr(self, f.name)[keep] for f in fields(self)
                if f.name not in ("iob_window", "static")}
        return RecordArrays(**kept, iob_window=_iob_window(kept["t_us"]),
                            static=self.static)


def build_feature_rows(
    a: RecordArrays,
    cfg: FeatureConfig,
    fills: Optional[tuple[np.ndarray, np.ndarray]] = None,
    row_starts: Optional[Sequence[int]] = None,
    log_target: Optional[np.ndarray] = None,
) -> Design:
    """The design of a history's consecutive record pairs.

    Row ``t`` holds the features of record ``row_starts[t]`` (by default
    every record but the last) and, as its target, the glucose of the
    record after it. ``fills`` gives the carbs and the bolus that a gap
    takes in each meal slot (indexed by slot ordinal); without it a gap
    is no event. The previous-event features look strictly backward: a
    record's own carbs or bolus never reference themselves, so the
    elapsed-time features stay positive. ``log_target``, when given, is
    the targets' logs from an earlier build of the same rows: fills
    change features, never targets.
    """
    n = len(a)
    if row_starts is None:
        row_starts = range(max(n - 1, 0))
    starts = np.array(row_starts, dtype=np.intp)
    cho, bolus = a.cho, a.bolus
    if fills is not None:
        cho = np.where(a.cho_gap, fills[0][a.meal], cho)
        bolus = np.where(a.bolus_gap, fills[1][a.meal], bolus)
    dow = (a.day + 6) % 7  # date.weekday(): ordinal 1 is a Monday
    columns = {
        "meal": a.meal, "dow": dow, "ev": a.ev, "pv": a.pv, "basal": a.basal,
        "bg": a.bg, **event_columns(a, cho, bolus),
        "horizon_dt": _minutes(np.diff(a.t_us)),
    }
    if cfg.dow_mode is DowMode.OneHot:
        columns.update((f"dow_{d}", dow == d) for d in range(7))
    if cfg.include_static:
        static = static_tuple(a.static, cfg.static_defaults)
        columns.update((name, np.full(n, v)) for name, v in zip(STATIC_COLUMNS, static))
    return Design(
        Vectorizer(cfg).matrix(starts, columns),
        a.bg[starts + 1],
        np.arange(len(starts)),
        log_target,
    )


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray   # (k, n_features) rows are eigenvectors
    rank_deficient: bool


PCA_COMPONENTS = 4


def pca_fit(rows: np.ndarray, components: int = PCA_COMPONENTS) -> PcaModel:
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
    the patient's row sequence; ``log_target`` the targets' logs, taken
    with :func:`to_log_target` row by row when not given, so a design
    and its slices and rebuilds take them once. Indexing with row
    positions selects rows. ``shared`` holds parts fitted on this design
    that models may reuse; a new design, sliced or replaced, starts with
    it empty.
    """

    x: np.ndarray
    target_bg: np.ndarray
    index: np.ndarray
    log_target: Optional[np.ndarray] = field(default=None, repr=False)
    shared: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.log_target is None:
            # math.log per row: np.log may differ from it in the last bit
            logs = np.array([to_log_target(v) for v in self.target_bg.tolist()], dtype=float)
            object.__setattr__(self, "log_target", logs)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows) -> "Design":
        return Design(self.x[rows], self.target_bg[rows], self.index[rows],
                      self.log_target[rows])

    @property
    def meal(self) -> np.ndarray:
        """Meal-slot ordinals: the Vectorizer's first column."""
        return self.x[:, 0]


class Vectorizer:
    """Lays per-record feature columns out as the design matrix a model consumes.

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
            names.extend(STATIC_COLUMNS)
        return names

    def matrix(self, rows: np.ndarray, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """The design matrix of the records at positions ``rows``.

        ``columns`` holds one value per record for each of
        :meth:`column_names` (more are ignored).
        """
        names = self.column_names()
        x = np.empty((len(rows), len(names)))
        for j, name in enumerate(names):
            x[:, j] = columns[name][rows]
        return x
