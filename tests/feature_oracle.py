"""Reference designs: one scalar pass per record, one feature row per pair.

This is the straightforward per-record loop that the array assembly in
``glybench.features.build_feature_rows`` (behind ``prepare_patient``,
the fold-local ``rebuild_rows`` and ``event_columns``'s insulin on board)
must reproduce bit for bit. Elapsed times come from
``timedelta.total_seconds()``, insulin on board is summed bolus by
bolus, most recent first, gaps are filled record by record, and each
row becomes a matrix row value by value in the ``Vectorizer`` column
layout. The variant's records are copied one by one from the cleaned
history with its missing-value policies applied (the reference for the
throwout and zero-fill masks over ``RecordArrays`` in
``glybench.variants``), and the gap means are summed record by record
(the reference for its ``np.bincount`` fills). Tests that want a design
from hand-written rows build it here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from glybench.features import (
    IOB_WINDOW_MINUTES,
    Design,
    DowMode,
    FeatureConfig,
    Vectorizer,
    iob_fraction,
    static_tuple,
)
from glybench.ingest import MissingPolicy
from glybench.records import DiaryRecord, ExerciseLevel, MealSlot, PatientHistory
from glybench.variants import VariantSpec

import ep_oracle


@dataclass(frozen=True)
class FeatureRow:
    """One prediction instance: the state at one record and, as
    ``target_bg``, the glucose at the next one, ``horizon_dt`` minutes
    later. ``cho_prev``/``bolus_prev`` reference the most recent strictly
    earlier record with a positive intake/injection, ``bg_at_*`` and
    ``dt_*`` the glucose at and minutes since that event. ``static``
    carries (age, sex01, height, weight) when the variant includes
    patient-specific features."""

    meal: MealSlot
    dow: int                          # 0 = Monday .. 6 = Sunday
    ev: float
    pv: float
    basal: float
    bg: float
    iob: float
    cho_prev: float
    bolus_prev: float
    bg_at_cho: float
    bg_at_bolus: float
    dt_cho: float                     # minutes
    dt_bolus: float                   # minutes
    horizon_dt: float                 # minutes until the target record
    target_bg: float                  # mmol/L
    static: Optional[tuple[float, float, float, float]] = None


def row_values(row: FeatureRow, cfg: FeatureConfig) -> list[float]:
    """One matrix row in the ``Vectorizer`` column layout."""
    values: list[float] = [float(row.meal.value)]
    if cfg.dow_mode is DowMode.Integer:
        values.append(float(row.dow))
    elif cfg.dow_mode is DowMode.OneHot:
        values.extend(1.0 if d == row.dow else 0.0 for d in range(7))
    values.extend([row.ev, row.pv])
    if cfg.include_basal:
        values.append(row.basal)
    values.extend(
        [row.bg, row.iob, row.cho_prev, row.bolus_prev, row.bg_at_cho,
         row.bg_at_bolus, row.dt_cho, row.dt_bolus, row.horizon_dt]
    )
    if cfg.include_static:
        values.extend(row.static if row.static is not None else cfg.static_defaults)
    return values


def design(rows: Sequence[FeatureRow], cfg: FeatureConfig) -> Design:
    """The rows' design matrix, targets and positions 0..n-1."""
    width = len(Vectorizer(cfg).column_names())
    x = np.array([row_values(r, cfg) for r in rows], dtype=float).reshape(-1, width)
    return Design(x, np.array([r.target_bg for r in rows], dtype=float),
                  np.arange(len(rows)))


def compute_iob(h: PatientHistory, i: int) -> float:
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


def build_feature_rows(h: PatientHistory, cfg: FeatureConfig) -> list[FeatureRow]:
    records = h.records
    n = len(records)
    if n < 2:
        return []
    static = static_tuple(h.static, cfg.static_defaults) if cfg.include_static else None

    rows: list[FeatureRow] = []
    last_cho: Optional[int] = None
    last_bolus: Optional[int] = None
    for i in range(n - 1):
        r, nxt = records[i], records[i + 1]
        t_i = r.timestamp()
        horizon = (nxt.timestamp() - t_i).total_seconds() / 60.0

        if last_cho is not None:
            ev_rec = records[last_cho]
            cho_prev = float(ev_rec.cho)
            bg_at_cho = float(ev_rec.bg)
            dt_cho = (t_i - ev_rec.timestamp()).total_seconds() / 60.0
        else:
            cho_prev, bg_at_cho, dt_cho = 0.0, float(r.bg), IOB_WINDOW_MINUTES
        if last_bolus is not None:
            ev_rec = records[last_bolus]
            bolus_prev = float(ev_rec.bolus)
            bg_at_bolus = float(ev_rec.bg)
            dt_bolus = (t_i - ev_rec.timestamp()).total_seconds() / 60.0
        else:
            bolus_prev, bg_at_bolus, dt_bolus = 0.0, float(r.bg), IOB_WINDOW_MINUTES

        rows.append(
            FeatureRow(
                meal=r.meal,
                dow=r.date.weekday(),
                ev=float(r.ev.numeric_value if r.ev is not None else 4),
                pv=float(r.pv),
                basal=float(r.basal if r.basal is not None else 0.0),
                bg=float(r.bg),
                iob=compute_iob(h, i),
                cho_prev=cho_prev,
                bolus_prev=bolus_prev,
                bg_at_cho=bg_at_cho,
                bg_at_bolus=bg_at_bolus,
                dt_cho=dt_cho,
                dt_bolus=dt_bolus,
                horizon_dt=horizon,
                target_bg=float(nxt.bg),
                static=static,
            )
        )
        if r.cho is not None and r.cho > 0:
            last_cho = i
        if r.bolus is not None and r.bolus > 0:
            last_bolus = i
    return rows


def _slot_means(records: Sequence[DiaryRecord], field: str) -> dict[MealSlot, float]:
    sums: dict[MealSlot, float] = {}
    counts: dict[MealSlot, int] = {}
    for r in records:
        v = getattr(r, field)
        if v is not None:
            sums[r.meal] = sums.get(r.meal, 0.0) + v
            counts[r.meal] = counts.get(r.meal, 0) + 1
    return {slot: sums[slot] / counts[slot] for slot in sums}


def _overall_mean(records: Sequence[DiaryRecord], field: str) -> Optional[float]:
    values = [getattr(r, field) for r in records if getattr(r, field) is not None]
    if not values:
        return None
    return sum(values) / len(values)


def field_means(
    records: Sequence[DiaryRecord], field: str
) -> tuple[dict[MealSlot, float], Optional[float]]:
    """Per-meal-slot and overall means of the present values of a field,
    summed record by record in order."""
    return _slot_means(records, field), _overall_mean(records, field)


def slot_fills(source: Sequence[DiaryRecord], name: str) -> dict[MealSlot, float]:
    """The value a gap in field ``name`` takes in each meal slot: the
    slot's mean over ``source``, else the overall mean, else 0."""
    slot_means, overall = field_means(source, name)
    fallback = overall if overall is not None else 0.0
    return {slot: slot_means.get(slot, fallback) for slot in MealSlot}


def base_records(h: PatientHistory, spec: VariantSpec) -> PatientHistory:
    """The variant's records copied one by one: throwout, the exercise
    and basal defaults and zero fills applied; mean-policy gaps stay None."""
    kept: list[DiaryRecord] = []
    for r in h.records:
        if r.cho is None and spec.cho is MissingPolicy.Throwout:
            continue
        if r.bolus is None and spec.bolus is MissingPolicy.Throwout:
            continue
        cho = r.cho
        if cho is None and spec.cho is MissingPolicy.ImputeZero:
            cho = 0.0
        bolus = r.bolus
        if bolus is None and spec.bolus is MissingPolicy.ImputeZero:
            bolus = 0.0
        kept.append(
            replace(
                r,
                cho=cho,
                bolus=bolus,
                ev=r.ev if r.ev is not None else ExerciseLevel.Normal,
                basal=r.basal if r.basal is not None else 0.0,
            )
        )
    return PatientHistory(h.patient_id, tuple(kept), h.static)


def row_starts(base: PatientHistory, spec: VariantSpec) -> list[int]:
    """The records that start the variant's rows: every record but the
    last, or with the EP filter those whose next record is predictable."""
    starts = range(len(base) - 1)
    if not spec.ep_rules:
        return list(starts)
    return [t for t in starts if ep_oracle.is_expert_predictable(base, t + 1).predictable]


def fill_mean_gaps(
    base: PatientHistory, visible: Optional[Sequence[int]] = None
) -> PatientHistory:
    """Fill remaining missing carbs/bolus with per-slot means.

    Means use present values of the records at ``visible`` indices (all
    records when omitted), falling back to the patient-wide mean, then 0.
    """
    records = base.records
    source = records if visible is None else [records[i] for i in visible]
    cho = slot_fills(source, "cho")
    bolus = slot_fills(source, "bolus")
    filled = tuple(
        replace(
            r,
            cho=r.cho if r.cho is not None else cho[r.meal],
            bolus=r.bolus if r.bolus is not None else bolus[r.meal],
        )
        for r in records
    )
    return PatientHistory(base.patient_id, filled, base.static)


def rebuild_rows(
    h: PatientHistory, spec: VariantSpec, cfg: FeatureConfig,
    visible_records: Optional[Sequence[int]] = None,
) -> Design:
    """A cleaned history's design under a variant, re-derived record by
    record: copy the variant's records, fill their gaps with means of the
    visible ones (all when omitted, as at materialize time), build every
    row and keep those the variant starts rows at."""
    base = base_records(h, spec)
    rows = build_feature_rows(fill_mean_gaps(base, visible_records), cfg)
    return design([rows[i] for i in row_starts(base, spec)], cfg)
