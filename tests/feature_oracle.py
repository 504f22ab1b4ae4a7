"""Reference feature rows: one scalar pass per record.

This is the straightforward per-record loop that the array routine in
``glybench.features`` (``event_columns``, behind ``build_feature_rows``,
``compute_iob`` and the fold-local ``rebuild_rows``) must reproduce bit
for bit. Elapsed times come from ``timedelta.total_seconds()``, and
insulin on board is summed bolus by bolus, most recent first.
"""

from __future__ import annotations

from typing import Optional, Sequence

from glybench.features import (
    IOB_WINDOW_MINUTES,
    Design,
    FeatureConfig,
    Vectorizer,
    iob_fraction,
    static_tuple,
)
from glybench.records import FeatureRow, PatientHistory
from glybench.variants import PreparedPatient, fill_mean_gaps


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
    static = static_tuple(h, cfg.static_defaults) if cfg.include_static else None

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


def rebuild_rows(
    prepared: PreparedPatient, cfg: FeatureConfig, visible_records: Sequence[int]
) -> Design:
    """The fold's design re-derived record by record: fill the gaps with
    means of the visible records, rebuild every row, keep ``row_starts``."""
    rows = build_feature_rows(fill_mean_gaps(prepared.base, visible_records), cfg)
    return Vectorizer(cfg).design([rows[i] for i in prepared.row_starts])
