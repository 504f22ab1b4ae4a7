"""Diary CSV parsing and cleaning.

Cleaning drops records with no glucose reading or no date, and clamps
readings below 1 mmol/L up to 1 (meters are unreliable down there).
:func:`clean` works on records; :func:`clean_cohort` then lays each
cleaned patient out as one ``features.RecordArrays``, which every later
stage reads, and so refuses a kept record without a time. The
missing-value policies are applied by ``glybench.variants``.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

from .features import RecordArrays
from .records import (
    DIARY_CSV_HEADER,
    DiaryRecord,
    PatientHistory,
    SchemaError,
    parse_record,
)


class MissingPolicy(Enum):
    Throwout = "Throwout"
    ImputeMean = "ImputeMean"
    ImputeZero = "ImputeZero"


@dataclass(frozen=True)
class CleaningReport:
    dropped_missing_bg: int = 0
    dropped_missing_date: int = 0
    clamped_low_bg: int = 0

    def csv_row(self, patient_id: str) -> str:
        return (
            f"{patient_id},{self.dropped_missing_bg},"
            f"{self.dropped_missing_date},{self.clamped_low_bg}"
        )


CLEANING_CSV_HEADER = "patient_id,dropped_missing_bg,dropped_missing_date,clamped_low_bg"


def parse_diary_csv(text: str) -> dict[str, PatientHistory]:
    """Parse raw diary CSV into per-patient histories sorted by timestamp.

    Raises :class:`SchemaError` naming line number and column on any
    malformed row. Records lacking a date sort first for their patient
    (cleaning removes them anyway).
    """
    lines = text.splitlines()
    if not lines:
        return {}
    if lines[0].strip() != DIARY_CSV_HEADER:
        raise SchemaError(1, "header", f"unexpected header {lines[0]!r}")
    grouped: dict[str, list[DiaryRecord]] = {}
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        pid, record = parse_record(n, line)
        grouped.setdefault(pid, []).append(record)

    def sort_key(r: DiaryRecord) -> dt.datetime:
        t = r.time if r.time is not None else dt.time(0, 0)
        return dt.datetime.combine(r.date, t)

    out: dict[str, PatientHistory] = {}
    for pid, records in grouped.items():
        with_ts = [r for r in records if r.date is not None]
        without_ts = [r for r in records if r.date is None]
        with_ts.sort(key=sort_key)
        out[pid] = PatientHistory(pid, tuple(without_ts + with_ts))
    return out


def clean(h: PatientHistory) -> tuple[PatientHistory, CleaningReport]:
    """Drop unlabeled records and clamp implausibly low glucose readings."""
    kept: list[DiaryRecord] = []
    dropped_bg = dropped_date = clamped = 0
    for r in h.records:
        if r.bg is None:
            dropped_bg += 1
            continue
        if r.date is None:
            dropped_date += 1
            continue
        if r.bg < 1.0:
            r = replace(r, bg=1.0)
            clamped += 1
        kept.append(r)
    report = CleaningReport(dropped_bg, dropped_date, clamped)
    return PatientHistory(h.patient_id, tuple(kept), h.static), report


def clean_cohort(
    cohort: Mapping[str, PatientHistory]
) -> tuple[dict[str, RecordArrays], dict[str, CleaningReport]]:
    """Clean every patient; returns (each cleaned history laid out as
    ``RecordArrays``, per-patient reports).

    Raises ``ValueError`` naming the first kept record without a time.
    """
    cleaned: dict[str, RecordArrays] = {}
    reports: dict[str, CleaningReport] = {}
    for pid in sorted(cohort):
        h, reports[pid] = clean(cohort[pid])
        cleaned[pid] = RecordArrays.of(h)
    return cleaned, reports


def cleaning_csv(reports: Mapping[str, CleaningReport]) -> str:
    lines = [CLEANING_CSV_HEADER]
    for pid in sorted(reports):
        lines.append(reports[pid].csv_row(pid))
    return "\n".join(lines) + "\n"
