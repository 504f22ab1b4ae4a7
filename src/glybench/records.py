"""Domain vocabulary for diabetes-diary modeling.

Everything downstream (cleaning, feature engineering, models, evaluation)
speaks in terms of these types: raw diary records and patient
histories. All types are immutable values and safe to share
between concurrent tasks.

Missing values are represented by ``None``, never by a sentinel number,
so imputation policies remain auditable. Blood glucose is stored in
mmol/L throughout; only report layers may convert to mg/dl
(multiply by :data:`MGDL_PER_MMOLL`).
"""

from __future__ import annotations

import datetime as dt
import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

MGDL_PER_MMOLL = 18.016

DIARY_CSV_HEADER = "patient_id,meal,date,time,bg,cho,bolus,basal,ev,pv"


class MealSlot(Enum):
    """The eight diary meal slots, in daily order."""

    BeforeBreakfast = 0
    AfterBreakfast = 1
    BeforeLunch = 2
    AfterLunch = 3
    BeforeSupper = 4
    AfterSupper = 5
    BeforeBed = 6
    DuringNight = 7

    def __lt__(self, other: "MealSlot") -> bool:
        if not isinstance(other, MealSlot):
            return NotImplemented
        return self.value < other.value


class ExerciseLevel(Enum):
    """Anticipated exercise, with its numeric encoding for learners."""

    LessThanNormal = 2
    Normal = 4
    Active = 7
    VeryActive = 10

    @property
    def numeric_value(self) -> int:
        return self.value


@dataclass(frozen=True)
class DiaryRecord:
    """One raw diabetes-diary entry.

    ``None`` marks a missing field. ``pv`` (pump infusion rate, units/hour)
    is always present and 0 for non-pump patients.
    """

    meal: MealSlot
    date: Optional[dt.date]
    time: Optional[dt.time]
    bg: Optional[float] = None        # mmol/L
    cho: Optional[float] = None       # grams
    bolus: Optional[float] = None     # units
    basal: Optional[float] = None     # units
    ev: Optional[ExerciseLevel] = None
    pv: float = 0.0                   # units/hour

    def timestamp(self) -> dt.datetime:
        if self.date is None or self.time is None:
            raise ValueError("record has no timestamp")
        return dt.datetime.combine(self.date, self.time)


@dataclass(frozen=True)
class StaticInfo:
    """Non-temporal patient characteristics."""

    age: Optional[float] = None       # years
    sex: Optional[str] = None         # "F" or "M"
    height: Optional[float] = None    # cm
    weight: Optional[float] = None    # kg


@dataclass(frozen=True)
class PatientHistory:
    """A patient's time-ordered diary records plus optional static info."""

    patient_id: str
    records: tuple[DiaryRecord, ...]
    static: Optional[StaticInfo] = None

    def __len__(self) -> int:
        return len(self.records)


def validate_history(h: PatientHistory) -> list[str]:
    """Check the post-cleaning invariants; returns one descriptor per violation.

    Never raises: an empty list means the history is valid.
    """
    problems: list[str] = []
    for i, r in enumerate(h.records):
        if r.date is None or r.time is None:
            problems.append(f"missing timestamp @{i}")
        if r.bg is None:
            problems.append(f"bg missing @{i}")
        elif r.bg < 1.0:
            problems.append(f"bg<1.0 @{i}")
        for name in ("cho", "bolus", "basal"):
            v = getattr(r, name)
            if v is not None and v < 0:
                problems.append(f"{name}<0 @{i}")
        if r.pv < 0:
            problems.append(f"pv<0 @{i}")
    for i in range(1, len(h.records)):
        a, b = h.records[i - 1], h.records[i]
        if a.date is None or b.date is None or a.time is None or b.time is None:
            continue
        if a.timestamp() > b.timestamp():
            problems.append(f"order @({i - 1},{i})")
    if h.static is not None:
        for name in ("age", "height", "weight"):
            v = getattr(h.static, name)
            if v is not None and v <= 0:
                problems.append(f"static.{name}<=0")
    return problems


# ---------------------------------------------------------------------------
# Canonical CSV forms
# ---------------------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _fmt_time(t: Optional[dt.time]) -> str:
    return "" if t is None else t.strftime("%H:%M:%S")


def encode_record(patient_id: str, r: DiaryRecord) -> str:
    """One canonical CSV line for a diary record (no trailing newline)."""
    return ",".join(
        [
            patient_id,
            r.meal.name,
            "" if r.date is None else r.date.isoformat(),
            _fmt_time(r.time),
            _fmt(r.bg),
            _fmt(r.cho),
            _fmt(r.bolus),
            _fmt(r.basal),
            "" if r.ev is None else r.ev.name,
            _fmt(r.pv),
        ]
    )


def encode_diary_csv(cohort: Mapping[str, PatientHistory]) -> str:
    """Serialize a cohort to the canonical raw-diary CSV form."""
    out = io.StringIO()
    out.write(DIARY_CSV_HEADER + "\n")
    for pid in sorted(cohort):
        for r in cohort[pid].records:
            out.write(encode_record(pid, r) + "\n")
    return out.getvalue()


class SchemaError(ValueError):
    """A CSV row violated the diary schema; carries line and column."""

    def __init__(self, line: int, column: str, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column '{column}': {message}")


def _parse_float(text: str, line: int, column: str,
                 minimum: Optional[float] = None) -> Optional[float]:
    if text == "":
        return None
    try:
        v = float(text)
    except ValueError:
        raise SchemaError(line, column, f"not a number: {text!r}") from None
    # float() takes "nan", "inf" and overflows such as "1e400" to inf
    if not math.isfinite(v):
        raise SchemaError(line, column, f"not a finite number: {text!r}")
    if minimum is not None and v < minimum:
        raise SchemaError(line, column, f"value {v} below {minimum}")
    return v


def parse_record(line_no: int, line: str) -> tuple[str, DiaryRecord]:
    """Parse one CSV data line into (patient_id, DiaryRecord)."""
    parts = line.split(",")
    if len(parts) != 10:
        raise SchemaError(line_no, "row", f"expected 10 fields, got {len(parts)}")
    pid, meal_s, date_s, time_s, bg_s, cho_s, bolus_s, basal_s, ev_s, pv_s = parts
    if pid == "":
        raise SchemaError(line_no, "patient_id", "empty")
    try:
        meal = MealSlot[meal_s]
    except KeyError:
        raise SchemaError(line_no, "meal", f"unknown meal slot {meal_s!r}") from None
    date = None
    if date_s:
        try:
            date = dt.date.fromisoformat(date_s)
        except ValueError:
            raise SchemaError(line_no, "date", f"bad date {date_s!r}") from None
    time = None
    if time_s:
        try:
            time = dt.time.fromisoformat(time_s)
        except ValueError:
            raise SchemaError(line_no, "time", f"bad time {time_s!r}") from None
        if time.tzinfo is not None:
            # a time with an offset does not compare with one without
            raise SchemaError(line_no, "time", f"time {time_s!r} has a UTC offset; "
                                               f"diary times are local")
    ev = None
    if ev_s:
        try:
            ev = ExerciseLevel[ev_s]
        except KeyError:
            try:
                # by value, so a numeric code must be whole: 4 and 4.0, not 4.5
                ev = ExerciseLevel(float(ev_s))
            except ValueError:
                raise SchemaError(
                    line_no, "ev", f"unknown exercise level {ev_s!r}"
                ) from None
    pv = _parse_float(pv_s, line_no, "pv", minimum=0.0)
    record = DiaryRecord(
        meal=meal,
        date=date,
        time=time,
        bg=_parse_float(bg_s, line_no, "bg", minimum=0.0),
        cho=_parse_float(cho_s, line_no, "cho", minimum=0.0),
        bolus=_parse_float(bolus_s, line_no, "bolus", minimum=0.0),
        basal=_parse_float(basal_s, line_no, "basal", minimum=0.0),
        ev=ev,
        pv=0.0 if pv is None else pv,
    )
    return pid, record
