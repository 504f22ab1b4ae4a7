"""Seeded synthetic diary cohorts for desk-scale benchmarking.

Glucose follows a per-patient AR(1) process around a patient mean plus a
meal-slot offset, so the two knobs that matter are the slot offsets
(structure a model can learn) and the innovation noise (structure it
cannot). The ``high_signal`` preset makes slot identity strongly
predictive; the ``zero_signal`` preset is the degenerate constant
process, on which no model can beat the mean-predicting baseline.

Each patient draws from an independent generator keyed by (seed,
patient index), so cohorts are reproducible record-for-record and
patients can be generated in any order.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .records import DiaryRecord, ExerciseLevel, MealSlot, PatientHistory, StaticInfo

DEFAULT_SCHEDULE: tuple[tuple[MealSlot, dt.time], ...] = (
    (MealSlot.BeforeBreakfast, dt.time(7, 30)),
    (MealSlot.AfterBreakfast, dt.time(9, 30)),
    (MealSlot.BeforeLunch, dt.time(12, 0)),
    (MealSlot.AfterLunch, dt.time(14, 0)),
    (MealSlot.BeforeSupper, dt.time(17, 30)),
    (MealSlot.AfterSupper, dt.time(19, 30)),
)

# carbohydrate grams eaten at each "before" slot (mean, sd)
_CHO_BY_SLOT: dict[MealSlot, tuple[float, float]] = {
    MealSlot.BeforeBreakfast: (40.0, 8.0),
    MealSlot.BeforeLunch: (50.0, 10.0),
    MealSlot.BeforeSupper: (60.0, 12.0),
}

_EV_CHOICES = (
    ExerciseLevel.LessThanNormal,
    ExerciseLevel.Normal,
    ExerciseLevel.Active,
    ExerciseLevel.VeryActive,
)
_EV_PROBS = (0.10, 0.70, 0.15, 0.05)


@dataclass(frozen=True)
class BgModel:
    mu: float = 8.0
    mu_spread: float = 1.2       # sd of the per-patient mean around mu
    phi: float = 0.0             # AR(1) coefficient, in [0, 1)
    sigma: float = 0.0           # innovation noise, mmol/L
    slot_offsets: Mapping[str, float] = field(default_factory=dict)

    def offset(self, slot: MealSlot) -> float:
        return float(self.slot_offsets.get(slot.name, 0.0))


@dataclass(frozen=True)
class SynthConfig:
    patients: int = 5
    days: int = 40
    schedule: tuple[tuple[MealSlot, dt.time], ...] = DEFAULT_SCHEDULE
    bg_model: BgModel = field(default_factory=BgModel)
    missingness: Mapping[str, float] = field(default_factory=dict)
    pump_fraction: float = 0.4
    jitter_minutes: float = 10.0
    start_date: dt.date = dt.date(2016, 3, 7)
    seed: int = 0

    def rate(self, name: str) -> float:
        return float(self.missingness.get(name, 0.0))


def zero_signal_config(patients: int = 5, days: int = 40, seed: int = 0) -> SynthConfig:
    """Constant glucose per patient: nothing to learn, baseline is optimal."""
    return SynthConfig(
        patients=patients,
        days=days,
        bg_model=BgModel(mu=8.0, mu_spread=1.2, phi=0.0, sigma=0.0),
        missingness={},
        seed=seed,
    )


def high_signal_config(patients: int = 5, days: int = 40, seed: int = 0) -> SynthConfig:
    """Strong meal-slot structure with mild noise: models should beat naive."""
    offsets = {
        MealSlot.BeforeBreakfast.name: -2.0,
        MealSlot.AfterBreakfast.name: 3.0,
        MealSlot.BeforeLunch.name: -2.0,
        MealSlot.AfterLunch.name: 2.5,
        MealSlot.BeforeSupper.name: -1.5,
        MealSlot.AfterSupper.name: 2.0,
    }
    return SynthConfig(
        patients=patients,
        days=days,
        bg_model=BgModel(mu=8.0, mu_spread=1.0, phi=0.5, sigma=0.4,
                         slot_offsets=offsets),
        missingness={},
        seed=seed,
    )


def default_config(patients: int = 5, days: int = 40, seed: int = 0) -> SynthConfig:
    """Realistically messy middle ground with moderate signal and gaps."""
    offsets = {
        MealSlot.BeforeBreakfast.name: -1.0,
        MealSlot.AfterBreakfast.name: 1.5,
        MealSlot.BeforeLunch.name: -1.0,
        MealSlot.AfterLunch.name: 1.2,
        MealSlot.BeforeSupper.name: -0.8,
        MealSlot.AfterSupper.name: 1.0,
    }
    return SynthConfig(
        patients=patients,
        days=days,
        bg_model=BgModel(mu=8.0, mu_spread=1.2, phi=0.4, sigma=1.2,
                         slot_offsets=offsets),
        missingness={"record": 0.05, "bg": 0.02, "cho": 0.05, "bolus": 0.05,
                     "basal": 0.30, "ev": 0.50},
        pump_fraction=0.4,
        seed=seed,
    )


PRESETS = {
    "default": default_config,
    "zero_signal": zero_signal_config,
    "high_signal": high_signal_config,
}


def _maybe_missing(value, rate: float, rng: np.random.Generator):
    if rate > 0.0 and rng.random() < rate:
        return None
    return value


def _generate_patient(cfg: SynthConfig, index: int) -> PatientHistory:
    rng = np.random.default_rng([cfg.seed, index])
    bg_model = cfg.bg_model
    pump = bool(rng.random() < cfg.pump_fraction)
    pv = float(np.round(rng.uniform(0.4, 1.0), 2)) if pump else 0.0
    mu = max(2.0, bg_model.mu + bg_model.mu_spread * float(rng.standard_normal()))
    static = StaticInfo(
        age=float(np.round(rng.uniform(20, 70), 1)),
        sex="M" if rng.random() < 0.3 else "F",
        height=None if rng.random() < 0.15 else float(np.round(rng.uniform(155, 185), 1)),
        weight=float(np.round(rng.uniform(55, 95), 1)),
    )

    deviation = 0.0
    records: list[DiaryRecord] = []
    for day in range(cfg.days):
        date = cfg.start_date + dt.timedelta(days=day)
        for slot, nominal in cfg.schedule:
            deviation = bg_model.phi * deviation + bg_model.sigma * float(
                rng.standard_normal()
            )
            jitter = float(np.clip(rng.normal(0.0, cfg.jitter_minutes), -30.0, 30.0))
            if rng.random() < cfg.rate("record"):
                continue  # meal not logged at all
            minute = nominal.hour * 60 + nominal.minute + jitter
            time = dt.time(int(minute // 60), int(minute % 60), int(rng.integers(0, 60)))
            bg = max(1.0, mu + bg_model.offset(slot) + deviation)

            if slot in _CHO_BY_SLOT:
                mean, sd = _CHO_BY_SLOT[slot]
                cho = max(0.0, float(np.round(rng.normal(mean, sd), 1)))
            else:
                cho = 0.0
            bolus = (
                max(0.0, float(np.round(cho / 8.0 + rng.normal(0.0, 0.5), 2)))
                if cho > 0
                else 0.0
            )
            basal = (
                float(np.round(rng.normal(20.0, 2.0), 1))
                if (not pump and slot is MealSlot.BeforeBreakfast)
                else 0.0
            )
            ev = _EV_CHOICES[int(rng.choice(len(_EV_CHOICES), p=_EV_PROBS))]

            records.append(
                DiaryRecord(
                    meal=slot,
                    date=date,
                    time=time,
                    bg=_maybe_missing(float(np.round(bg, 1)), cfg.rate("bg"), rng),
                    cho=_maybe_missing(cho, cfg.rate("cho"), rng),
                    bolus=_maybe_missing(bolus, cfg.rate("bolus"), rng),
                    basal=_maybe_missing(basal, cfg.rate("basal"), rng),
                    ev=_maybe_missing(ev, cfg.rate("ev"), rng),
                    pv=pv,
                )
            )
    return PatientHistory(f"P{index + 1:02d}", tuple(records), static)


def generate(cfg: SynthConfig) -> dict[str, PatientHistory]:
    """Deterministic cohort: same config (and seed) gives identical records."""
    cohort = {}
    for index in range(cfg.patients):
        h = _generate_patient(cfg, index)
        cohort[h.patient_id] = h
    return cohort


# ---------------------------------------------------------------------------
# JSON configuration (CLI surface)
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "synth config": ("preset", "patients", "days", "seed", "pump_fraction",
                     "jitter_minutes", "start_date", "missingness", "bg_model"),
    "missingness": ("record", "bg", "cho", "bolus", "basal", "ev"),
    "bg_model": ("mu", "mu_spread", "phi", "sigma", "slot_offsets"),
    "bg_model.slot_offsets": tuple(slot.name for slot in MealSlot),
}


def _object(value, path: str) -> dict:
    """``value`` if it is a JSON object with only the keys known at ``path``."""
    if not isinstance(value, dict):
        raise ValueError(f"{path} must be a JSON object, got {value!r}")
    known = _CONFIG_KEYS[path]
    for key in value:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {path}; known keys: {', '.join(known)}")
    return value


def _number(value, name: str, low: float = -math.inf, high: float = math.inf,
            integer: bool = False):
    """``value`` if it is a JSON number (an integer if asked) in [low, high]."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not math.isfinite(value) or not low <= value <= high):
        need = "an integer" if integer else "a number"
        if low > -math.inf:
            need += f" >= {low:g}" if high == math.inf else f" in [{low:g}, {high:g}]"
        raise ValueError(f"synth config key '{name}' must be {need}, got {value!r}")
    return value if integer else float(value)


def config_from_json(text: str) -> SynthConfig:
    """Build a config from a JSON document.

    ``{"preset": "high_signal", "patients": 5, "days": 30, "seed": 7}``
    starts from a preset; any of patients/days/seed/pump_fraction/
    jitter_minutes/start_date/missingness/bg_model fields override it.
    An unknown key, a value of the wrong type, or a count, seed, rate or
    fraction out of range raises ``ValueError`` naming the key.
    """
    data = _object(json.loads(text), "synth config")
    preset = data.get("preset", "default")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[preset](
        patients=_number(data.get("patients", 5), "patients", low=1, integer=True),
        days=_number(data.get("days", 40), "days", low=1, integer=True),
        seed=_number(data.get("seed", 0), "seed", low=0, integer=True),
    )
    for key, high in (("pump_fraction", 1), ("jitter_minutes", math.inf)):
        if key in data:
            cfg = replace(cfg, **{key: _number(data[key], key, 0, high)})
    if "start_date" in data:
        try:
            cfg = replace(cfg, start_date=dt.date.fromisoformat(data["start_date"]))
        except (TypeError, ValueError):
            raise ValueError(f"synth config key 'start_date' must be an ISO date string, "
                             f"got {data['start_date']!r}") from None
    if "missingness" in data:
        rates = _object(data["missingness"], "missingness")
        cfg = replace(cfg, missingness={k: _number(v, f"missingness.{k}", 0, 1)
                                        for k, v in rates.items()})
    if "bg_model" in data:
        bm = _object(data["bg_model"], "bg_model")
        fields = {k: _number(v, f"bg_model.{k}") for k, v in bm.items() if k != "slot_offsets"}
        if "slot_offsets" in bm:
            offsets = _object(bm["slot_offsets"], "bg_model.slot_offsets")
            fields["slot_offsets"] = {k: _number(v, f"bg_model.slot_offsets.{k}")
                                      for k, v in offsets.items()}
        cfg = replace(cfg, bg_model=replace(cfg.bg_model, **fields))
    return cfg
