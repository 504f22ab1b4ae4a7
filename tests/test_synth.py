from __future__ import annotations

import math

import numpy as np
import pytest

from glybench.ingest import clean
from glybench.records import encode_diary_csv, validate_history
from glybench.synth import (
    config_from_json,
    default_config,
    generate,
    high_signal_config,
    zero_signal_config,
)


def test_same_seed_is_byte_identical():
    cfg = default_config(patients=4, days=10, seed=21)
    assert encode_diary_csv(generate(cfg)) == encode_diary_csv(generate(cfg))


def test_different_seed_differs():
    a = encode_diary_csv(generate(default_config(patients=2, days=10, seed=1)))
    b = encode_diary_csv(generate(default_config(patients=2, days=10, seed=2)))
    assert a != b


def test_zero_missingness_has_no_gaps():
    cohort = generate(zero_signal_config(patients=3, days=8, seed=5))
    for h in cohort.values():
        for r in h.records:
            assert r.bg is not None and r.cho is not None
            assert r.bolus is not None and r.basal is not None and r.ev is not None


def test_degenerate_process_is_constant_per_patient():
    cohort = generate(zero_signal_config(patients=3, days=8, seed=6))
    for h in cohort.values():
        values = {r.bg for r in h.records}
        assert len(values) == 1
        assert min(values) >= 1.0


def test_record_count_before_missingness():
    cfg = zero_signal_config(patients=2, days=7, seed=3)
    cohort = generate(cfg)
    for h in cohort.values():
        assert len(h.records) == 7 * len(cfg.schedule)


def test_record_count_matches_binomial_over_seeds():
    from dataclasses import replace

    days, rate = 5, 0.2
    totals = 0
    scheduled = 0
    for seed in range(100):
        cfg = replace(
            zero_signal_config(patients=1, days=days, seed=seed),
            missingness={"record": rate},
        )
        cohort = generate(cfg)
        totals += sum(len(h.records) for h in cohort.values())
        scheduled += days * len(cfg.schedule)
    mean = scheduled * (1 - rate)
    sd = math.sqrt(scheduled * rate * (1 - rate))
    assert abs(totals - mean) <= 3 * sd


def test_generated_histories_validate():
    for cfg in (zero_signal_config(2, 6, 1), high_signal_config(2, 6, 1)):
        for h in generate(cfg).values():
            assert validate_history(h) == []


def test_messy_histories_validate_after_cleaning():
    cohort = generate(default_config(patients=2, days=10, seed=13))
    for h in cohort.values():
        assert validate_history(clean(h)[0]) == []


def test_pump_fraction_bounds():
    cohort = generate(default_config(patients=8, days=2, seed=2))
    pvs = {pid: h.records[0].pv for pid, h in cohort.items()}
    assert any(v > 0 for v in pvs.values())
    assert any(v == 0 for v in pvs.values())


def test_high_signal_slots_shift_glucose():
    cohort = generate(high_signal_config(patients=1, days=30, seed=4))
    h = next(iter(cohort.values()))
    by_slot: dict = {}
    for r in h.records:
        by_slot.setdefault(r.meal.name, []).append(r.bg)
    assert np.mean(by_slot["AfterBreakfast"]) > np.mean(by_slot["BeforeBreakfast"]) + 3


def test_config_from_json_overrides():
    cfg = config_from_json(
        '{"preset": "high_signal", "patients": 3, "days": 12, "seed": 9,'
        ' "pump_fraction": 0.0, "bg_model": {"sigma": 0.1}}'
    )
    assert cfg.patients == 3 and cfg.days == 12 and cfg.seed == 9
    assert cfg.pump_fraction == 0.0
    assert cfg.bg_model.sigma == 0.1
    # preset slot offsets survive a partial bg_model override
    assert cfg.bg_model.slot_offsets
    assert cfg.bg_model.slot_offsets["AfterBreakfast"] == 3.0


def test_config_from_json_rejects_unknown_preset():
    with pytest.raises(ValueError):
        config_from_json('{"preset": "nope"}')
