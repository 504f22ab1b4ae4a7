"""Each benchmark check passes on real output and fails on a corrupted copy.

    python3 -m pytest bench/test_checks.py -q

Builds one small results directory through the real CLI (a few
seconds), then corrupts copies of it one way at a time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("D_e6", "D_a6")
MODELS = ("naive", "ridge")
K, MIN_RECORDS, SEED = 10, 20, 7


def _glybench(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "glybench.cli", *args], check=True,
                   env=env, cwd=ROOT, stdout=subprocess.DEVNULL)


@pytest.fixture(scope="module")
def clean_outputs(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("outputs")
    (base / "synth.json").write_text(json.dumps(
        {"preset": "default", "patients": 3, "days": 30}))
    _glybench("synth", "--config", str(base / "synth.json"), "--seed", str(SEED),
              "--out", str(base / "cohort.csv"))
    _glybench("run", "--input", str(base / "cohort.csv"), "--out",
              str(base / "results"), "--variants", ",".join(VARIANTS),
              "--models", ",".join(MODELS), "--k", str(K),
              "--min-records", str(MIN_RECORDS), "--seed", str(SEED))
    (base / "inspect").mkdir()
    _glybench("inspect", "--input", str(base / "cohort.csv"), "--out",
              str(base / "inspect"))
    _glybench("report", str(base / "results"), "--out", str(base / "summary.csv"))
    return base


@pytest.fixture
def outputs(clean_outputs, tmp_path) -> Path:
    copy = tmp_path / "outputs"
    shutil.copytree(clean_outputs, copy)
    return copy


def _all_checks(base: Path) -> list[checks.Error]:
    return checks.check_outputs(
        str(base / "results"), str(base / "summary.csv"), str(base / "cohort.csv"),
        VARIANTS, MODELS, K, MIN_RECORDS)


def _edit(path: Path, line_no: int, edit) -> None:
    """Replace line ``line_no`` of a CSV by ``edit(fields)``, or drop it."""
    lines = path.read_text().splitlines()
    fields = lines[line_no].split(",")
    new = edit(fields)
    if new is None:
        del lines[line_no]
    else:
        lines[line_no] = ",".join(new)
    path.write_text("\n".join(lines) + "\n")


def _line_of(path: Path, *prefix: str) -> int:
    for i, line in enumerate(path.read_text().splitlines()):
        if line.split(",")[:len(prefix)] == list(prefix):
            return i
    raise AssertionError(f"no line {prefix} in {path}")


def _bump(fields: list[str], column: int, delta: float) -> list[str]:
    fields[column] = repr(float(fields[column]) + delta)
    return fields


def test_clean_outputs_pass(clean_outputs):
    assert _all_checks(clean_outputs) == []
    counts = checks.cleaned_counts(str(clean_outputs / "cohort.csv"))
    assert checks.check_ep_counts(str(clean_outputs / "inspect" / "ep_counts.csv"),
                                  counts, "inspect") == []


def test_oracle_catches_perturbed_naive_loss(outputs):
    long_csv = outputs / "results" / "results_long.csv"
    _edit(long_csv, _line_of(long_csv, "naive", "D_a6", "L1"),
          lambda f: _bump(f, 4, 1e-6))
    errors = checks.check_naive_oracle(str(outputs / "results"),
                                       str(outputs / "cohort.csv"), K, MIN_RECORDS)
    assert errors and all(op == "cell:D_a6/naive" for op, _ in errors)


def test_oracle_catches_dropped_patient_row(outputs):
    long_csv = outputs / "results" / "results_long.csv"
    _edit(long_csv, _line_of(long_csv, "naive", "D_a6", "RMSE"), lambda f: None)
    assert checks.check_naive_oracle(str(outputs / "results"),
                                     str(outputs / "cohort.csv"), K, MIN_RECORDS)


def test_oracle_catches_wrong_cleaning(outputs):
    cohort = outputs / "cohort.csv"
    _edit(cohort, 5, lambda f: f[:4] + ["0.5"] + f[5:])   # clamps to 1, not 0.5
    errors = checks.check_naive_oracle(str(outputs / "results"), str(cohort),
                                       K, MIN_RECORDS)
    assert errors


@pytest.mark.parametrize("table", ["wide_L1.csv", "improvement_gRMSE.csv"])
def test_tables_catch_one_perturbed_cell(outputs, table):
    path = outputs / "results" / table
    _edit(path, _line_of(path, "D_e6"), lambda f: _bump(f, 2, 1e-7))
    errors = checks.check_tables(str(outputs / "results"), VARIANTS, MODELS)
    assert [op for op, _ in errors] == ["cell:D_e6/ridge"]


def test_tables_catch_dropped_patient_row(outputs):
    long_csv = outputs / "results" / "results_long.csv"
    _edit(long_csv, _line_of(long_csv, "ridge", "D_e6", "rL1"), lambda f: None)
    errors = checks.check_tables(str(outputs / "results"), VARIANTS, MODELS)
    assert "cell:D_e6/ridge" in {op for op, _ in errors}


def test_tables_catch_missing_cell(outputs):
    path = outputs / "results" / "wide_RMSE.csv"
    _edit(path, _line_of(path, "D_a6"), lambda f: f[:2] + [""])
    errors = checks.check_tables(str(outputs / "results"), VARIANTS, MODELS)
    assert [op for op, _ in errors] == ["cell:D_a6/ridge"]


@pytest.mark.parametrize("column", [1, 2, 3])
def test_summary_catches_perturbed_value(outputs, column):
    path = outputs / "summary.csv"
    _edit(path, _line_of(path, "gMAD"), lambda f: _bump(f, column, 1e-7))
    errors = checks.check_summary(str(outputs / "results"), str(path))
    assert [op for op, _ in errors] == ["report"]


def test_summary_catches_wrong_winner(outputs):
    path = outputs / "summary.csv"
    _edit(path, _line_of(path, "L1"),
          lambda f: f[:5] + ["D_e6" if f[5] == "D_a6" else "D_a6"])
    assert checks.check_summary(str(outputs / "results"), str(path))


def test_losses_catch_weighted_below_plain(outputs):
    long_csv = outputs / "results" / "results_long.csv"
    plain = float(long_csv.read_text().splitlines()[
        _line_of(long_csv, "ridge", "D_a6", "RMSE")].split(",")[4])
    _edit(long_csv, _line_of(long_csv, "ridge", "D_a6", "gRMSE"),
          lambda f: f[:4] + [repr(plain * (1 - 1e-12))])
    errors = checks.check_losses(str(outputs / "results"))
    assert [op for op, _ in errors] == ["cell:D_a6/ridge"]


@pytest.mark.parametrize("bad", ["nan", "inf", "0.0", "-1.0"])
def test_losses_catch_non_positive_or_non_finite(outputs, bad):
    long_csv = outputs / "results" / "results_long.csv"
    _edit(long_csv, _line_of(long_csv, "naive", "D_e6", "L1"),
          lambda f: f[:4] + [bad])
    errors = checks.check_losses(str(outputs / "results"))
    assert "cell:D_e6/naive" in {op for op, _ in errors}


@pytest.mark.parametrize("edit", [
    lambda f: [f[0], f[1], str(int(f[1]) + 1)],   # ep_count above total
    lambda f: [f[0], str(int(f[1]) - 1), f[2]],   # total off the cleaned count
    lambda f: None,                                # patient missing
])
def test_ep_counts_catch_corruption(outputs, edit):
    path = outputs / "inspect" / "ep_counts.csv"
    _edit(path, 1, edit)
    counts = checks.cleaned_counts(str(outputs / "cohort.csv"))
    assert checks.check_ep_counts(str(path), counts, "inspect")


def test_determinism_catches_changed_byte(clean_outputs, outputs):
    before = checks.tree_hashes(str(clean_outputs / "results"))
    path = outputs / "results" / "run_meta.json"
    path.write_text(path.read_text() + " ")
    after = checks.tree_hashes(str(outputs / "results"))
    errors = checks.check_same_files(before, after, "run", "rerun")
    assert errors == [("run", "rerun: run_meta.json differs")]


def test_missing_table_fails_its_operation(outputs):
    (outputs / "results" / "improvement_L1.csv").unlink()
    ops = {op for op, _ in _all_checks(outputs)}
    assert ops == {"run"}
