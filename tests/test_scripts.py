"""The demos and the benchmark's probe and traced harness run against the package.

They call the library from outside ``src/``: the demos as a reader
would, ``bench/setup_probe.py`` through ``materialize(...).per_patient``,
``bench/traced.py`` through the names it wraps (``fit(train)``,
``predict(test)``, the three-argument registry factory,
``evaluation.attach_stacked`` and friends). A change to any of those
shows up here rather than in a later benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from glybench.models import builtin_registry

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_there_are_demos():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    done = _run([str(demo)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def _two_patient_cohort(tmp_path) -> Path:
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 2, "days": 20, "seed": 4}')
    cohort = tmp_path / "cohort.csv"
    done = _run(["-m", "glybench.cli", "synth", "--config", str(synth),
                 "--out", str(cohort)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    return cohort


def test_setup_probe_counts_retained_patients_per_variant(tmp_path):
    cohort = _two_patient_cohort(tmp_path)
    done = _run([str(ROOT / "bench" / "setup_probe.py"), str(cohort), "20",
                 "D_a6", "D_e6"], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    assert probe["retained_patients"] == {"D_a6": 2, "D_e6": 2}
    assert Path(probe["glybench_file"]).is_relative_to(ROOT / "src")


def test_traced_harness_runs_a_stacking_model_on_fold_local_rows(tmp_path):
    cohort = _two_patient_cohort(tmp_path)

    done = _run([str(ROOT / "bench" / "traced.py"), "run", "--input", str(cohort),
                 "--out", str(tmp_path / "results"), "--variants", "D_a6",
                 "--models", "naive,gpr_AllPat_AllMeals", "--k", "5",
                 "--min-records", "20", "--seed", "4", "--jobs", "1"], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])
    assert metrics["models.fits"] > 0
    assert metrics["models.predictions"] > 0
    assert metrics["variants.rebuild_rows_calls"] > 0  # fold-local means
    assert metrics["models.stacking.rows_attached"] > 0
    assert metrics["features.rows_vectorized"] > 0
    assert (tmp_path / "results" / "results_long.csv").exists()


def test_traced_harness_writes_the_untraced_run_for_every_registry_model(tmp_path):
    cohort = _two_patient_cohort(tmp_path)
    args = ["run", "--input", str(cohort), "--variants", "D_a12,D_e6",
            "--models", ",".join(builtin_registry()), "--k", "5",
            "--min-records", "20", "--seed", "4", "--jobs", "1"]
    traced, plain = tmp_path / "traced", tmp_path / "plain"
    done = _run([str(ROOT / "bench" / "traced.py"), *args, "--out", str(traced)],
                cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])
    assert all(metrics[f"models.{name}.fit_s"] > 0 for name in builtin_registry())
    done = _run(["-m", "glybench.cli", *args, "--out", str(plain)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in traced.iterdir()) == names
    assert "results_long.csv" in names
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
