"""The demos, the benchmark's probe and traced harness, and the tools run
against the package.

They call the library from outside ``src/``: the demos as a reader
would, ``bench/setup_probe.py`` through ``materialize(...).per_patient``,
``bench/traced.py`` through the names it wraps (``fit(train)``,
``predict(test)``, the three-argument registry factory,
``evaluation.attach_stacked`` and friends). A change to any of those
shows up here rather than in a later benchmark run.
"""

from __future__ import annotations

import importlib.util
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
    # models that share fitted parts still each fit and predict once per
    # fold through the proxy: one per entry, variant, patient and fold
    lines = (plain / "results_long.csv").read_text().splitlines()[1:]
    evaluated = {tuple(line.split(",")[1:4:2]) for line in lines}  # (variant, patient)
    folds = len(builtin_registry()) * 5 * len(evaluated)
    assert metrics["models.fits"] == metrics["models.predictions"] == folds
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in traced.iterdir()) == names
    assert "results_long.csv" in names
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name


def test_traced_harness_finds_every_name_it_wraps(tmp_path):
    # install() looks each wrapped name up, evaluate in glybench.cli included
    done = _run(["-B", "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); "
                 "import traced; traced.install(traced.Tracer())"], cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_compare_runs_finds_one_source_tree_identical_to_itself(tmp_path):
    src = str(ROOT / "src")
    done = _run([str(ROOT / "tools" / "compare_runs.py"), src, src, "--cohorts", "tiny"],
                cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    files = [line for line in lines if not line.startswith("==")]
    assert "results_long.csv: identical" in files
    assert "summary.csv: identical" in files
    assert "report stdout: identical" in files
    assert all(line.endswith(": identical") for line in files), done.stdout
    assert lines[-1] == "== tiny, change: --jobs 1 -> --jobs 2: identical"


def test_compare_runs_runs_only_the_change_side_under_change_env(tmp_path):
    src = str(ROOT / "src")
    done = _run([str(ROOT / "tools" / "compare_runs.py"), src, src, "--cohorts", "tiny",
                 "--change-env", "OPENBLAS_CORETYPE=Prescott"], cwd=tmp_path)
    # 1 where the kernel moves the last bits of ridge or a GP, 0 where it does not
    assert done.returncode in (0, 1), done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "== the change side runs with OPENBLAS_CORETYPE=Prescott"
    assert "cohort.csv: identical" in lines
    assert lines[-1] == "== tiny, change: --jobs 1 -> --jobs 2: identical"
    done = _run([str(ROOT / "tools" / "compare_runs.py"), src, src, "--cohorts", "tiny",
                 "--change-env", "OPENBLAS_CORETYPE"], cwd=tmp_path)
    assert done.returncode == 2
    assert "--change-env takes NAME=VALUE, got 'OPENBLAS_CORETYPE'" in done.stderr


def test_replay_forest_finds_one_forest_file_identical_to_itself(tmp_path):
    forest = str(ROOT / "src" / "glybench" / "models" / "forest.py")
    done = _run([str(ROOT / "tools" / "replay_forest.py"), forest, forest, "--rounds", "1"],
                cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "== grid: 20 grow_trees calls captured"
    assert lines[1] == "trees: identical"
    assert [line.split(":")[0] for line in lines[2:]] == ["parent", "change"]


def _compare_runs_module():
    spec = importlib.util.spec_from_file_location("compare_runs",
                                                  ROOT / "tools" / "compare_runs.py")
    tool = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tool  # dataclasses look their module up
    try:
        spec.loader.exec_module(tool)
    finally:
        del sys.modules[spec.name]
    return tool


def test_compare_runs_rejects_a_repeated_cohort(tmp_path):
    src = str(ROOT / "src")
    done = _run([str(ROOT / "tools" / "compare_runs.py"), src, src, "--cohorts", "tiny,tiny"],
                cwd=tmp_path)
    assert done.returncode == 2
    assert "error: repeated cohorts ['tiny']" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_compare_runs_reads_the_peak_rss_of_a_command():
    tool = _compare_runs_module()
    stdout, peak_mb = tool.spawn(ROOT / "src", "python", "-c",
                                 "b = b'x' * (32 << 20); print(len(b))")
    assert stdout == f"{32 << 20}\n"
    assert peak_mb >= 32.0
    assert tool.peak_line("grid", 2, 71.29, 66.66) == \
        "== grid, --jobs 2: run peak RSS 71.3 MB -> 66.7 MB" \
        " (one run per side, not compared; bench/run.py measures it)"
    with pytest.raises(tool.CommandFailed, match="exited 3: boom"):
        tool.spawn(ROOT / "src", "python", "-c",
                   "import sys; sys.stderr.write('boom'); sys.exit(3)")


def test_compare_runs_shows_a_changed_improvement_in_percentage_points():
    tool = _compare_runs_module()
    wide = "variant,ridge\nD_a6,{}\n"
    for name in ("improvement_L1.csv", "wide_L1.csv"):
        lines = tool.diff_file(name, wide.format("7.25"), wide.format("7.2500000000001"))
        assert lines[0] == f"{name}: 1 of 1 rows changed, largest relative difference 1.4e-14"
        assert lines[1].endswith("(relative 1.4e-14, 1e-13 pp)" if name.startswith("impr")
                                 else "(relative 1.4e-14)")
    summary = "metric,naive_error,best_error,percent_improvement\nL1,3.0,2.0,{}\n"
    [_, row] = tool.diff_file("summary.csv", summary.format("33.3"), summary.format("33.4"))
    assert row == "  metric=L1: percent_improvement: 33.3 -> 33.4 (relative 0.003, 0.1 pp)"
    assert tool.diff_printed("report stdout", "a\nb\n", "a\nc\n") == [
        "report stdout: differs (2 lines -> 2 lines)", "  - b", "  + c"]


def test_compare_runs_names_the_keys_a_json_output_lost_and_gained():
    tool = _compare_runs_module()
    meta = {"k": 10, "fold_local_stats": True, "models": ["naive", "ridge"],
            "pca_flags": {"D_a6/naive": 0, "D_a6/ridge": 0}}
    fewer = {key: value for key, value in meta.items() if key != "fold_local_stats"}
    assert tool.diff_file("run_meta.json", json.dumps(meta), json.dumps(fewer)) == [
        "run_meta.json: keys lost: fold_local_stats; keys gained: none",
        "run_meta.json: the 5 common keys are identical"]
    # the common keys are still compared row by row
    changed = dict(fewer, k=5, models=["naive"], seed=3)
    assert tool.diff_file("run_meta.json", json.dumps(meta), json.dumps(changed)) == [
        "run_meta.json: keys lost: fold_local_stats, models[1]; keys gained: seed",
        "run_meta.json: 1 of 4 rows changed, largest relative difference 0.5",
        "  key=k: value: 10 -> 5 (relative 0.5)"]
    many = {f"cell{i}": i for i in range(tool.MAX_ROWS + 2)}
    assert tool.diff_file("run_meta.json", json.dumps(many), "{}") == [
        f"run_meta.json: keys lost: {', '.join(list(many)[:tool.MAX_ROWS])} and 2 more"
        "; keys gained: none",
        "run_meta.json: the 0 common keys are identical"]
