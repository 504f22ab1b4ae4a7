from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from glybench import cli
from glybench.cli import main, summarize_results
from glybench.evaluation import METRICS, evaluate
from glybench.features import RecordArrays
from glybench.ingest import parse_diary_csv


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tree_hashes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        out[name] = sha(os.path.join(root, name))
    return out


@pytest.fixture
def cohort_csv(tmp_path):
    path = tmp_path / "cohort.csv"
    assert main(["synth", "--preset", "default", "--seed", "5", "--out", str(path)]) == 0
    return path


def test_synth_writes_parseable_cohort(cohort_csv):
    cohort = parse_diary_csv(cohort_csv.read_text())
    assert len(cohort) == 5
    assert all(len(h) > 100 for h in cohort.values())


def test_synth_same_seed_same_hash(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--seed", "9", "--out", str(a)]) == 0
    assert main(["synth", "--seed", "9", "--out", str(b)]) == 0
    assert sha(a) == sha(b)


def test_synth_missing_output_dir_exits_2(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "cohort.csv"
    assert main(["synth", "--out", str(target)]) == 2


def test_synth_config_file(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text('{"preset": "zero_signal", "patients": 2, "days": 6, "seed": 1}')
    out = tmp_path / "cohort.csv"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    cohort = parse_diary_csv(out.read_text())
    assert len(cohort) == 2


BAD_SYNTH_CONFIGS = [
    ({"patient": 2}, "unknown key 'patient' in synth config"),
    ({"missingness": {"bolsu": 0.9}}, "unknown key 'bolsu' in missingness"),
    ({"missingness": [1]}, "missingness must be a JSON object"),
    ({"bg_model": []}, "bg_model must be a JSON object"),
    ({"bg_model": {"mu_sd": 1.0}}, "unknown key 'mu_sd' in bg_model"),
    ({"bg_model": {"slot_offsets": {"Lunch": 1.0}}},
     "unknown key 'Lunch' in bg_model.slot_offsets"),
    ({"patients": True}, "'patients' must be an integer >= 1"),
    ({"patients": 2.5}, "'patients' must be an integer >= 1"),
    ({"days": -3}, "'days' must be an integer >= 1"),
    ({"seed": -1}, "'seed' must be an integer >= 0"),
    ({"missingness": {"bg": 1.5}}, "'missingness.bg' must be a number in [0, 1]"),
    ({"pump_fraction": -0.1}, "'pump_fraction' must be a number in [0, 1]"),
]


@pytest.mark.parametrize("config, key", BAD_SYNTH_CONFIGS)
def test_synth_rejects_bad_config_before_writing(tmp_path, capsys, config, key):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"preset": "default", "days": 2, **config}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "c.csv")]) == 2
    assert key in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.json"]


@pytest.mark.parametrize("config, key", BAD_SYNTH_CONFIGS)
def test_run_rejects_bad_inline_synth_config_before_writing(tmp_path, capsys, config, key):
    out = tmp_path / "results"
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "synth": {"preset": "default", "patients": 2, "days": 20, **config},
        "out": str(out), "variants": ["D_a6"], "models": ["naive"], "k": 5,
        "min_records": 20,
    }))
    assert main(["run", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_a_negative_seed_flag(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["synth", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_inspect_writes_reports(cohort_csv, tmp_path, capsys):
    out = tmp_path / "inspect"
    out.mkdir()
    assert main(["inspect", "--input", str(cohort_csv), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "patient" in printed
    ep_lines = (out / "ep_counts.csv").read_text().strip().splitlines()
    assert ep_lines[0] == "patient_id,total,ep_count"
    assert len(ep_lines) == 6
    for line in ep_lines[1:]:
        _pid, total, ep = line.split(",")
        assert 0 <= int(ep) <= int(total)
    assert (out / "cleaning.csv").exists()
    assert (out / "variants.csv").exists()
    assert (out / "models.csv").exists()


def _run_small_grid(cohort_csv, out_dir, seed="3"):
    return main(
        [
            "run",
            "--input", str(cohort_csv),
            "--out", str(out_dir),
            "--variants", "D_a6,D_e6",
            "--models", "naive,ridge",
            "--k", "5",
            "--min-records", "20",
            "--seed", seed,
        ]
    )


def test_run_emits_all_metric_tables(cohort_csv, tmp_path):
    out = tmp_path / "results"
    assert _run_small_grid(cohort_csv, out) == 0
    for metric in METRICS:
        assert (out / f"wide_{metric}.csv").exists()
        assert (out / f"long_{metric}.csv").exists()
        assert (out / f"improvement_{metric}.csv").exists()
    assert (out / "results_long.csv").exists()
    assert (out / "ep_counts.csv").exists()
    assert (out / "cleaning.csv").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["variants"] == ["D_a6", "D_e6"]
    assert meta["seed"] == 3


def test_run_unknown_model_exits_2_naming_it(cohort_csv, tmp_path, capsys):
    code = main(
        ["run", "--input", str(cohort_csv), "--out", str(tmp_path / "r"),
         "--models", "naive,svr9", "--variants", "D_a6"]
    )
    assert code == 2
    assert "svr9" in capsys.readouterr().err


def test_run_unknown_variant_exits_2(cohort_csv, tmp_path, capsys):
    code = main(
        ["run", "--input", str(cohort_csv), "--out", str(tmp_path / "r"),
         "--models", "naive", "--variants", "D_e99"]
    )
    assert code == 2
    assert "D_e99" in capsys.readouterr().err


def _spy_on_evaluate(monkeypatch) -> list:
    """Make ``run`` evaluate in-process and collect every report it makes."""
    reports = []

    def spy(*args, **kwargs):
        reports.append(evaluate(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "evaluate", spy)
    return reports


def test_run_evaluates_a_repeated_variant_once(cohort_csv, tmp_path, monkeypatch):
    reports = _spy_on_evaluate(monkeypatch)
    out = tmp_path / "results"
    assert main(["run", "--input", str(cohort_csv), "--out", str(out),
                 "--variants", "D_a6,D_a6", "--models", "naive", "--k", "5",
                 "--min-records", "20"]) == 0
    assert [(r.variant, r.model) for r in reports] == [("D_a6", "naive")]
    assert json.loads((out / "run_meta.json").read_text())["variants"] == ["D_a6"]


def test_run_meta_reports_pca_flags_per_cell(cohort_csv, tmp_path, monkeypatch):
    reports = _spy_on_evaluate(monkeypatch)
    out = tmp_path / "results"
    assert main(["run", "--input", str(cohort_csv), "--out", str(out),
                 "--variants", "D_a12", "--models", "ridge", "--k", "5",
                 "--min-records", "20"]) == 0
    flags = json.loads((out / "run_meta.json").read_text())["pca_flags"]
    assert set(flags) == {"D_a12/naive", "D_a12/ridge"}
    assert flags == {f"{r.variant}/{r.model}": r.metadata["pca_flags"] for r in reports}


def test_run_rerun_is_byte_identical(cohort_csv, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run_small_grid(cohort_csv, out1) == 0
    assert _run_small_grid(cohort_csv, out2) == 0
    assert tree_hashes(out1) == tree_hashes(out2)


def test_run_parallel_jobs_match_sequential(cohort_csv, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    base = [
        "run", "--input", str(cohort_csv), "--variants", "D_a6,D_e6",
        "--models", "naive,ridge", "--k", "5", "--min-records", "20",
        "--seed", "3",
    ]
    assert main(base + ["--out", str(seq), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(par), "--jobs", "2"]) == 0
    assert tree_hashes(seq) == tree_hashes(par)


def test_jobs_env_var_fallback(cohort_csv, tmp_path, monkeypatch):
    monkeypatch.setenv("GLYBENCH_JOBS", "2")
    out = tmp_path / "envjobs"
    assert _run_small_grid(cohort_csv, out) == 0
    assert (out / "results_long.csv").exists()


def test_run_custom_penalty_table(cohort_csv, tmp_path):
    table = tmp_path / "weights.json"
    table.write_text('{"A": 1, "B": 9, "C": 9, "D": 9, "E": 9}')
    default_out, custom_out = tmp_path / "dflt", tmp_path / "custom"
    base = [
        "run", "--input", str(cohort_csv), "--variants", "D_a6",
        "--models", "naive", "--k", "5", "--min-records", "20", "--seed", "3",
    ]
    assert main(base + ["--out", str(default_out)]) == 0
    assert main(base + ["--out", str(custom_out), "--penalty-table", str(table)]) == 0
    # plain losses unaffected, penalty-weighted ones responding to the table
    assert (default_out / "wide_L1.csv").read_text() == (
        custom_out / "wide_L1.csv"
    ).read_text()
    assert (default_out / "wide_gMAD.csv").read_text() != (
        custom_out / "wide_gMAD.csv"
    ).read_text()


def test_run_rejects_bad_penalty_table(cohort_csv, tmp_path, capsys):
    table = tmp_path / "weights.json"
    table.write_text('{"A": 1, "B": 0.5, "C": 4, "D": 6, "E": 8}')
    code = main(
        ["run", "--input", str(cohort_csv), "--out", str(tmp_path / "r"),
         "--models", "naive", "--variants", "D_a6",
         "--penalty-table", str(table)]
    )
    assert code == 2
    assert "below 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights, message",
    [
        ('{"A": 1, "B": "nan", "C": 4, "D": 6, "E": 8}', "zone B weight 'nan' is not a JSON number"),
        ('{"A": 1, "B": 2, "C": 4, "D": 6, "E": 8, "Z": 3}', "unknown zone(s) Z"),
        ('{"A": 1, "B": NaN, "C": 4, "D": 6, "E": 8}', "not finite"),
        ('{"A": true, "B": 2, "C": "4", "D": 6, "E": 8}', "zone A weight True is not a JSON number"),
        ('{"A": 1, "B": 2, "C": "4", "D": 6, "E": 8}', "zone C weight '4' is not a JSON number"),
    ],
)
def test_run_rejects_non_finite_or_unknown_penalty_zones(
    cohort_csv, tmp_path, capsys, weights, message
):
    table = tmp_path / "weights.json"
    table.write_text(weights)
    code = main(
        ["run", "--input", str(cohort_csv), "--out", str(tmp_path / "r"),
         "--models", "naive", "--variants", "D_a6",
         "--penalty-table", str(table)]
    )
    assert code == 2
    assert message in capsys.readouterr().err


def test_run_grid_config_file_with_flag_overrides(cohort_csv, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps(
            {
                "input": str(cohort_csv),
                "variants": ["D_a6"],
                "models": ["naive"],
                "k": 5,
                "min_records": 20,
            }
        )
    )
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "results_long.csv").exists()


@pytest.mark.parametrize(
    "config, flags, env, key",
    [
        ({"k": "5"}, [], None, "'k'"),
        ({"k": True}, [], None, "'k'"),
        ({}, ["--k", "1"], None, "'k'"),
        ({"min_records": -1}, [], None, "'min_records'"),
        ({"min_records": 2.5}, [], None, "'min_records'"),
        ({"seed": "abc"}, [], None, "'seed'"),
        ({"fold_local_stats": "no"}, [], None, "'fold_local_stats'"),
        ({"fold_local_stats": 1}, [], None, "'fold_local_stats'"),
        ({}, ["--jobs", "-4"], None, "'jobs'"),
        ({"jobs": False}, [], None, "'jobs'"),
        ({}, [], "0", "'jobs'"),
        ({}, [], "two", "GLYBENCH_JOBS"),
        ({"variants": "D_a6"}, [], None, "'variants'"),
        ({"models": ["naive", 3]}, [], None, "'models'"),
        ({"out": 5}, [], None, "'out'"),
        ({"variants": []}, [], None, "'variants'"),
        ({}, ["--variants", ","], None, "'variants'"),
        ({"min_record": 20}, [], None, "unknown config key 'min_record'"),
    ],
)
def test_run_rejects_bad_grid_values_before_writing(
    cohort_csv, tmp_path, capsys, monkeypatch, config, flags, env, key
):
    if env is None:
        monkeypatch.delenv("GLYBENCH_JOBS", raising=False)
    else:
        monkeypatch.setenv("GLYBENCH_JOBS", env)
    out = tmp_path / "results"
    grid = {"input": str(cohort_csv), "out": str(out), "variants": ["D_a6"],
            "models": ["naive"], "k": 5, "min_records": 20, **config}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert main(["run", "--config", str(path), *flags]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_glucose_fails_inspect_and_run(cohort_csv, tmp_path, capsys):
    lines = cohort_csv.read_text().splitlines()
    fields = lines[7].split(",")
    fields[4] = "nan"
    lines[7] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["inspect", "--input", str(bad)]) == 2
    assert "line 8, column 'bg'" in capsys.readouterr().err
    out = tmp_path / "results"
    assert main(["run", "--input", str(bad), "--out", str(out), "--variants", "D_a6",
                 "--models", "naive", "--k", "5", "--min-records", "20"]) == 2
    assert "line 8, column 'bg'" in capsys.readouterr().err
    assert not out.exists()


def test_a_record_without_a_time_fails_run_naming_it(cohort_csv, tmp_path, capsys):
    lines = cohort_csv.read_text().splitlines()
    n = next(i for i, line in enumerate(lines[1:], start=1) if line.split(",")[4])
    fields = lines[n].split(",")
    patient, meal, date = fields[0], fields[1], fields[2]
    fields[3] = ""
    lines[n] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    message = f"patient {patient}: the {meal} record dated {date} has no timestamp"
    # cleaning lays the records out as arrays for both commands
    capsys.readouterr()
    assert main(["inspect", "--input", str(bad)]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "results"
    assert main(["run", "--input", str(bad), "--out", str(out), "--variants", "D_a6",
                 "--models", "naive", "--k", "5", "--min-records", "20"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_records_become_arrays_once_per_patient_per_command(cohort_csv, tmp_path,
                                                             monkeypatch):
    converted = []
    of = RecordArrays.of
    monkeypatch.setattr(RecordArrays, "of",
                        staticmethod(lambda h: converted.append(h.patient_id) or of(h)))
    patients = sorted(parse_diary_csv(cohort_csv.read_text()))
    assert main(["inspect", "--input", str(cohort_csv)]) == 0
    assert converted == patients
    converted.clear()
    assert len(cli.DEFAULT_GRID_VARIANTS) == 8
    assert main(["run", "--input", str(cohort_csv), "--out", str(tmp_path / "results"),
                 "--variants", ",".join(cli.DEFAULT_GRID_VARIANTS), "--models", "naive",
                 "--k", "5", "--min-records", "20", "--jobs", "1"]) == 0
    assert converted == patients


def test_run_with_inline_synth_config(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps(
            {
                "synth": {"preset": "high_signal", "patients": 3, "days": 20,
                          "seed": 4},
                "variants": ["D_a6"],
                "models": ["naive", "ridge"],
                "k": 5,
                "min_records": 20,
                "seed": 4,
                "out": str(tmp_path / "results"),
            }
        )
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "results" / "wide_L1.csv").exists()


def test_report_summarizes_best_model(cohort_csv, tmp_path, capsys):
    out = tmp_path / "results"
    assert _run_small_grid(cohort_csv, out) == 0
    capsys.readouterr()
    assert main(["report", str(out), "--out", str(tmp_path / "summary.csv")]) == 0
    printed = capsys.readouterr().out
    assert "L1" in printed
    summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("metric,naive_error,best_error")
    assert len(summary) == 1 + len(METRICS)


def test_report_on_missing_dir_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope")]) == 2


def _table_cell(path, variant, model):
    header, *rows = path.read_text().splitlines()
    models = header.split(",")[1:]
    for row in rows:
        cells = row.split(",")
        if cells[0] == variant:
            return cells[1 + models.index(model)]
    raise KeyError(variant)


def test_report_summary_equals_result_tables_bit_for_bit(tmp_path):
    # ten patients: numpy's pairwise mean and a running sum round apart here
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 10, "days": 12}')
    cohort = tmp_path / "cohort.csv"
    assert main(["synth", "--config", str(synth), "--seed", "2", "--out", str(cohort)]) == 0
    out = tmp_path / "results"
    assert main(["run", "--input", str(cohort), "--out", str(out),
                 "--variants", "D_a6", "--models", "naive,ridge", "--k", "5",
                 "--min-records", "20", "--seed", "2"]) == 0
    per_patient: dict[tuple[str, str], list[float]] = {}
    for line in (out / "results_long.csv").read_text().splitlines()[1:]:
        model, _variant, metric, _pid, value = line.split(",")
        per_patient.setdefault((model, metric), []).append(float(value))
    assert any(sum(v) / len(v) != float(np.mean(v)) for v in per_patient.values())

    assert main(["report", str(out), "--out", str(tmp_path / "summary.csv")]) == 0
    header, *rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(rows) == len(METRICS)
    for row in rows:
        metric, naive, best, pct, model, variant = row.split(",")
        assert naive == _table_cell(out / f"wide_{metric}.csv", variant, "naive")
        assert best == _table_cell(out / f"wide_{metric}.csv", variant, model)
        assert pct == _table_cell(out / f"improvement_{metric}.csv", variant, model)


def test_run_and_report_on_an_all_excluded_cohort_exit_2(tmp_path, capsys):
    cohort = tmp_path / "tiny.csv"
    full = tmp_path / "full.csv"
    assert main(["synth", "--seed", "1", "--out", str(full)]) == 0
    cohort.write_text("\n".join(full.read_text().splitlines()[:3]) + "\n")
    assert len(parse_diary_csv(cohort.read_text())) == 1
    out = tmp_path / "results"
    code = main(["run", "--input", str(cohort), "--out", str(out),
                 "--variants", "D_a6", "--models", "naive"])
    assert code == 2
    assert "--min-records" in capsys.readouterr().err
    assert not out.exists()

    # a results directory without per-patient rows, as older runs wrote it
    out.mkdir()
    (out / "results_long.csv").write_text("model,variant,metric,patient,value\n")
    assert main(["report", str(out)]) == 2
    assert "--min-records" in capsys.readouterr().err


def test_run_exits_2_when_one_variant_keeps_no_patient(tmp_path, capsys):
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 2, "days": 20}')
    cohort = tmp_path / "cohort.csv"
    assert main(["synth", "--config", str(synth), "--seed", "3", "--out", str(cohort)]) == 0
    out = tmp_path / "results"
    # 90 rows keep both patients in D_a6 but neither in the EP-filtered D_e6
    code = main(["run", "--input", str(cohort), "--out", str(out),
                 "--variants", "D_e6,D_a6", "--models", "naive", "--k", "5",
                 "--min-records", "90"])
    assert code == 2
    err = capsys.readouterr().err
    assert "variant(s) D_e6:" in err
    assert "--min-records 90" in err
    assert not out.exists()

    assert main(["run", "--input", str(cohort), "--out", str(out),
                 "--variants", "D_a6", "--models", "naive", "--k", "5",
                 "--min-records", "90"]) == 0
    assert "nan" not in (out / "wide_L1.csv").read_text()


def test_run_exits_2_before_writing_when_stacking_has_one_patient(tmp_path, capsys):
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 1, "days": 20}')
    cohort = tmp_path / "cohort.csv"
    assert main(["synth", "--config", str(synth), "--seed", "3", "--out", str(cohort)]) == 0
    out = tmp_path / "results"
    code = main(["run", "--input", str(cohort), "--out", str(out),
                 "--variants", "D_a6", "--models", "naive,gpr_AllPat_AllMeals",
                 "--k", "5", "--min-records", "20"])
    assert code == 2
    err = capsys.readouterr().err
    assert "at least two retained patients" in err
    assert "gpr_AllPat_AllMeals" in err and "D_a6" in err
    assert not out.exists()


def _two_patient_cohort(tmp_path):
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 2, "days": 20}')
    cohort = tmp_path / "cohort.csv"
    assert main(["synth", "--config", str(synth), "--seed", "3", "--out", str(cohort)]) == 0
    return cohort


def test_run_with_out_at_a_file_exits_2_before_evaluating(tmp_path, capsys, monkeypatch):
    cohort = _two_patient_cohort(tmp_path)
    out = tmp_path / "results"
    out.write_text("keep me\n")
    evaluated = []
    monkeypatch.setattr(cli, "evaluate", lambda *a, **kw: evaluated.append(a))
    code = main(["run", "--input", str(cohort), "--out", str(out),
                 "--variants", "D_a6", "--models", "naive", "--k", "5",
                 "--min-records", "20", "--jobs", "1"])
    assert code == 2
    assert "output path is not a directory" in capsys.readouterr().err
    assert not evaluated
    assert out.read_text() == "keep me\n"


def test_run_with_a_bad_prediction_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    cohort = _two_patient_cohort(tmp_path)

    class NotANumber:
        def fit(self, train):
            pass

        def predict(self, test):
            return np.full(len(test), np.nan)

    registry = cli.builtin_registry

    def broken_registry():
        entries = registry()
        entries["ridge"] = dataclasses.replace(
            entries["ridge"], factory=lambda cfg, with_stacked, seed: NotANumber())
        return entries

    monkeypatch.setattr(cli, "builtin_registry", broken_registry)
    out = tmp_path / "results"
    code = main(["run", "--input", str(cohort), "--out", str(out),
                 "--variants", "D_a6", "--models", "naive,ridge", "--k", "5",
                 "--min-records", "20", "--jobs", "1"])
    assert code == 2
    assert "ridge predicted nan mmol/L" in capsys.readouterr().err
    assert not out.exists()


def test_synth_with_out_at_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "cohort"
    out.mkdir()
    assert main(["synth", "--seed", "1", "--out", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort"]


def test_report_with_out_at_a_directory_exits_2(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "results_long.csv").write_text(
        "model,variant,metric,patient,value\n"
        "naive,D_a6,L1,p1,4.0\n"
        "ridge,D_a6,L1,p1,3.5\n"
    )
    out = tmp_path / "summary"
    out.mkdir()
    assert main(["report", str(results), "--out", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results", "summary"]


def test_summarize_results_hand_fixture():
    long_csv = "\n".join(
        [
            "model,variant,metric,patient,value",
            "naive,D_a6,L1,p1,4.0",
            "naive,D_a6,L1,p2,4.0",
            "ridge,D_a6,L1,p1,3.5",
            "ridge,D_a6,L1,p2,2.5",
            "naive,D_e6,L1,p1,5.0",
            "naive,D_e6,L1,p2,5.0",
            "ridge,D_e6,L1,p1,4.5",
            "ridge,D_e6,L1,p2,4.5",
        ]
    )
    rows = summarize_results(long_csv)
    assert len(rows) == 1
    row = rows[0]
    # ridge on D_a6 has cohort mean 3.0, the minimum; naive there is 4.0
    assert row["best_model"] == "ridge"
    assert row["best_variant"] == "D_a6"
    assert row["best_error"] == pytest.approx(3.0)
    assert row["naive_error"] == pytest.approx(4.0)
    assert row["percent_improvement"] == pytest.approx(25.0)


def test_summarize_naive_only_run_improves_zero():
    long_csv = "\n".join(
        [
            "model,variant,metric,patient,value",
            "naive,D_a6,L1,p1,4.0",
            "naive,D_a6,L1,p2,6.0",
        ]
    )
    rows = summarize_results(long_csv)
    assert rows[0]["best_model"] == "naive"
    assert rows[0]["percent_improvement"] == 0.0
