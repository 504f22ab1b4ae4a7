from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import stat

import numpy as np
import pytest

from glybench import cli, evaluation
from glybench.cli import main, summarize_results
from glybench.evaluation import METRICS, evaluate_group
from glybench.features import RecordArrays
from glybench.ingest import parse_diary_csv
from glybench.records import ExerciseLevel


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
    ({"bg_model": {"phi": 1}}, "'bg_model.phi' must be a number in [0, 1)"),
    ({"bg_model": {"phi": 1.5}}, "'bg_model.phi' must be a number in [0, 1)"),
    ({"bg_model": {"phi": -0.1}}, "'bg_model.phi' must be a number in [0, 1)"),
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
    # the synth config that `run --synth` reads
    out = tmp_path / "results"
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"preset": "default", "patients": 2, "days": 20, **config}))
    assert main(["run", "--synth", str(path), "--out", str(out), "--variants", "D_a6",
                 "--models", "naive", "--k", "5", "--min-records", "20"]) == 2
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


def test_inspect_with_a_missing_out_directory_exits_2_before_any_work(
        cohort_csv, tmp_path, capsys):
    missing = tmp_path / "missing"
    for cohort in (cohort_csv, tmp_path / "no_such_cohort.csv"):
        assert main(["inspect", "--input", str(cohort), "--out", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output directory does not exist: {missing}\n"
    assert not missing.exists()


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


def _spy_on_evaluate_group(monkeypatch) -> list:
    """Collect every report ``run`` makes through ``evaluate_grid``'s
    ``evaluate_group`` calls (``run`` evaluates in-process at ``--jobs 1``)."""
    reports = []

    def spy(*args, **kwargs):
        group = evaluate_group(*args, **kwargs)
        reports.extend(group)
        return group

    monkeypatch.setattr(evaluation, "evaluate_group", spy)
    return reports


def test_run_evaluates_a_repeated_variant_once(cohort_csv, tmp_path, monkeypatch):
    reports = _spy_on_evaluate_group(monkeypatch)
    out = tmp_path / "results"
    assert main(["run", "--input", str(cohort_csv), "--out", str(out),
                 "--variants", "D_a6,D_a6", "--models", "naive", "--k", "5",
                 "--min-records", "20"]) == 0
    assert [(r.variant, r.model) for r in reports] == [("D_a6", "naive")]
    assert json.loads((out / "run_meta.json").read_text())["variants"] == ["D_a6"]


def test_run_meta_reports_pca_flags_per_cell(cohort_csv, tmp_path, monkeypatch):
    reports = _spy_on_evaluate_group(monkeypatch)
    out = tmp_path / "results"
    assert main(["run", "--input", str(cohort_csv), "--out", str(out),
                 "--variants", "D_a12", "--models", "ridge", "--k", "5",
                 "--min-records", "20"]) == 0
    flags = json.loads((out / "run_meta.json").read_text())["pca_flags"]
    assert set(flags) == {"D_a12/naive", "D_a12/ridge"}
    assert len(reports) == len(flags)  # each cell's report is made once
    assert flags == {f"{r.variant}/{r.model}": r.metadata["pca_flags"] for r in reports}


def test_run_evaluates_each_cell_once_in_groups_that_share_fitted_parts(
        cohort_csv, tmp_path, monkeypatch):
    groups = []

    def spy(dataset, entries, **kwargs):
        groups.append((dataset.spec.id, [e.name for e in entries]))
        return evaluate_group(dataset, entries, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate_group", spy)
    assert main(["run", "--input", str(cohort_csv), "--out", str(tmp_path / "r"),
                 "--variants", "D_e2,D_a6", "--models",
                 "gpr_be_AllPat_AllMeals,ridge,gpr_be,gpr_AllPat_AllMeals,"
                 "gpr_IndPat_AllMeals", "--k", "5", "--min-records", "20"]) == 0
    per_variant = [["gpr_be_AllPat_AllMeals", "gpr_AllPat_AllMeals"], ["ridge"],
                   ["gpr_be", "gpr_IndPat_AllMeals"], ["naive"]]
    assert groups == [(v, names) for v in ("D_e2", "D_a6") for names in per_variant]


def test_run_starts_no_more_workers_than_tasks(cohort_csv, tmp_path, monkeypatch):
    pools = []

    class InlinePool:
        """Stands in for the process pool: records its size, runs tasks here."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # evaluate_grid imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    base = ["run", "--input", str(cohort_csv), "--variants", "D_a6,D_e6",
            "--models", "naive,ridge", "--k", "5", "--min-records", "20"]
    assert main(base + ["--out", str(tmp_path / "wide"), "--jobs", "64"]) == 0
    assert pools == [4]  # 2 variants x {naive, ridge}
    assert main(base + ["--out", str(tmp_path / "serial"), "--jobs", "1"]) == 0
    assert tree_hashes(tmp_path / "wide") == tree_hashes(tmp_path / "serial")


def test_run_gp_pair_parallel_jobs_match_sequential(cohort_csv, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    base = ["run", "--input", str(cohort_csv), "--variants", "D_a6",
            "--models", "gpr_IndPat_AllMeals,gpr_be", "--k", "5",
            "--min-records", "20", "--seed", "3"]
    assert main(base + ["--out", str(seq), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(par), "--jobs", "2"]) == 0
    assert tree_hashes(seq) == tree_hashes(par)


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


def _run_args(cohort_csv, out, *flags):
    """``run`` on one small cell, ``flags`` after (and so over) its own."""
    return ["run", "--input", str(cohort_csv), "--out", str(out), "--variants", "D_a6",
            "--models", "naive", "--k", "5", "--min-records", "20", *flags]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--k", "1"], "--k must be an integer >= 2, got 1"),
        (["--min-records", "-1"], "--min-records must be an integer >= 0, got -1"),
        (["--jobs", "-4"], "--jobs must be an integer >= 1, got -4"),
        (["--variants", ","], "--variants is empty"),
    ],
    ids=["k=1", "min-records=-1", "jobs=-4", "variants=,"],
)
def test_run_rejects_bad_grid_values_before_writing(cohort_csv, tmp_path, capsys, flags,
                                                     message):
    out = tmp_path / "results"
    assert main(_run_args(cohort_csv, out, *flags)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--variants"], ["--models"], ["--models", ","],
                                   ["--variants", ","]], ids=" ".join)
def test_run_with_an_empty_name_list_exits_2_naming_the_flag(cohort_csv, tmp_path, capsys,
                                                             flags):
    out = tmp_path / "results"
    assert main(_run_args(cohort_csv, out, *flags)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flags[0]} is empty")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--input", "COHORT", "--synth", "SYNTH", "--out", "OUT"],
         "argument --synth: not allowed with argument --input"),
        (["--out", "OUT"], "one of the arguments --input --synth is required"),
        (["--input", "COHORT"], "the following arguments are required: --out"),
        (["--input", "COHORT", "--out", "OUT", "--config", "SYNTH"],
         "unrecognized arguments: --config"),
    ],
    ids=["input and synth", "no cohort", "no out", "config"],
)
def test_run_needs_one_cohort_and_an_out_directory(cohort_csv, tmp_path, capsys, flags,
                                                   message):
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 2, "days": 20}')
    paths = {"COHORT": str(cohort_csv), "SYNTH": str(synth), "OUT": str(tmp_path / "r")}
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SystemExit) as exited:
        main(["run", *(paths.get(flag, flag) for flag in flags)])
    assert exited.value.code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_run_help_shows_every_default(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["run", "--help"])
    assert exited.value.code == 0
    # argparse wraps a long default at any character, so compare without whitespace
    printed = "".join(capsys.readouterr().out.split())
    for help_text, default in (
        ("evaluationseed", 0),
        ("parallelworkerprocesses", 1),
        ("variantids", ",".join(cli.DEFAULT_GRID_VARIANTS)),
        ("naivealwaysruns", ",".join(cli.DEFAULT_GRID_MODELS)),
        ("foldsperpatient", cli.DEFAULT_K),
        ("tobekept", cli.DEFAULT_MIN_RECORDS),
        ("zone->weight", "".join(json.dumps(evaluation.DEFAULT_ZONE_WEIGHTS).split())),
    ):
        assert f"{help_text}(default:{default})" in printed


def test_run_synth_equals_synth_then_run_input(tmp_path):
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 2, "days": 20, "seed": 3}')
    cohort, generated, read = tmp_path / "c.csv", tmp_path / "generated", tmp_path / "read"
    grid = ["--variants", "D_a6,D_e6", "--models", "naive,ridge", "--k", "5",
            "--min-records", "20", "--seed", "1"]
    assert main(["run", "--synth", str(synth), "--out", str(generated), *grid]) == 0
    assert main(["synth", "--config", str(synth), "--out", str(cohort)]) == 0
    assert main(["run", "--input", str(cohort), "--out", str(read), *grid]) == 0
    assert len(tree_hashes(generated)) > 10
    assert tree_hashes(generated) == tree_hashes(read)


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


def _edited(cohort_csv, tmp_path, column, value):
    """The cohort with ``column`` of line 8 set to ``value``."""
    lines = cohort_csv.read_text().splitlines()
    fields = lines[7].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[7] = ",".join(fields)
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _inspect_and_run(cohort, tmp_path, capsys) -> list[tuple[int, str]]:
    """The exit status and stderr of ``inspect`` and of ``run`` on a cohort."""
    capsys.readouterr()
    done = []
    for args in (["inspect", "--input", str(cohort)],
                 ["run", "--input", str(cohort), "--out", str(tmp_path / "results"),
                  "--variants", "D_a6", "--models", "naive", "--k", "5",
                  "--min-records", "20"]):
        status = main(args)
        done.append((status, capsys.readouterr().err))
    return done


@pytest.mark.parametrize("value", ["09:30:00+01:00", "09:30:00Z"])
def test_a_time_with_a_utc_offset_fails_inspect_and_run(cohort_csv, tmp_path, capsys,
                                                        value):
    bad = _edited(cohort_csv, tmp_path, "time", value)
    for status, err in _inspect_and_run(bad, tmp_path, capsys):
        assert status == 2
        assert f"line 8, column 'time': time {value!r} has a UTC offset" in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("value", ["4.5", "2.9"])
def test_a_fractional_exercise_code_fails_inspect_and_run(cohort_csv, tmp_path, capsys,
                                                          value):
    bad = _edited(cohort_csv, tmp_path, "ev", value)
    for status, err in _inspect_and_run(bad, tmp_path, capsys):
        assert status == 2
        assert f"line 8, column 'ev': unknown exercise level {value!r}" in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("value", ["4", "4.0", "Normal"])
def test_a_whole_or_named_exercise_code_is_accepted(cohort_csv, tmp_path, capsys, value):
    good = _edited(cohort_csv, tmp_path, "ev", value)
    pid, meal, date = good.read_text().splitlines()[7].split(",")[:3]
    [record] = [r for r in parse_diary_csv(good.read_text())[pid].records
                if (r.meal.name, str(r.date)) == (meal, date)]
    assert record.ev is ExerciseLevel.Normal
    assert [status for status, _ in _inspect_and_run(good, tmp_path, capsys)] == [0, 0]


@pytest.mark.parametrize("umask", [0o022, 0o007], ids=oct)
def test_written_files_follow_the_umask(tmp_path, umask):
    cohort, summary = tmp_path / "c.csv", tmp_path / "summary.csv"
    inspected, results = tmp_path / "inspect", tmp_path / "results"
    inspected.mkdir()
    old = os.umask(umask)
    try:
        assert main(["synth", "--seed", "5", "--out", str(cohort)]) == 0
        assert main(["inspect", "--input", str(cohort), "--out", str(inspected)]) == 0
        assert main(["run", "--input", str(cohort), "--out", str(results),
                     "--variants", "D_a6", "--models", "naive", "--k", "5",
                     "--min-records", "20"]) == 0
        assert main(["report", str(results), "--out", str(summary)]) == 0
    finally:
        os.umask(old)
    written = [cohort, summary, *inspected.iterdir(), *results.iterdir()]
    assert len(written) > 10
    assert {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in written} == \
        {p.name: oct(0o666 & ~umask) for p in written}


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
    cfg = tmp_path / "synth.json"
    cfg.write_text('{"preset": "high_signal", "patients": 3, "days": 20, "seed": 4}')
    assert main(["run", "--synth", str(cfg), "--out", str(tmp_path / "results"),
                 "--variants", "D_a6", "--models", "naive,ridge", "--k", "5",
                 "--min-records", "20", "--seed", "4"]) == 0
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


def test_report_notes_variants_that_scored_different_patients(tmp_path, capsys):
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 3, "days": 20, "seed": 3}')
    cohort = tmp_path / "cohort.csv"
    assert main(["synth", "--config", str(synth), "--out", str(cohort)]) == 0
    printed = {}
    # 70 rows keep all three patients in D_a6 but only P01 in the EP-filtered D_e6
    for min_records in ("70", "60"):
        out = tmp_path / f"results{min_records}"
        assert main(["run", "--input", str(cohort), "--out", str(out),
                     "--variants", "D_e6,D_a6", "--models", "naive,ridge", "--k", "5",
                     "--min-records", min_records]) == 0
        assert json.loads((out / "run_meta.json").read_text())["excluded_patients"] == (
            {"D_a6": [], "D_e6": ["P02", "P03"]} if min_records == "70"
            else {"D_a6": [], "D_e6": []})
        capsys.readouterr()
        assert main(["report", str(out), "--out", str(tmp_path / "summary.csv")]) == 0
        printed[min_records] = capsys.readouterr()
    assert printed["70"].err == (
        "note: the variants scored different patients (patients per variant: D_a6 3, "
        "D_e6 1), so their cohort scores are means over different patients\n")
    assert printed["60"].err == ""
    # the note goes to stderr only: the table is unchanged
    assert printed["70"].out.splitlines()[0] == printed["60"].out.splitlines()[0]
    assert "note" not in printed["70"].out
    assert len(printed["70"].out.splitlines()) == 1 + len(METRICS)


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


def test_run_meta_lists_a_patient_with_fewer_than_k_rows_as_excluded(tmp_path):
    cohort = _two_patient_cohort(tmp_path)
    header, *rows = cohort.read_text().splitlines()
    short = [row for row in rows if row.startswith("P02,")][:8]
    cohort.write_text("\n".join([header, *(r for r in rows if r.startswith("P01,")), *short])
                      + "\n")
    out = tmp_path / "results"
    # P02 keeps 7 rows: enough for --min-records 5, too few for 10 folds
    assert main(["run", "--input", str(cohort), "--out", str(out), "--variants", "D_a6",
                 "--models", "naive,ridge", "--k", "10", "--min-records", "5"]) == 0
    lines = (out / "results_long.csv").read_text().splitlines()[1:]
    assert {line.split(",")[3] for line in lines} == {"P01"}
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["excluded_patients"] == {"D_a6": ["P02"]}


def test_run_refuses_a_static_variant_on_a_cohort_without_characteristics(tmp_path, capsys):
    cohort = _two_patient_cohort(tmp_path)
    out = tmp_path / "results"
    code = main(["run", "--input", str(cohort), "--out", str(out),
                 "--variants", "D_a6,D_a5", "--models", "naive", "--k", "5",
                 "--min-records", "20"])
    assert code == 2
    err = capsys.readouterr().err
    assert "variant(s) D_a5 use patient characteristics" in err
    assert "Data format" in err
    assert not out.exists()

    # a synthetic cohort that run generates itself keeps its characteristics
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 2, "days": 20, "seed": 3}')
    assert main(["run", "--synth", str(synth), "--out", str(out), "--variants", "D_a5,D_e5",
                 "--models", "naive,ridge", "--k", "5", "--min-records", "20"]) == 0
    wide = (out / "wide_L1.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in wide] == ["variant", "D_a5", "D_e5"]
    assert "nan" not in "".join(wide)


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
    monkeypatch.setattr(evaluation, "evaluate_group", lambda *a, **kw: evaluated.append(a))
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


def test_report_on_a_results_file_missing_one_metric_value_exits_2(tmp_path, capsys):
    # every cell of a run's results has every metric; a cell without one is no result
    results = tmp_path / "results"
    results.mkdir()
    (results / "results_long.csv").write_text(
        "model,variant,metric,patient,value\n"
        "naive,D_a6,L1,p1,4.0\n"
        "ridge,D_a6,L1,p1,3.5\n"
        "ridge,D_a6,rL1,p1,0.5\n"
    )
    assert main(["report", str(results)]) == 2
    assert "results file has no rL1 value for naive on D_a6, patient p1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("ridge,D_a6,L1,p1", "expected 5 fields, got 4"),
    ("ridge,D_a6,L1,p1,3.0,x", "expected 5 fields, got 6"),
    ("naive,D_a6,L1,p1,9.0", "repeats line 2 (naive, D_a6, L1, p1)"),
    ("ridge,D_a6,L1,p1,nan", "value nan is not a finite error >= 0"),
    ("ridge,D_a6,L1,p1,inf", "value inf is not a finite error >= 0"),
    ("ridge,D_a6,L1,p1,-2.0", "value -2.0 is not a finite error >= 0"),
    ("ridge,D_a6,L1,p1,abc", "value 'abc' is not a number"),
    ("ridge,D_a6,XX,p1,3.0", "unknown metric 'XX'"),
], ids=["4 fields", "6 fields", "repeat", "nan", "inf", "negative", "text", "metric"])
def test_report_names_the_bad_line_of_the_results_file(tmp_path, capsys, row, message):
    # a blank line counts: the number is the line of the file
    results = tmp_path / "results"
    results.mkdir()
    (results / "results_long.csv").write_text(
        f"model,variant,metric,patient,value\nnaive,D_a6,L1,p1,1.0\n\n{row}\n")
    assert main(["report", str(results), "--out", str(tmp_path / "summary.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: results file line 4: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "summary.csv").exists()


def test_report_accepts_a_zero_error():
    [row] = summarize_results("model,variant,metric,patient,value\n"
                              "naive,D_a6,L1,p1,0.0\nridge,D_a6,L1,p1,0.0\n")
    assert (row["best_model"], row["best_error"], row["percent_improvement"]) == \
        ("naive", 0.0, 0.0)


def test_report_without_a_naive_cell_on_the_best_variant_reads_nan(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "results_long.csv").write_text(
        "model,variant,metric,patient,value\n"
        "naive,D_a6,L1,p1,4.0\n"
        "ridge,D_a6,L1,p1,3.5\n"
        "ridge,D_e6,L1,p1,3.0\n"
    )
    [row] = summarize_results((results / "results_long.csv").read_text())
    assert (row["best_model"], row["best_variant"], row["naive_error"]) == \
        ("ridge", "D_e6", None)
    assert math.isnan(row["percent_improvement"])
    capsys.readouterr()
    assert main(["report", str(results), "--out", str(tmp_path / "summary.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == \
        ["L1", "-", "3.0000", "nan", "ridge", "D_e6"]
    assert (tmp_path / "summary.csv").read_text().splitlines()[1] == \
        "L1,,3.0,nan,ridge,D_e6"


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
