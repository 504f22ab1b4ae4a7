"""Command-line surface: synthesize, inspect, run the grid, report.

All randomness flows from one root seed, output files carry no
timestamps, and grid cells are merged in sorted key order, so a rerun
with the same inputs is byte-identical. Validation failures exit 2 with
a message; success exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Optional, Sequence

from . import __version__, evaluation
from .ep import EP_COUNTS_CSV_HEADER, ep_counts
from .evaluation import (
    METRICS,
    EvalReport,
    PenaltyTable,
    cohort_mean,
    evaluate,
    improvement_csv,
    percent_improvement,
    results_long_csv,
    wide_csv,
)
from .ingest import cleaning_csv, clean_cohort, parse_diary_csv
from .models import builtin_registry, registry_csv
from .records import encode_diary_csv
from .synth import PRESETS, config_from_json, generate
from .variants import materialize, spec_by_id, variant_table_csv

LONG_CSV_NAME = "results_long.csv"


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _write_atomic(path: str, text: str) -> None:
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=".tmp-glybench-")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _require_parent_dir(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise CliError(f"output directory does not exist: {parent}")


def _load_cohort(path: str):
    return parse_diary_csv(_read(path))


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be an integer >= 0, got {args.seed}")
    cfg = config_from_json(_read(args.config)) if args.config else PRESETS[args.preset]()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    _require_parent_dir(args.out)
    cohort = generate(cfg)
    _write_atomic(args.out, encode_diary_csv(cohort))
    print(f"wrote {sum(len(h) for h in cohort.values())} records "
          f"for {len(cohort)} patients to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def _ep_counts_csv(cleaned) -> tuple[dict[str, tuple[int, int]], str]:
    """Per patient (total, expert-predictable) counts, and their CSV."""
    counts = {pid: ep_counts(cleaned[pid]) for pid in sorted(cleaned)}
    lines = [EP_COUNTS_CSV_HEADER]
    lines += [f"{pid},{total},{ep}" for pid, (total, ep) in counts.items()]
    return counts, "\n".join(lines) + "\n"


def cmd_inspect(args: argparse.Namespace) -> int:
    raw = _load_cohort(args.input)
    cleaned, reports = clean_cohort(raw)
    counts, ep_csv = _ep_counts_csv(cleaned)
    print(f"{'patient':<10}{'records':>8}{'cleaned':>8}{'ep':>6}")
    for pid, (total, ep) in counts.items():
        print(f"{pid:<10}{len(raw[pid]):>8}{total:>8}{ep:>6}")
    if args.out:
        if not os.path.isdir(args.out):
            raise CliError(f"output directory does not exist: {args.out}")
        _write_atomic(os.path.join(args.out, "ep_counts.csv"), ep_csv)
        _write_atomic(os.path.join(args.out, "cleaning.csv"), cleaning_csv(reports))
        _write_atomic(os.path.join(args.out, "variants.csv"), variant_table_csv())
        _write_atomic(os.path.join(args.out, "models.csv"), registry_csv())
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

DEFAULT_GRID_VARIANTS = ("D_e1", "D_e2", "D_e6", "D_e12", "D_a1", "D_a6", "D_a8", "D_a12")
DEFAULT_GRID_MODELS = (
    "naive", "ridge", "KNN10U", "rf4",
    "gpr_IndPat_AllMeals", "gpr_be", "gpr_be_AllPat_AllMeals",
)


def _grid_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        cfg = json.loads(_read(args.config))
        if not isinstance(cfg, dict):
            raise CliError("grid config must be a JSON object")
    for key in ("input", "out", "seed", "k", "min_records", "penalty_table", "jobs"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if args.variants:
        cfg["variants"] = [v for chunk in args.variants for v in chunk.split(",") if v]
    if args.models:
        cfg["models"] = [m for chunk in args.models for m in chunk.split(",") if m]
    cfg.setdefault("variants", list(DEFAULT_GRID_VARIANTS))
    cfg.setdefault("models", list(DEFAULT_GRID_MODELS))
    cfg.setdefault("k", 10)
    cfg.setdefault("min_records", 100)
    cfg.setdefault("seed", 0)
    cfg.setdefault("fold_local_stats", True)
    if "jobs" not in cfg:
        env = os.environ.get("GLYBENCH_JOBS", "1")
        try:
            cfg["jobs"] = int(env)
        except ValueError:
            raise CliError(f"GLYBENCH_JOBS must be an integer >= 1, got {env!r}") from None
    if "out" not in cfg:
        raise CliError("no output directory: pass --out or set 'out' in the config")
    _check_grid_config(cfg)
    return cfg


GRID_CONFIG_KEYS = ("input", "out", "synth", "seed", "k", "min_records", "penalty_table",
                    "jobs", "variants", "models", "fold_local_stats")


def _check_grid_config(cfg: dict) -> None:
    """Reject an unknown key, or a grid value of the wrong type or range,
    naming the key."""
    def bad(key: str, need: str) -> CliError:
        return CliError(f"config key '{key}' must be {need}, got {cfg[key]!r}")

    for key in cfg:
        if key not in GRID_CONFIG_KEYS:
            raise CliError(f"unknown config key {key!r}; known keys: "
                           f"{', '.join(GRID_CONFIG_KEYS)}")

    for key, minimum in (("k", 2), ("min_records", 0), ("seed", None), ("jobs", 1)):
        value = cfg[key]
        # bool is an int subclass; a JSON true is not a count
        if isinstance(value, bool) or not isinstance(value, int) or (
            minimum is not None and value < minimum
        ):
            raise bad(key, "an integer" + ("" if minimum is None else f" >= {minimum}"))
    if not isinstance(cfg["fold_local_stats"], bool):
        raise bad("fold_local_stats", "true or false")
    for key in ("variants", "models"):
        if not isinstance(cfg[key], list) or not all(isinstance(v, str) for v in cfg[key]):
            raise bad(key, "a list of strings")
    if not cfg["variants"]:
        raise bad("variants", "a non-empty list of variant ids")
    for key in ("input", "out", "penalty_table"):
        if cfg.get(key) is not None and not isinstance(cfg[key], str):
            raise bad(key, "a path string")


def _evaluate_cell(task) -> tuple[tuple[str, str], EvalReport]:
    dataset, model_name, k, seed, weights, fold_local = task
    entry = builtin_registry()[model_name]
    report = evaluate(
        dataset,
        entry,
        k=k,
        seed=seed,
        penalty=PenaltyTable(weights),
        fold_local_stats=fold_local,
    )
    return (dataset.spec.id, model_name), report


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _grid_config(args)

    model_names = list(dict.fromkeys(cfg["models"]))
    if "naive" not in model_names:
        model_names.append("naive")  # reports are baseline-relative
    registry = builtin_registry()
    for name in model_names:
        if name not in registry:
            raise CliError(f"unknown model name {name!r}")
    specs = []
    for vid in dict.fromkeys(cfg["variants"]):
        try:
            specs.append(spec_by_id(vid))
        except KeyError:
            raise CliError(f"unknown variant id {vid!r}") from None

    penalty_weights = dict(PenaltyTable().weights)
    if cfg.get("penalty_table"):
        penalty_weights = dict(PenaltyTable.from_json(_read(cfg["penalty_table"])).weights)

    if cfg.get("input"):
        raw = _load_cohort(cfg["input"])
    elif cfg.get("synth"):
        raw = generate(config_from_json(json.dumps(cfg["synth"])))
    else:
        raise CliError("no cohort: pass --input or set 'input'/'synth' in the config")

    out_dir = cfg["out"]
    _require_parent_dir(out_dir)
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise CliError(f"output path is not a directory: {out_dir}")

    cleaned, cleaning_reports = clean_cohort(raw)
    datasets = [materialize(cleaned, spec, min_records=cfg["min_records"])
                for spec in specs]
    empty = [d.spec.id for d in datasets
             if not any(len(rows) >= cfg["k"] for rows in d.per_patient.values())]
    if empty:
        raise CliError(
            f"no patient met --min-records {cfg['min_records']} (with at least "
            f"k={cfg['k']} rows) in variant(s) {', '.join(empty)}: all "
            f"{len(cleaned)} patient(s) were excluded there, so those cells "
            f"would be empty"
        )
    stacking = [name for name in model_names if registry[name].stacking]
    lone = [d.spec.id for d in datasets if len(d.per_patient) < 2]
    if stacking and lone:
        raise CliError(
            f"stacking models need at least two retained patients: "
            f"{', '.join(stacking)} cannot run on variant(s) {', '.join(lone)}, "
            f"which keep fewer than two patients at --min-records {cfg['min_records']}"
        )

    tasks = [
        (dataset, model_name, cfg["k"], cfg["seed"], penalty_weights,
         cfg["fold_local_stats"])
        for dataset in datasets
        for model_name in model_names
    ]
    jobs = cfg["jobs"]
    results: dict[tuple[str, str], EvalReport] = {}
    if jobs == 1:
        for task in tasks:
            key, report = _evaluate_cell(task)
            results[key] = report
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for key, report in pool.map(_evaluate_cell, tasks):
                results[key] = report

    reports = [results[key] for key in sorted(results)]

    # made after every cell is evaluated, so a failing cell leaves none behind
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, LONG_CSV_NAME), results_long_csv(reports))
    for metric in METRICS:
        _write_atomic(
            os.path.join(out_dir, f"long_{metric}.csv"),
            _single_metric_long(reports, metric),
        )
        _write_atomic(os.path.join(out_dir, f"wide_{metric}.csv"),
                      wide_csv(reports, metric))
        _write_atomic(os.path.join(out_dir, f"improvement_{metric}.csv"),
                      improvement_csv(reports, metric))
    _write_atomic(os.path.join(out_dir, "ep_counts.csv"), _ep_counts_csv(cleaned)[1])
    _write_atomic(os.path.join(out_dir, "cleaning.csv"), cleaning_csv(cleaning_reports))
    meta = {
        "version": __version__,
        "seed": cfg["seed"],
        "k": cfg["k"],
        "min_records": cfg["min_records"],
        "variants": [s.id for s in specs],
        "models": model_names,
        "fold_local_stats": cfg["fold_local_stats"],
        "penalty_table": penalty_weights,
        "excluded_patients": {
            d.spec.id: list(d.excluded_patients) for d in datasets
        },
        **{
            name: {f"{v}/{m}": results[v, m].metadata[name] for v, m in sorted(results)}
            for name in ("pca_flags", "slot_fallbacks")
        },
    }
    _write_atomic(os.path.join(out_dir, "run_meta.json"),
                  json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"evaluated {len(specs)} variants x {len(model_names)} models "
          f"-> {out_dir}")
    return 0


def _single_metric_long(reports: Sequence[EvalReport], metric: str) -> str:
    # through the module, not cli.results_long_csv: bench/traced.py times
    # both cli names, and a nested call would count these rows twice
    return evaluation.results_long_csv(reports, metrics=(metric,))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

SUMMARY_CSV_HEADER = (
    "metric,naive_error,best_error,percent_improvement,best_model,best_variant"
)


def summarize_results(long_csv: str) -> list[dict[str, object]]:
    """Best (model, variant) per metric with the naive reference value.

    Cohort values are unweighted means of the per-patient entries, taken
    as ``evaluate`` takes them, so they equal the ``wide_*`` tables bit
    for bit; the winner is the lowest cohort loss (ties break on model
    then variant name), and improvement is always relative to naive on
    the winning variant, as in the ``improvement_*`` tables.
    """
    lines = [ln for ln in long_csv.splitlines() if ln.strip()]
    if not lines or lines[0] != "model,variant,metric,patient,value":
        raise CliError("results file is not a long-form results CSV")
    values: dict[tuple[str, str, str], list[float]] = {}
    for ln in lines[1:]:
        model, variant, metric, _patient, value = ln.split(",")
        values.setdefault((metric, model, variant), []).append(float(value))
    cohort = {key: cohort_mean(v) for key, v in values.items()}
    summary = []
    for metric in METRICS:
        cells = {
            (model, variant): val
            for (m, model, variant), val in cohort.items()
            if m == metric
        }
        if not cells:
            continue
        best_model, best_variant = min(cells, key=lambda k: (cells[k], k[0], k[1]))
        best = cells[(best_model, best_variant)]
        naive = cells.get(("naive", best_variant))
        pct = float("nan") if naive is None else percent_improvement(naive, best)
        summary.append(
            {
                "metric": metric,
                "naive_error": naive,
                "best_error": best,
                "percent_improvement": pct,
                "best_model": best_model,
                "best_variant": best_variant,
            }
        )
    return summary


def cmd_report(args: argparse.Namespace) -> int:
    path = os.path.join(args.results, LONG_CSV_NAME)
    if not os.path.exists(path):
        raise CliError(f"no {LONG_CSV_NAME} in {args.results}")
    summary = summarize_results(_read(path))
    if not summary:
        raise CliError(
            f"{path} holds no per-patient results: no patient met the run's "
            f"--min-records, so every patient was excluded"
        )
    lines = [SUMMARY_CSV_HEADER]
    print(f"{'metric':<8}{'naive':>10}{'best':>10}{'improv%':>10}  "
          f"{'best model':<24}{'variant'}")
    for row in summary:
        naive = "" if row["naive_error"] is None else repr(row["naive_error"])
        lines.append(
            f"{row['metric']},{naive},{row['best_error']!r},"
            f"{row['percent_improvement']!r},{row['best_model']},{row['best_variant']}"
        )
        naive_s = "-" if row["naive_error"] is None else f"{row['naive_error']:.4f}"
        print(
            f"{row['metric']:<8}{naive_s:>10}{row['best_error']:>10.4f}"
            f"{row['percent_improvement']:>10.2f}  {row['best_model']:<24}"
            f"{row['best_variant']}"
        )
    if args.out:
        _require_parent_dir(args.out)
        _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glybench",
        description="meal-to-meal blood glucose prediction benchmark",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic diary cohort CSV")
    p.add_argument("--config", help="synth config JSON file")
    p.add_argument("--preset", choices=sorted(PRESETS), default="default")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="summarize a diary cohort CSV")
    p.add_argument("--input", required=True, help="cohort CSV path")
    p.add_argument("--out", help="directory for ep_counts/cleaning/variants/models CSVs")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("run", help="run the model x variant grid")
    p.add_argument("--config", help="grid config JSON file")
    p.add_argument("--input", help="cohort CSV path")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel workers (default: $GLYBENCH_JOBS or 1)")
    p.add_argument("--variants", nargs="*", help="variant ids")
    p.add_argument("--models", nargs="*", help="model names")
    p.add_argument("--k", type=int, default=None, help="folds per patient")
    p.add_argument("--min-records", dest="min_records", type=int, default=None)
    p.add_argument("--penalty-table", dest="penalty_table",
                   help="JSON file of zone -> weight")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="summarize a results directory")
    p.add_argument("results", help="directory produced by `run`")
    p.add_argument("--out", help="summary CSV path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
