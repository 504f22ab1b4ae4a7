"""Command-line surface: synthesize, inspect, run the grid, report.

All randomness flows from one root seed, output files carry no
timestamps, and grid cells are merged in sorted key order, so a rerun
with the same inputs is byte-identical. Validation failures exit 2 with
a message; success exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from typing import Optional, Sequence

from . import __version__, evaluation
from .ep import EP_COUNTS_CSV_HEADER, ep_counts
from .evaluation import (
    DEFAULT_K,
    DEFAULT_ZONE_WEIGHTS,
    LONG_CSV_HEADER,
    METRICS,
    EvalReport,
    PenaltyTable,
    cohort_scores,
    evaluate,  # noqa: F401 -- not called here; bench/traced.py times cli.evaluate
    evaluate_grid,
    improvement_csv,
    improvements,
    results_long_csv,
    wide_csv,
)
from .ingest import cleaning_csv, clean_cohort, parse_diary_csv
from .models import builtin_registry, registry_csv
from .records import encode_diary_csv
from .synth import PRESETS, config_from_json, generate
from .variants import DEFAULT_MIN_RECORDS, materialize, spec_by_id, variant_table_csv

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
    """Write through a temporary file and a rename. The file gets the
    mode ``open`` would give it, ``0o666`` less the umask, where
    ``mkstemp`` alone would leave it ``0o600``."""
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=".tmp-glybench-")
        os.fchmod(fd, 0o666 & ~umask)
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
    if args.out and not os.path.isdir(args.out):
        raise CliError(f"output directory does not exist: {args.out}")
    raw = _load_cohort(args.input)
    cleaned, reports = clean_cohort(raw)
    counts, ep_csv = _ep_counts_csv(cleaned)
    print(f"{'patient':<10}{'records':>8}{'cleaned':>8}{'ep':>6}")
    for pid, (total, ep) in counts.items():
        print(f"{pid:<10}{len(raw[pid]):>8}{total:>8}{ep:>6}")
    if args.out:
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


def _names(chunks: Sequence[str], flag: str, what: str) -> list[str]:
    """The distinct names a comma- or space-separated flag gives, in order."""
    names = list(dict.fromkeys(name for chunk in chunks for name in chunk.split(",") if name))
    if not names:
        raise CliError(f"{flag} is empty: name at least one {what}")
    return names


def cmd_run(args: argparse.Namespace) -> int:
    for flag, value, minimum in (("--k", args.k, 2), ("--min-records", args.min_records, 0),
                                 ("--jobs", args.jobs, 1)):
        if value < minimum:
            raise CliError(f"{flag} must be an integer >= {minimum}, got {value}")
    variant_ids = _names(args.variants, "--variants", "variant id")
    model_names = _names(args.models, "--models", "model name")
    if "naive" not in model_names:
        model_names.append("naive")  # reports are baseline-relative
    registry = builtin_registry()
    for name in model_names:
        if name not in registry:
            raise CliError(f"unknown model name {name!r}")
    specs = []
    for vid in variant_ids:
        try:
            specs.append(spec_by_id(vid))
        except KeyError:
            raise CliError(f"unknown variant id {vid!r}") from None

    penalty = PenaltyTable()
    if args.penalty_table:
        penalty = PenaltyTable.from_json(_read(args.penalty_table))

    if args.input:
        raw = _load_cohort(args.input)
    else:
        raw = generate(config_from_json(_read(args.synth)))

    out_dir = args.out
    _require_parent_dir(out_dir)
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise CliError(f"output path is not a directory: {out_dir}")

    cleaned, cleaning_reports = clean_cohort(raw)
    datasets = [materialize(cleaned, spec, min_records=args.min_records)
                for spec in specs]
    empty = [d.spec.id for d in datasets
             if not any(len(rows) >= args.k for rows in d.per_patient.values())]
    if empty:
        raise CliError(
            f"no patient met --min-records {args.min_records} (with at least "
            f"k={args.k} rows) in variant(s) {', '.join(empty)}: all "
            f"{len(cleaned)} patient(s) were excluded there, so those cells "
            f"would be empty"
        )
    static = [d.spec.id for d in datasets if d.spec.include_static
              and all(prep.arrays.static is None for prep in d.per_patient.values())]
    if static:
        raise CliError(
            f"variant(s) {', '.join(static)} use patient characteristics, but no "
            f"retained patient has any: the diary CSV has no columns for them "
            f"(see README, Data format)"
        )
    stacking = [name for name in model_names if registry[name].stacking]
    lone = [d.spec.id for d in datasets if len(d.per_patient) < 2]
    if stacking and lone:
        raise CliError(
            f"stacking models need at least two retained patients: "
            f"{', '.join(stacking)} cannot run on variant(s) {', '.join(lone)}, "
            f"which keep fewer than two patients at --min-records {args.min_records}"
        )

    results = evaluate_grid(datasets, [registry[name] for name in model_names], args.k,
                            args.seed, penalty, jobs=args.jobs)
    reports = list(results.values())
    # every patient no cell scored: under --min-records, or with fewer than k rows
    excluded = {d.spec.id: set(d.excluded_patients) for d in datasets}
    for (vid, _), report in results.items():
        excluded[vid].update(report.excluded_patients)

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
        "seed": args.seed,
        "k": args.k,
        "min_records": args.min_records,
        "variants": [s.id for s in specs],
        "models": model_names,
        "penalty_table": dict(penalty.weights),
        "excluded_patients": {vid: sorted(pids) for vid, pids in excluded.items()},
        **{
            name: {f"{v}/{m}": report.metadata[name] for (v, m), report in results.items()}
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

    The per-patient values of each (model, variant) are read in file
    order and go through ``cohort_scores`` and ``improvements``, as the
    ``wide_*`` and ``improvement_*`` tables do, so the figures equal
    those tables bit for bit. The winner is the lowest cohort loss (ties
    break on model then variant name), and improvement is relative to
    naive on the winning variant (NaN without a naive cell there).

    A row that ``run`` cannot have written (a wrong field count, an
    unknown metric, a value that is not a finite error >= 0, or a
    repeated (model, variant, metric, patient) key) raises a
    ``CliError`` naming its line.
    """
    lines = [(number, ln) for number, ln in enumerate(long_csv.splitlines(), start=1)
             if ln.strip()]
    if not lines or lines[0][1] != LONG_CSV_HEADER:
        raise CliError("results file is not a long-form results CSV")
    per_patient: dict[tuple[str, str], dict[str, dict[str, float]]] = {}
    line_of: dict[tuple[str, str, str, str], int] = {}
    for number, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 5:
            raise CliError(f"results file line {number}: expected 5 fields, got {len(fields)}")
        model, variant, metric, patient, text = fields
        if metric not in METRICS:
            raise CliError(f"results file line {number}: unknown metric {metric!r}")
        try:
            value = float(text)
        except ValueError:
            raise CliError(f"results file line {number}: value {text!r} is not a number") \
                from None
        if not (math.isfinite(value) and value >= 0.0):
            raise CliError(f"results file line {number}: value {text} is not a finite "
                           f"error >= 0")
        key = (model, variant, metric, patient)
        if key in line_of:
            raise CliError(f"results file line {number}: repeats line {line_of[key]} "
                           f"({model}, {variant}, {metric}, {patient})")
        line_of[key] = number
        per_patient.setdefault((model, variant), {}).setdefault(patient, {})[metric] = value
    seen = {metric for values in per_patient.values()
            for scores in values.values() for metric in scores}
    metrics = [metric for metric in METRICS if metric in seen]
    for (model, variant), values in per_patient.items():
        for patient, scores in values.items():
            missing = [metric for metric in metrics if metric not in scores]
            if missing:
                raise CliError(f"results file has no {missing[0]} value for {model} "
                               f"on {variant}, patient {patient}")
    cohorts = {key: cohort_scores(values, metrics) for key, values in per_patient.items()}
    summary = []
    for metric in metrics:
        best_model, best_variant = min(
            cohorts, key=lambda key: (cohorts[key][metric], key[0], key[1]))
        best = cohorts[best_model, best_variant]
        naive = cohorts.get(("naive", best_variant))
        summary.append(
            {
                "metric": metric,
                "naive_error": None if naive is None else naive[metric],
                "best_error": best[metric],
                "percent_improvement": (
                    float("nan") if naive is None else improvements(naive, best)[metric]),
                "best_model": best_model,
                "best_variant": best_variant,
            }
        )
    return summary


def _patients_per_variant(long_csv: str) -> dict[str, set[str]]:
    """The patients each variant of a checked results CSV scored."""
    patients: dict[str, set[str]] = {}
    for line in long_csv.splitlines()[1:]:
        if line.strip():
            _model, variant, _metric, patient, _value = line.split(",")
            patients.setdefault(variant, set()).add(patient)
    return patients


def cmd_report(args: argparse.Namespace) -> int:
    path = os.path.join(args.results, LONG_CSV_NAME)
    if not os.path.exists(path):
        raise CliError(f"no {LONG_CSV_NAME} in {args.results}")
    long_csv = _read(path)
    summary = summarize_results(long_csv)
    if not summary:
        raise CliError(
            f"{path} holds no per-patient results: no patient met the run's "
            f"--min-records, so every patient was excluded"
        )
    patients = _patients_per_variant(long_csv)
    if len({frozenset(pids) for pids in patients.values()}) > 1:
        counts = ", ".join(f"{vid} {len(pids)}" for vid, pids in patients.items())
        print(f"note: the variants scored different patients (patients per variant: "
              f"{counts}), so their cohort scores are means over different patients",
              file=sys.stderr)
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

    p = sub.add_parser(
        "run", help="run the model x variant grid",
        description="Evaluate each model on each dataset variant of one cohort under "
                    "contiguous k-fold cross-validation, next to the naive baseline, and "
                    "write the result tables to --out. The cohort is a diary CSV "
                    "(--input) or is generated from a synth config (--synth); only a "
                    "generated cohort keeps the patient characteristics that D_a5 and "
                    "D_e5 need.")
    cohort = p.add_mutually_exclusive_group(required=True)
    cohort.add_argument("--input", help="cohort CSV path")
    cohort.add_argument("--synth", metavar="FILE",
                        help="synth config JSON file, as `synth --config` reads it; its "
                             "seed seeds the cohort, --seed the evaluation")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="evaluation seed (default: %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default: %(default)s)")
    p.add_argument("--variants", nargs="*", default=DEFAULT_GRID_VARIANTS,
                   help=f"variant ids (default: {','.join(DEFAULT_GRID_VARIANTS)})")
    p.add_argument("--models", nargs="*", default=DEFAULT_GRID_MODELS,
                   help=f"model names; naive always runs "
                        f"(default: {','.join(DEFAULT_GRID_MODELS)})")
    p.add_argument("--k", type=int, default=DEFAULT_K,
                   help="folds per patient (default: %(default)s)")
    p.add_argument("--min-records", dest="min_records", type=int, default=DEFAULT_MIN_RECORDS,
                   help="rows a patient needs in a variant to be kept (default: %(default)s)")
    p.add_argument("--penalty-table", dest="penalty_table",
                   help=f"JSON file of zone -> weight "
                        f"(default: {json.dumps(DEFAULT_ZONE_WEIGHTS)})")
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
