"""Output checks for the benchmark, written without importing glybench.

Every check returns a list of ``(operation, message)`` errors, empty when
the check passes. ``operation`` names what the error is charged to:
``cell:<variant>/<model>`` for one grid cell, ``run`` for every cell of
the run (a whole-file fault), ``report``, or the name a caller passes.

The recomputations are independent of the library: cohort means use
``math.fsum`` and the naive baseline is re-derived from the raw cohort
CSV with the ``csv`` module alone.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from typing import Iterable

METRICS = ("L1", "rL1", "RMSE", "gMAD", "gMARD", "gRMSE")
# (glucose-specific metric, plain metric it can never undercut)
WEIGHTED_PAIRS = (("gMAD", "L1"), ("gMARD", "rL1"), ("gRMSE", "RMSE"))
ORACLE_VARIANT = "D_a6"
TOLERANCE = 1e-9

Error = tuple[str, str]


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _cell(variant: str, model: str) -> str:
    return f"cell:{variant}/{model}"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


# ---------------------------------------------------------------------------
# Naive-baseline oracle
# ---------------------------------------------------------------------------

def cleaned_glucose(cohort_csv: str) -> dict[str, list[float]]:
    """Per patient, cleaned glucose in time order.

    Rows without glucose or date are dropped, readings below 1 are
    clamped to 1, and records sort by date then time (stable, missing
    time first), as the diary parser orders them.
    """
    records: dict[str, list[tuple[str, str, float]]] = {}
    for row in _rows(cohort_csv):
        if row["bg"] == "" or row["date"] == "":
            continue
        bg = max(float(row["bg"]), 1.0)
        records.setdefault(row["patient_id"], []).append(
            (row["date"], row["time"] or "00:00:00", bg)
        )
    return {
        pid: [bg for _, _, bg in sorted(recs, key=lambda r: (r[0], r[1]))]
        for pid, recs in records.items()
    }


def fold_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """k contiguous [start, stop) folds; the earliest absorb the remainder."""
    base, rem = divmod(n, k)
    bounds, start = [], 0
    for j in range(k):
        stop = start + base + (1 if j < rem else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def naive_oracle(
    cohort_csv: str, k: int, min_records: int
) -> dict[str, dict[str, float]]:
    """Naive L1, rL1 and RMSE per retained patient on the all-records variant.

    Targets are ``bg[1:]``; each test fold is predicted by the mean of the
    other folds' targets, and the pairs of all folds are pooled.
    """
    out = {}
    for pid, bg in cleaned_glucose(cohort_csv).items():
        targets = bg[1:]
        n = len(targets)
        if n < max(min_records, k):
            continue
        abs_err, rel_err, sq_err = [], [], []
        for start, stop in fold_bounds(n, k):
            train = targets[:start] + targets[stop:]
            predicted = math.fsum(train) / len(train)
            for actual in targets[start:stop]:
                abs_err.append(abs(predicted - actual))
                rel_err.append(abs(predicted - actual) / actual)
                sq_err.append((predicted - actual) ** 2)
        out[pid] = {
            "L1": math.fsum(abs_err) / n,
            "rL1": math.fsum(rel_err) / n,
            "RMSE": math.sqrt(math.fsum(sq_err) / n),
        }
    return out


def per_patient(results_dir: str) -> dict[tuple[str, str, str], dict[str, float]]:
    """``results_long.csv`` as {(model, variant, metric): {patient: value}}."""
    values: dict[tuple[str, str, str], dict[str, float]] = {}
    for row in _rows(os.path.join(results_dir, "results_long.csv")):
        key = (row["model"], row["variant"], row["metric"])
        values.setdefault(key, {})[row["patient"]] = float(row["value"])
    return values


def check_naive_oracle(
    results_dir: str, cohort_csv: str, k: int, min_records: int
) -> list[Error]:
    expected = naive_oracle(cohort_csv, k, min_records)
    values = per_patient(results_dir)
    op = _cell(ORACLE_VARIANT, "naive")
    errors = []
    for metric in ("L1", "rL1", "RMSE"):
        got = values.get(("naive", ORACLE_VARIANT, metric), {})
        if sorted(got) != sorted(expected):
            errors.append((op, f"naive {metric}: patients {sorted(got)} "
                               f"!= oracle {sorted(expected)}"))
            continue
        for pid in sorted(expected):
            if not _close(got[pid], expected[pid][metric]):
                errors.append((op, f"naive {metric} {pid}: {got[pid]!r} "
                                   f"!= oracle {expected[pid][metric]!r}"))
    return errors


# ---------------------------------------------------------------------------
# Table consistency
# ---------------------------------------------------------------------------

def cohort_means(results_dir: str) -> dict[tuple[str, str, str], float]:
    """fsum cohort mean per (model, variant, metric)."""
    return {
        key: math.fsum(v.values()) / len(v)
        for key, v in per_patient(results_dir).items()
    }


def percent_improvement(naive: float, model: float) -> float:
    if abs(naive - model) < 1e-12:
        return 0.0
    if naive == 0.0:
        return float("-inf")
    return (naive - model) / naive * 100.0


def _wide(path: str) -> dict[tuple[str, str], str]:
    """A variant x model table as {(variant, model): cell text}."""
    return {
        (row["variant"], model): text
        for row in _rows(path)
        for model, text in row.items()
        if model != "variant"
    }


def check_tables(
    results_dir: str, variants: Iterable[str], models: Iterable[str]
) -> list[Error]:
    """wide_* and improvement_* cells against fsum means of results_long."""
    means = cohort_means(results_dir)
    errors = []
    cells = [(v, m) for v in variants for m in models]
    for metric in METRICS:
        wide = _wide(os.path.join(results_dir, f"wide_{metric}.csv"))
        improvement = _wide(os.path.join(results_dir, f"improvement_{metric}.csv"))
        for variant, model in cells:
            op = _cell(variant, model)
            mean = means.get((model, variant, metric))
            naive = means.get(("naive", variant, metric))
            if mean is None or naive is None:
                errors.append((op, f"{metric}: no per-patient values"))
                continue
            for name, table, expected in (
                ("wide", wide, mean),
                ("improvement", improvement, percent_improvement(naive, mean)),
            ):
                text = table.get((variant, model), "")
                if text == "":
                    errors.append((op, f"{name}_{metric}.csv: missing cell"))
                elif not _close(float(text), expected):
                    errors.append((op, f"{name}_{metric}.csv: {text} != "
                                       f"recomputed {expected!r}"))
    return errors


SUMMARY_HEADER = [
    "metric", "naive_error", "best_error", "percent_improvement",
    "best_model", "best_variant",
]


def check_summary(results_dir: str, summary_csv: str) -> list[Error]:
    """The `report` summary against the best fsum cohort mean per metric."""
    means = cohort_means(results_dir)
    with open(summary_csv, newline="", encoding="utf-8") as f:
        header = next(csv.reader(f), [])
    if header != SUMMARY_HEADER:
        return [("report", f"summary header {header}")]
    rows = {row["metric"]: row for row in _rows(summary_csv)}
    errors = []
    for metric in METRICS:
        cells = {(m, v): val for (m, v, mm), val in means.items() if mm == metric}
        model, variant = min(cells, key=lambda c: (cells[c], c[0], c[1]))
        best = cells[(model, variant)]
        naive = cells[("naive", variant)]
        pct = 0.0 if naive == best else (naive - best) / naive * 100.0
        row = rows.get(metric)
        if row is None:
            errors.append(("report", f"summary lacks {metric}"))
            continue
        if (row["best_model"], row["best_variant"]) != (model, variant):
            errors.append(("report", f"{metric}: best {row['best_model']}/"
                                     f"{row['best_variant']} != {model}/{variant}"))
            continue
        for column, expected in (("naive_error", naive), ("best_error", best),
                                 ("percent_improvement", pct)):
            if not _close(float(row[column]), expected):
                errors.append(("report", f"{metric} {column}: {row[column]} "
                                         f"!= recomputed {expected!r}"))
    return errors


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def check_losses(results_dir: str) -> list[Error]:
    """Losses finite and positive; zone weights >= 1 never lower a loss."""
    values = per_patient(results_dir)
    errors = []
    for (model, variant, metric), by_pid in sorted(values.items()):
        for pid, value in sorted(by_pid.items()):
            if not (math.isfinite(value) and value > 0.0):
                errors.append((_cell(variant, model),
                               f"{metric} {pid}: loss {value!r} not finite and > 0"))
    for model, variant in sorted({(m, v) for m, v, _ in values}):
        for weighted, plain in WEIGHTED_PAIRS:
            w = values.get((model, variant, weighted), {})
            p = values.get((model, variant, plain), {})
            for pid in sorted(set(w) | set(p)):
                if pid not in w or pid not in p or w[pid] < p[pid]:
                    errors.append((_cell(variant, model),
                                   f"{pid}: {weighted} {w.get(pid)!r} < "
                                   f"{plain} {p.get(pid)!r}"))
    return errors


def check_ep_counts(
    path: str, cleaned_counts: dict[str, int], op: str
) -> list[Error]:
    """ep_count <= total, and total equals the cleaned record count."""
    errors = []
    rows = _rows(path)
    if sorted(r["patient_id"] for r in rows) != sorted(cleaned_counts):
        errors.append((op, f"{os.path.basename(path)}: patients differ from cohort"))
    for row in rows:
        total, ep = int(row["total"]), int(row["ep_count"])
        pid = row["patient_id"]
        if not 0 <= ep <= total:
            errors.append((op, f"{pid}: ep_count {ep} outside [0, total {total}]"))
        if total != cleaned_counts.get(pid):
            errors.append((op, f"{pid}: total {total} != cleaned "
                               f"{cleaned_counts.get(pid)}"))
    return errors


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def file_hash(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tree_hashes(root: str) -> dict[str, str]:
    """sha256 of every file in a directory (not recursive)."""
    return {
        name: file_hash(os.path.join(root, name))
        for name in sorted(os.listdir(root))
        if os.path.isfile(os.path.join(root, name))
    }


def check_same_files(
    expected: dict[str, str], got: dict[str, str], op: str, what: str
) -> list[Error]:
    differing = sorted(n for n in set(expected) | set(got)
                       if expected.get(n) != got.get(n))
    return [(op, f"{what}: {name} differs") for name in differing]


# ---------------------------------------------------------------------------
# All output checks of one round
# ---------------------------------------------------------------------------

def guarded(op: str, check, *args) -> list[Error]:
    """Run one check; a missing file or malformed table fails ``op``."""
    try:
        return check(*args)
    except (OSError, KeyError, ValueError) as e:
        return [(op, f"{check.__name__}: {e!r}")]


def cleaned_counts(cohort_csv: str) -> dict[str, int]:
    return {pid: len(bg) for pid, bg in cleaned_glucose(cohort_csv).items()}


def check_outputs(
    results_dir: str,
    summary_csv: str,
    cohort_csv: str,
    variants: Iterable[str],
    models: Iterable[str],
    k: int,
    min_records: int,
) -> list[Error]:
    """Every check on the output of one `run` and its `report`."""
    return (
        guarded("run", check_naive_oracle, results_dir, cohort_csv, k, min_records)
        + guarded("run", check_tables, results_dir, list(variants), list(models))
        + guarded("report", check_summary, results_dir, summary_csv)
        + guarded("run", check_losses, results_dir)
        + guarded("run", check_ep_counts, os.path.join(results_dir, "ep_counts.csv"),
                  cleaned_counts(cohort_csv), "run")
    )
