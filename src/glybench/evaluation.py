"""Cross-validation, loss metrics and baseline-relative reporting.

Each patient's time-ordered rows are cut into k contiguous segments;
every segment serves once as the test fold while the rest train. A
patient's score per metric is a micro-average: every fold's predictions
fill one array in row order, then the metric is computed once over it
and the patient's actual glucose array. The baseline is the registry's
``naive`` entry, a cell like any other: every model is reported relative
to the naive cell of the same variant, which runs under the identical
fold plan. Cohort scores (:func:`cohort_scores`, unweighted means over
patients) and improvements over the baseline (:func:`improvements`)
come from one pair of functions, which the result tables and ``report``
both call.

Besides absolute, relative and squared losses, each metric has a
"glucose-specific" variant that multiplies each prediction's error by a
penalty keyed on the clinical-error zone of its (actual, predicted)
point, so e.g. missing hypoglycemia costs more than a near-miss at
normal levels. The zone weights are configuration, not science: load
them from a file to change them, use a unit table to recover the plain
metrics exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping, Optional, Sequence

import numpy as np

from .models import attach_stacked, fit_stacker
from .models.registry import ModelRegistryEntry, builtin_registry
from .records import MGDL_PER_MMOLL
from .variants import VariantDataset, rebuild_rows

METRICS = ("L1", "rL1", "RMSE", "gMAD", "gMARD", "gRMSE")

DEFAULT_K = 10


# ---------------------------------------------------------------------------
# Fold plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldPlan:
    n: int
    k: int
    bounds: tuple[tuple[int, int], ...]   # [start, stop) per fold

    def test_indices(self, j: int) -> list[int]:
        start, stop = self.bounds[j]
        return list(range(start, stop))

    def train_indices(self, j: int) -> list[int]:
        start, stop = self.bounds[j]
        return list(range(0, start)) + list(range(stop, self.n))

    def splits(self) -> list[tuple[list[int], list[int]]]:
        return [(self.train_indices(j), self.test_indices(j)) for j in range(self.k)]


def contiguous_kfold(n: int, k: int = DEFAULT_K) -> FoldPlan:
    """Split n time-ordered rows into k contiguous folds.

    Fold sizes differ by at most one; the earliest folds absorb the
    remainder. Requires n >= k >= 2.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} rows, got {n}")
    base, rem = divmod(n, k)
    bounds = []
    start = 0
    for j in range(k):
        size = base + (1 if j < rem else 0)
        bounds.append((start, start + size))
        start += size
    return FoldPlan(n=n, k=k, bounds=tuple(bounds))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _errors(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """``predicted - actual``, refusing empty input."""
    if not len(actual):
        raise ValueError("metrics need at least one prediction")
    return predicted - actual


def l1(predicted: np.ndarray, actual: np.ndarray) -> float:
    return _weighted(_errors(predicted, actual), 1.0, actual, "MAD")


def rl1(predicted: np.ndarray, actual: np.ndarray) -> float:
    return _weighted(_errors(predicted, actual), 1.0, actual, "MARD")


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    return _weighted(_errors(predicted, actual), 1.0, actual, "RMSE")


def clarke_zone(ref_mgdl, pred_mgdl) -> np.ndarray:
    """Clinical-error zone of each (reference, predicted) point, in mg/dl.

    Returns an array of one-letter zones, 0-d for scalar inputs. The
    conditions are tried in the order A, E, C, D; a point meeting none is B.
    """
    ref, pred = np.asarray(ref_mgdl, dtype=float), np.asarray(pred_mgdl, dtype=float)
    return np.select(
        [
            (np.abs(ref - pred) <= 0.2 * ref) | ((ref < 70) & (pred < 70)),
            ((ref >= 180) & (pred <= 70)) | ((ref <= 70) & (pred >= 180)),
            ((70 <= ref) & (ref <= 290) & (pred >= ref + 110))
            | ((130 <= ref) & (ref <= 180) & (pred <= (7.0 / 5.0) * ref - 182)),
            ((ref >= 240) & (70 <= pred) & (pred <= 180))
            | ((ref <= 175.0 / 3.0) & (70 <= pred) & (pred <= 180))
            | ((175.0 / 3.0 <= ref) & (ref <= 70) & (pred >= (6.0 / 5.0) * ref)),
        ],
        ["A", "E", "C", "D"],
        "B",
    )


ZONES = ("A", "B", "C", "D", "E")

DEFAULT_ZONE_WEIGHTS: dict[str, float] = {"A": 1.0, "B": 2.0, "C": 4.0, "D": 6.0, "E": 8.0}


class PenaltyConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PenaltyTable:
    """Multiplicative per-prediction weights keyed by clinical-error zone."""

    weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_ZONE_WEIGHTS)
    )

    def __post_init__(self):
        unknown = sorted(set(self.weights) - set(ZONES))
        if unknown:
            raise PenaltyConfigError(
                f"penalty table has unknown zone(s) {', '.join(unknown)}; "
                f"zones are {', '.join(ZONES)}"
            )
        for zone in ZONES:
            if zone not in self.weights:
                raise PenaltyConfigError(f"penalty table missing zone {zone}")
            if not math.isfinite(self.weights[zone]):
                raise PenaltyConfigError(
                    f"zone {zone} weight {self.weights[zone]} is not finite"
                )
            if self.weights[zone] < 1.0:
                raise PenaltyConfigError(
                    f"zone {zone} weight {self.weights[zone]} is below 1"
                )
        if self.weights["A"] != 1.0:
            raise PenaltyConfigError("accurate-zone (A) weight must be exactly 1")

    def weight(self, actual_mmoll, predicted_mmoll) -> np.ndarray:
        """The zone weight of each (actual, predicted) point, in mmol/L."""
        zones = clarke_zone(actual_mmoll * MGDL_PER_MMOLL, predicted_mmoll * MGDL_PER_MMOLL)
        table = np.array([float(self.weights[z]) for z in ZONES])
        return table[np.searchsorted(ZONES, zones)]  # ZONES is sorted

    @staticmethod
    def identity() -> "PenaltyTable":
        return PenaltyTable({z: 1.0 for z in ZONES})

    @staticmethod
    def from_json(text: str) -> "PenaltyTable":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise PenaltyConfigError("penalty table file must hold a zone->weight object")
        for zone, value in data.items():
            # bool is an int subclass; a JSON true is not a weight
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise PenaltyConfigError(
                    f"zone {zone} weight {value!r} is not a JSON number"
                )
        return PenaltyTable({str(k): float(v) for k, v in data.items()})


def _weighted(err: np.ndarray, w: np.ndarray | float, actual: np.ndarray, base: str) -> float:
    """MAD, MARD or RMSE of ``w * err``; a weight of 1.0 is exact."""
    if base == "MAD":
        return float(np.mean(w * np.abs(err)))
    if base == "MARD":
        return float(np.mean(w * np.abs(err) / actual))
    if base == "RMSE":
        return float(math.sqrt(np.mean((w * err) ** 2)))
    raise ValueError(f"unknown base metric {base!r}")


def g_metric(
    predicted: np.ndarray, actual: np.ndarray, penalty: PenaltyTable, base: str
) -> float:
    """Penalty-weighted variant of MAD, MARD or RMSE.

    Each prediction's error is multiplied by its zone weight before
    aggregation; for RMSE the weighted error is what gets squared. A unit
    table reproduces the base metric bit-for-bit.
    """
    return _weighted(_errors(predicted, actual), penalty.weight(actual, predicted), actual, base)


# each plain metric and the base its penalty-weighted variant weights
_BASES = (("L1", "MAD"), ("rL1", "MARD"), ("RMSE", "RMSE"))


def compute_metrics(
    predicted: np.ndarray, actual: np.ndarray, penalty: PenaltyTable
) -> dict[str, float]:
    """Every metric of :data:`METRICS`; the errors are taken and the
    points' zones classified once."""
    err = _errors(predicted, actual)
    w = penalty.weight(actual, predicted)
    return {
        **{name: _weighted(err, 1.0, actual, base) for name, base in _BASES},
        **{f"g{base}": _weighted(err, w, actual, base) for _, base in _BASES},
    }


def cohort_mean(values: Sequence[float]) -> float:
    """Cohort score: the unweighted mean of per-patient values, NaN if none."""
    return float(np.mean(values)) if len(values) else float("nan")


def cohort_scores(
    per_patient: Mapping[str, Mapping[str, float]], metrics: Sequence[str] = METRICS
) -> dict[str, float]:
    """Each metric's cohort score from ``{patient: {metric: value}}``.

    Every cohort figure (result tables, ``report`` summaries) goes through
    this one function, summing the patients in the mapping's order, so
    equal inputs give bit-identical outputs.
    """
    return {m: cohort_mean([scores[m] for scores in per_patient.values()])
            for m in metrics}


def percent_improvement(naive_value: float, model_value: float) -> float:
    """(naive - model) / naive, as a percentage.

    Differences below 1e-12 mmol/L count as zero, so two losses that are
    both rounding residue do not report a nonsense ratio.
    """
    if abs(naive_value - model_value) < 1e-12:
        return 0.0
    if naive_value == 0.0:
        return float("-inf")
    return (naive_value - model_value) / naive_value * 100.0


def improvements(
    naive: Mapping[str, float], model: Mapping[str, float]
) -> dict[str, float]:
    """The percent improvement of each of ``model``'s cohort scores over
    the naive cell's; every improvement figure goes through here."""
    return {m: percent_improvement(naive[m], value) for m, value in model.items()}


# ---------------------------------------------------------------------------
# Cross-validated evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """What one (model, variant) cell measured, per patient and in row
    order: the patient's fold plan, predictions and actual glucose, and
    the metrics over them. ``metadata`` holds the cell's counters over
    every fit: ``slot_fallbacks`` and ``pca_flags``."""

    model: str
    variant: str
    k: int
    per_patient: dict[str, dict[str, float]]
    excluded_patients: tuple[str, ...]
    metadata: dict[str, int]
    predicted: dict[str, np.ndarray]
    actual: dict[str, np.ndarray]
    folds: dict[str, FoldPlan]

    @cached_property  # read only after the fold pass has filled per_patient
    def cohort(self) -> dict[str, float]:
        return cohort_scores(self.per_patient)


def derive_seed(root_seed: int, *parts: object) -> int:
    """Stable sub-seed from the root seed and any hashable labels."""
    digest = hashlib.sha256(
        ("|".join([str(root_seed)] + [str(p) for p in parts])).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def sharing_groups(
    entries: Sequence[ModelRegistryEntry],
) -> list[list[ModelRegistryEntry]]:
    """The entries grouped by ``(algorithm, stacking)``, in first-seen order.

    The models of one group share fitted parts when :func:`evaluate_group`
    runs them in one fold pass: both patient-wide GPs of a stacking flag
    fit one patient-wide core per fold. Every other model is a group of one.
    """
    groups: dict[tuple[str, bool], list[ModelRegistryEntry]] = {}
    for entry in entries:
        groups.setdefault((entry.algorithm, entry.stacking), []).append(entry)
    return list(groups.values())


def evaluate(
    dataset: VariantDataset,
    entry: ModelRegistryEntry,
    k: int = DEFAULT_K,
    seed: int = 0,
    penalty: Optional[PenaltyTable] = None,
) -> EvalReport:
    """Contiguous k-fold evaluation of one model on one dataset variant."""
    return evaluate_group(dataset, [entry], k=k, seed=seed, penalty=penalty)[0]


def evaluate_group(
    dataset: VariantDataset,
    entries: Sequence[ModelRegistryEntry],
    k: int = DEFAULT_K,
    seed: int = 0,
    penalty: Optional[PenaltyTable] = None,
) -> list[EvalReport]:
    """Contiguous k-fold evaluation of models on one dataset variant, one
    report per entry, in one pass over patients and folds.

    Per training fold, imputation means are recomputed from the records
    the training rows touch, and each model refits its own
    standardization/PCA on the training rows, so no test-fold
    information reaches the fit. Only a patient with mean-policy gaps
    (``PreparedPatient.needs_fold_means``) has a design the means can
    change; any other patient's folds slice its materialized design.
    Patients with fewer than k rows are excluded and reported. Each
    fold's train and test designs are built once and handed to every
    entry. The entries must agree on ``stacking``; a stacking group fits
    one ridge stacker per patient. The reports hold only what each cell
    measured: the baseline is the ``naive`` entry's own cell (see
    :func:`improvements`).
    """
    if len({entry.stacking for entry in entries}) != 1:
        raise ValueError("evaluate_group needs one or more entries that agree on stacking")
    stacking = entries[0].stacking
    penalty = penalty if penalty is not None else PenaltyTable()
    cfg = dataset.feature_config
    patient_ids = sorted(dataset.per_patient)
    if stacking and len(patient_ids) < 2:
        raise ValueError("stacking models need at least two retained patients")
    stacker_entry = builtin_registry()["ridge"]  # the learner behind the stacked column

    excluded = tuple(pid for pid in patient_ids if len(dataset.per_patient[pid]) < k)
    actual: dict[str, np.ndarray] = {}
    folds: dict[str, FoldPlan] = {}
    # filled in as the pass measures each cell
    reports = [
        EvalReport(model=entry.name, variant=dataset.spec.id, k=k, per_patient={},
                   excluded_patients=excluded,
                   metadata={"slot_fallbacks": 0, "pca_flags": 0},
                   predicted={}, actual=actual, folds=folds)
        for entry in entries
    ]
    for pid in patient_ids:
        if pid in excluded:
            continue
        prep = dataset.per_patient[pid]
        plan = folds[pid] = contiguous_kfold(len(prep), k)
        starts = np.array(prep.row_starts, dtype=np.intp)

        stacker = None
        if stacking:
            others = [dataset.per_patient[q].design for q in patient_ids if q != pid]
            stacker = fit_stacker(
                stacker_entry.build(cfg, derive_seed(seed, "stack", dataset.spec.id, pid)),
                others,
            )
        if not prep.needs_fold_means:
            design = prep.design
            if stacker is not None:
                design = attach_stacked(stacker, design)

        actual[pid] = prep.design.target_bg  # a fold rebuild keeps the targets
        for report in reports:
            report.predicted[pid] = np.empty(len(prep))
        for j, (train_idx, test_idx) in enumerate(plan.splits()):
            if prep.needs_fold_means:
                # the records the training rows read: each row's own and its target's
                train_starts = starts[train_idx]
                design = rebuild_rows(prep, np.union1d(train_starts, train_starts + 1))
                if stacker is not None:
                    design = attach_stacked(stacker, design)
            # every entry gets these two designs, so fitted parts cached on
            # train.shared are shared within the fold
            train, test = design[train_idx], design[test_idx]
            for entry, report in zip(entries, reports):
                name = entry.name
                model = entry.build(
                    cfg, seed=derive_seed(seed, dataset.spec.id, name, pid, j)
                )
                model.fit(train)
                fold = model.predict(test)
                if fold.shape != (len(test),):
                    raise ValueError(f"{name} returned {fold.shape} predictions "
                                     f"for {len(test)} test rows")
                bad = ~(np.isfinite(fold) & (fold > 0))
                if bad.any():
                    raise ValueError(
                        f"{name} predicted {float(fold[bad][0])!r} mmol/L on variant "
                        f"{dataset.spec.id}, patient {pid}, fold {j}: predictions must "
                        f"be finite and > 0"
                    )
                report.predicted[pid][test_idx] = fold
                report.metadata["slot_fallbacks"] += getattr(model, "fallback_count", 0)
                pipeline = getattr(model, "pipeline", None)
                if pipeline is not None and (
                    pipeline.pca_skipped
                    or (pipeline.pca is not None and pipeline.pca.rank_deficient)
                ):
                    report.metadata["pca_flags"] += 1

        for report in reports:
            report.per_patient[pid] = compute_metrics(report.predicted[pid], actual[pid],
                                                      penalty)
    return reports


def evaluate_grid(
    datasets: Sequence[VariantDataset],
    entries: Sequence[ModelRegistryEntry],
    k: int = DEFAULT_K,
    seed: int = 0,
    penalty: Optional[PenaltyTable] = None,
    jobs: int = 1,
) -> dict[tuple[str, str], EvalReport]:
    """Every (variant, model) cell of ``datasets`` x ``entries``, keyed
    ``(variant id, model name)`` in sorted order. Each (dataset,
    :func:`sharing_groups` group) is one :func:`evaluate_group` task;
    ``jobs`` > 1 runs the tasks in a pool of ``min(jobs, tasks)``
    processes. No task reads another's results, so every ``jobs`` gives
    the same bits.
    """
    groups = sharing_groups(entries)
    tasks = [(dataset, group) for dataset in datasets for group in groups]
    task = partial(evaluate_group, k=k, seed=seed, penalty=penalty)
    if jobs == 1 or not tasks:
        done = [task(*t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # a serial grid needs no pool
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            done = list(pool.map(task, *zip(*tasks)))
    cells = {(r.variant, r.model): r for reports in done for r in reports}
    return {key: cells[key] for key in sorted(cells)}


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

LONG_CSV_HEADER = "model,variant,metric,patient,value"


def results_long_csv(reports: Sequence[EvalReport], metrics: Sequence[str] = METRICS) -> str:
    lines = [LONG_CSV_HEADER]
    for r in reports:
        for metric in metrics:
            for pid in sorted(r.per_patient):
                lines.append(
                    f"{r.model},{r.variant},{metric},{pid},{r.per_patient[pid][metric]!r}"
                )
    return "\n".join(lines) + "\n"


def _table(reports: Sequence[EvalReport], value_of) -> str:
    """Rows = variants, columns = models; ``value_of(report)`` fills a cell."""
    variants = sorted({r.variant for r in reports})
    models = sorted({r.model for r in reports})
    by_key = {(r.variant, r.model): r for r in reports}
    lines = ["variant," + ",".join(models)]
    for v in variants:
        cells = []
        for m in models:
            r = by_key.get((v, m))
            cells.append("" if r is None else repr(value_of(r)))
        lines.append(v + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def wide_csv(reports: Sequence[EvalReport], metric: str) -> str:
    """Cohort losses, rows = variants, columns = models (heatmap-ready)."""
    return _table(reports, lambda r: r.cohort[metric])


def improvement_csv(reports: Sequence[EvalReport], metric: str) -> str:
    """Percent improvement over the same variant's ``naive`` cell (NaN
    without one), same shape as wide_csv."""
    naive = {r.variant: r.cohort for r in reports if r.model == "naive"}
    return _table(reports, lambda r: (
        improvements(naive[r.variant], r.cohort)[metric] if r.variant in naive
        else float("nan")))
