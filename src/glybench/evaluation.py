"""Cross-validation, loss metrics and baseline-relative reporting.

Each patient's time-ordered rows are cut into k contiguous segments;
every segment serves once as the test fold while the rest train. A
patient's score per metric is a micro-average: every fold's predictions
fill one array in row order, then the metric is computed once over it
and the patient's actual glucose array. Cohort scores are unweighted
means over patients, and every model is reported relative to the naive
mean-predicting baseline evaluated under the identical fold plan.

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
from typing import Mapping, Optional, Sequence

import numpy as np

from .models import NaivePredictor, attach_stacked, fit_stacker
from .models.registry import ModelRegistryEntry
from .records import MGDL_PER_MMOLL
from .variants import VariantDataset, rebuild_rows

METRICS = ("L1", "rL1", "RMSE", "gMAD", "gMARD", "gRMSE")


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


def contiguous_kfold(n: int, k: int = 10) -> FoldPlan:
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
    return float(np.mean(np.abs(_errors(predicted, actual))))


def rl1(predicted: np.ndarray, actual: np.ndarray) -> float:
    return float(np.mean(np.abs(_errors(predicted, actual)) / actual))


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    return float(math.sqrt(np.mean(_errors(predicted, actual) ** 2)))


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


def _weighted(err: np.ndarray, w: np.ndarray, actual: np.ndarray, base: str) -> float:
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


def compute_metrics(
    predicted: np.ndarray, actual: np.ndarray, penalty: PenaltyTable
) -> dict[str, float]:
    """Every metric of :data:`METRICS`; the points' zones are classified once."""
    err = _errors(predicted, actual)
    w = penalty.weight(actual, predicted)
    return {
        "L1": l1(predicted, actual),
        "rL1": rl1(predicted, actual),
        "RMSE": rmse(predicted, actual),
        **{f"g{base}": _weighted(err, w, actual, base) for base in ("MAD", "MARD", "RMSE")},
    }


def cohort_mean(values: Sequence[float]) -> float:
    """Cohort score: the unweighted mean of per-patient values, NaN if none.

    Every cohort figure (result tables, ``report`` summaries) goes through
    this one function, so equal inputs give bit-identical outputs.
    """
    return float(np.mean(values)) if len(values) else float("nan")


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


# ---------------------------------------------------------------------------
# Cross-validated evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    model: str
    variant: str
    k: int
    per_patient: dict[str, dict[str, float]]
    naive_per_patient: dict[str, dict[str, float]]
    cohort: dict[str, float]
    naive_cohort: dict[str, float]
    improvement: dict[str, float]
    excluded_patients: tuple[str, ...]
    metadata: dict[str, object] = field(default_factory=dict)
    # with audit=True, per patient and in row order
    predicted: Optional[dict[str, np.ndarray]] = None
    naive_predicted: Optional[dict[str, np.ndarray]] = None
    actual: Optional[dict[str, np.ndarray]] = None
    fold_splits: Optional[dict[str, list[tuple[list[int], list[int]]]]] = None


def derive_seed(root_seed: int, *parts: object) -> int:
    """Stable sub-seed from the root seed and any hashable labels."""
    digest = hashlib.sha256(
        ("|".join([str(root_seed)] + [str(p) for p in parts])).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def evaluate(
    dataset: VariantDataset,
    entry: ModelRegistryEntry,
    k: int = 10,
    seed: int = 0,
    penalty: Optional[PenaltyTable] = None,
    fold_local_stats: bool = True,
    audit: bool = False,
) -> EvalReport:
    """Contiguous k-fold evaluation of one model on one dataset variant.

    Per training fold, imputation means are recomputed from the records
    the training rows touch (unless ``fold_local_stats`` is off), and
    the model refits its own standardization/PCA on the training rows,
    so no test-fold information reaches the fit. Patients with fewer
    than k rows are excluded and reported. The naive baseline runs under
    the identical fold plan.
    """
    penalty = penalty if penalty is not None else PenaltyTable()
    cfg = dataset.feature_config
    per_patient: dict[str, dict[str, float]] = {}
    naive_per_patient: dict[str, dict[str, float]] = {}
    all_predicted: dict[str, np.ndarray] = {}
    all_naive_predicted: dict[str, np.ndarray] = {}
    all_actual: dict[str, np.ndarray] = {}
    fold_splits: dict[str, list[tuple[list[int], list[int]]]] = {}
    excluded: list[str] = []
    fallbacks = 0

    patient_ids = sorted(dataset.per_patient)
    if entry.stacking and len(patient_ids) < 2:
        raise ValueError("stacking models need at least two retained patients")
    pca_flags = 0

    for pid in patient_ids:
        prep = dataset.per_patient[pid]
        if len(prep) < k:
            excluded.append(pid)
            continue
        plan = contiguous_kfold(len(prep), k)
        fold_local = fold_local_stats and prep.needs_fold_means
        starts = np.array(prep.row_starts, dtype=np.intp)

        stacker = None
        if entry.stacking:
            others = [dataset.per_patient[q].design for q in patient_ids if q != pid]
            stacker = fit_stacker(
                entry.build_stacker(cfg, derive_seed(seed, "stack", dataset.spec.id, pid)),
                others,
            )
        if not fold_local:
            design = prep.design
            if stacker is not None:
                design = attach_stacked(stacker, design)

        actual = prep.design.target_bg  # a fold rebuild keeps the targets
        predicted = np.empty(len(prep))
        naive_predicted = np.empty(len(prep))
        splits = plan.splits()
        for j, (train_idx, test_idx) in enumerate(splits):
            if fold_local:
                # the records the training rows read: each row's own and its target's
                train_starts = starts[train_idx]
                design = rebuild_rows(prep, np.union1d(train_starts, train_starts + 1))
                if stacker is not None:
                    design = attach_stacked(stacker, design)
            train, test = design[train_idx], design[test_idx]

            model = entry.build(
                cfg, seed=derive_seed(seed, dataset.spec.id, entry.name, pid, j)
            )
            model.fit(train)
            naive = NaivePredictor()
            naive.fit(train)
            fold = model.predict(test)
            if fold.shape != (len(test),):
                raise ValueError(f"{entry.name} returned {fold.shape} predictions "
                                 f"for {len(test)} test rows")
            bad = ~(np.isfinite(fold) & (fold > 0))
            if bad.any():
                raise ValueError(
                    f"{entry.name} predicted {float(fold[bad][0])!r} mmol/L on variant "
                    f"{dataset.spec.id}, patient {pid}, fold {j}: predictions must "
                    f"be finite and > 0"
                )
            predicted[test_idx] = fold
            naive_predicted[test_idx] = naive.predict(test)
            fallbacks += getattr(model, "fallback_count", 0)
            pipeline = getattr(model, "pipeline", None)
            if pipeline is not None and (
                pipeline.pca_skipped
                or (pipeline.pca is not None and pipeline.pca.rank_deficient)
            ):
                pca_flags += 1

        per_patient[pid] = compute_metrics(predicted, actual, penalty)
        naive_per_patient[pid] = compute_metrics(naive_predicted, actual, penalty)
        if audit:
            all_predicted[pid] = predicted
            all_naive_predicted[pid] = naive_predicted
            all_actual[pid] = actual
            fold_splits[pid] = splits

    cohort = {m: cohort_mean([per_patient[p][m] for p in per_patient]) for m in METRICS}
    naive_cohort = {
        m: cohort_mean([naive_per_patient[p][m] for p in naive_per_patient])
        for m in METRICS
    }
    improvement = {
        m: percent_improvement(naive_cohort[m], cohort[m]) for m in METRICS
    }
    return EvalReport(
        model=entry.name,
        variant=dataset.spec.id,
        k=k,
        per_patient=per_patient,
        naive_per_patient=naive_per_patient,
        cohort=cohort,
        naive_cohort=naive_cohort,
        improvement=improvement,
        excluded_patients=tuple(excluded),
        metadata={
            "fold_local_stats": fold_local_stats,
            "slot_fallbacks": fallbacks,
            "pca_flags": pca_flags,
            "seed": seed,
        },
        predicted=all_predicted if audit else None,
        naive_predicted=all_naive_predicted if audit else None,
        actual=all_actual if audit else None,
        fold_splits=fold_splits if audit else None,
    )


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


def _table(
    reports: Sequence[EvalReport], metric: str, value_of
) -> str:
    variants = sorted({r.variant for r in reports})
    models = sorted({r.model for r in reports})
    by_key = {(r.variant, r.model): r for r in reports}
    lines = ["variant," + ",".join(models)]
    for v in variants:
        cells = []
        for m in models:
            r = by_key.get((v, m))
            cells.append("" if r is None else repr(value_of(r, metric)))
        lines.append(v + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def wide_csv(reports: Sequence[EvalReport], metric: str) -> str:
    """Cohort losses, rows = variants, columns = models (heatmap-ready)."""
    return _table(reports, metric, lambda r, m: r.cohort[m])


def improvement_csv(reports: Sequence[EvalReport], metric: str) -> str:
    """Percent improvement over the naive baseline, same shape as wide_csv."""
    return _table(reports, metric, lambda r, m: r.improvement[m])
