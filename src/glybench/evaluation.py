"""Cross-validation, loss metrics and baseline-relative reporting.

Each patient's time-ordered rows are cut into k contiguous segments;
every segment serves once as the test fold while the rest train. A
patient's score per metric is a micro-average: all test-fold prediction
pairs are pooled first, then the metric is computed once. Cohort scores
are unweighted means over patients, and every model is reported relative
to the naive mean-predicting baseline evaluated under the identical fold
plan.

Besides absolute, relative and squared losses, each metric has a
"glucose-specific" variant that multiplies the per-pair error by a
penalty keyed on the clinical-error zone of the (actual, predicted)
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
from .records import MGDL_PER_MMOLL, PredictionPair
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

def _arrays(pairs: Sequence[PredictionPair]) -> tuple[np.ndarray, np.ndarray]:
    if not pairs:
        raise ValueError("metrics need at least one prediction pair")
    pred = np.array([p.predicted for p in pairs], dtype=float)
    actual = np.array([p.actual for p in pairs], dtype=float)
    return pred, actual


def l1(pairs: Sequence[PredictionPair]) -> float:
    pred, actual = _arrays(pairs)
    return float(np.mean(np.abs(pred - actual)))


def rl1(pairs: Sequence[PredictionPair]) -> float:
    pred, actual = _arrays(pairs)
    return float(np.mean(np.abs(pred - actual) / actual))


def rmse(pairs: Sequence[PredictionPair]) -> float:
    pred, actual = _arrays(pairs)
    return float(math.sqrt(np.mean((pred - actual) ** 2)))


def clarke_zone(ref_mgdl: float, pred_mgdl: float) -> str:
    """Clinical-error zone of one (reference, predicted) point, in mg/dl."""
    ref, pred = ref_mgdl, pred_mgdl
    if abs(ref - pred) <= 0.2 * ref or (ref < 70 and pred < 70):
        return "A"
    if (ref >= 180 and pred <= 70) or (ref <= 70 and pred >= 180):
        return "E"
    if (70 <= ref <= 290 and pred >= ref + 110) or (
        130 <= ref <= 180 and pred <= (7.0 / 5.0) * ref - 182
    ):
        return "C"
    if (
        (ref >= 240 and 70 <= pred <= 180)
        or (ref <= 175.0 / 3.0 and 70 <= pred <= 180)
        or (175.0 / 3.0 <= ref <= 70 and pred >= (6.0 / 5.0) * ref)
    ):
        return "D"
    return "B"


ZONES = ("A", "B", "C", "D", "E")

DEFAULT_ZONE_WEIGHTS: dict[str, float] = {"A": 1.0, "B": 2.0, "C": 4.0, "D": 6.0, "E": 8.0}


class PenaltyConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PenaltyTable:
    """Multiplicative per-pair weights keyed by clinical-error zone."""

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

    def weight(self, actual_mmoll: float, predicted_mmoll: float) -> float:
        zone = clarke_zone(actual_mmoll * MGDL_PER_MMOLL, predicted_mmoll * MGDL_PER_MMOLL)
        return float(self.weights[zone])

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


def g_metric(
    pairs: Sequence[PredictionPair], penalty: PenaltyTable, base: str
) -> float:
    """Penalty-weighted variant of MAD, MARD or RMSE.

    The per-pair error is multiplied by the zone weight before
    aggregation; for RMSE the weighted error is what gets squared. A unit
    table reproduces the base metric bit-for-bit.
    """
    pred, actual = _arrays(pairs)
    w = np.array([penalty.weight(a, p) for p, a in zip(pred, actual)])
    err = pred - actual
    if base == "MAD":
        return float(np.mean(w * np.abs(err)))
    if base == "MARD":
        return float(np.mean(w * np.abs(err) / actual))
    if base == "RMSE":
        return float(math.sqrt(np.mean((w * err) ** 2)))
    raise ValueError(f"unknown base metric {base!r}")


def compute_metrics(
    pairs: Sequence[PredictionPair], penalty: PenaltyTable
) -> dict[str, float]:
    return {
        "L1": l1(pairs),
        "rL1": rl1(pairs),
        "RMSE": rmse(pairs),
        "gMAD": g_metric(pairs, penalty, "MAD"),
        "gMARD": g_metric(pairs, penalty, "MARD"),
        "gRMSE": g_metric(pairs, penalty, "RMSE"),
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
    pairs: Optional[dict[str, tuple[PredictionPair, ...]]] = None
    naive_pairs: Optional[dict[str, tuple[PredictionPair, ...]]] = None
    fold_splits: Optional[dict[str, list[tuple[list[int], list[int]]]]] = None


def derive_seed(root_seed: int, *parts: object) -> int:
    """Stable sub-seed from the root seed and any hashable labels."""
    digest = hashlib.sha256(
        ("|".join([str(root_seed)] + [str(p) for p in parts])).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _visible_records(prep, train_idx: Sequence[int]) -> list[int]:
    seen: set[int] = set()
    for t in train_idx:
        start = prep.row_starts[t]
        seen.add(start)
        seen.add(start + 1)
    return sorted(seen)


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
    all_pairs: dict[str, tuple[PredictionPair, ...]] = {}
    all_naive_pairs: dict[str, tuple[PredictionPair, ...]] = {}
    fold_splits: dict[str, list[tuple[list[int], list[int]]]] = {}
    excluded: list[str] = []
    fallbacks = 0

    patient_ids = sorted(dataset.per_patient)
    if entry.stacking and len(patient_ids) < 2:
        raise ValueError("stacking models need at least two retained patients")
    pca_flags = 0

    for pid in patient_ids:
        n = len(dataset.per_patient[pid])
        if n < k:
            excluded.append(pid)
            continue
        plan = contiguous_kfold(n, k)
        prep = dataset.prepared[pid]
        fold_local = fold_local_stats and prep.needs_fold_means

        stacker = None
        if entry.stacking:
            others = [dataset.prepared[q].design for q in patient_ids if q != pid]
            stacker = fit_stacker(
                entry.build_stacker(cfg, derive_seed(seed, "stack", dataset.spec.id, pid)),
                others,
            )
        if not fold_local:
            design = prep.design
            if stacker is not None:
                design = attach_stacked(stacker, design)

        pairs: list[PredictionPair] = []
        naive_pairs: list[PredictionPair] = []
        splits = plan.splits()
        for j, (train_idx, test_idx) in enumerate(splits):
            if fold_local:
                design = dataset.fold_cache.get((pid, k, j))
                if design is None:
                    design = rebuild_rows(prep, _visible_records(prep, train_idx))
                    dataset.fold_cache[(pid, k, j)] = design
                if stacker is not None:
                    design = attach_stacked(stacker, design)
            train, test = design[train_idx], design[test_idx]

            model = entry.build(
                cfg, seed=derive_seed(seed, dataset.spec.id, entry.name, pid, j)
            )
            model.fit(train)
            naive = NaivePredictor()
            naive.fit(train)
            predicted = model.predict(test)
            if predicted.shape != (len(test),):
                raise ValueError(f"{entry.name} returned {predicted.shape} predictions "
                                 f"for {len(test)} test rows")
            actual = test.target_bg.tolist()
            pairs.extend(map(PredictionPair, predicted.tolist(), actual))
            naive_pairs.extend(map(PredictionPair, naive.predict(test).tolist(), actual))
            fallbacks += getattr(model, "fallback_count", 0)
            pipeline = getattr(model, "pipeline", None)
            if pipeline is not None and (
                pipeline.pca_skipped
                or (pipeline.pca is not None and pipeline.pca.rank_deficient)
            ):
                pca_flags += 1

        per_patient[pid] = compute_metrics(pairs, penalty)
        naive_per_patient[pid] = compute_metrics(naive_pairs, penalty)
        if audit:
            all_pairs[pid] = tuple(pairs)
            all_naive_pairs[pid] = tuple(naive_pairs)
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
        pairs=all_pairs if audit else None,
        naive_pairs=all_naive_pairs if audit else None,
        fold_splits=fold_splits if audit else None,
    )


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

LONG_CSV_HEADER = "model,variant,metric,patient,value"


def results_long_csv(reports: Sequence[EvalReport]) -> str:
    lines = [LONG_CSV_HEADER]
    for r in reports:
        for metric in METRICS:
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
