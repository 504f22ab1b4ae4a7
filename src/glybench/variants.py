"""Dataset variants: named preprocessing recipes over a cleaned cohort.

Each variant combines a missing-carbs policy, a missing-bolus policy,
day-of-week / basal / patient-specific feature switches, an optional
4-component PCA reduction, and optionally the expert-predictable filter.
Variant ids prefixed ``D_e`` apply the EP filter; the matching ``D_a``
ids run on all records.

Materialization keeps, per patient, the finished feature rows, their
design matrix and the post-throwout record sequence they came from, so
evaluation can recompute imputation means from training-fold records
only; for a patient with gaps to fill, it also keeps the arrays that let
a fold recompute just the columns those means change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

# ``is_expert_predictable`` stays importable from here: bench/traced.py
# wraps this module's name (its ``ep.decide_s`` span)
from .ep import ep_decisions, is_expert_predictable  # noqa: F401
from .features import (
    EVENT_COLUMNS,
    Design,
    DowMode,
    FeatureConfig,
    PcaConfig,
    Timeline,
    Vectorizer,
    amounts,
    build_feature_rows,
    cohort_static_defaults,
    event_columns,
)
from .ingest import MissingPolicy, field_means
from .records import DiaryRecord, ExerciseLevel, FeatureRow, MealSlot, PatientHistory

DEFAULT_MIN_RECORDS = 100


@dataclass(frozen=True)
class VariantSpec:
    id: str
    ep_rules: bool
    dow_mode: DowMode = DowMode.Integer
    include_basal: bool = True
    include_static: bool = False
    pca: Optional[PcaConfig] = None
    cho: MissingPolicy = MissingPolicy.ImputeMean
    bolus: MissingPolicy = MissingPolicy.ImputeMean

    def feature_config(
        self, static_defaults: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    ) -> FeatureConfig:
        return FeatureConfig(
            dow_mode=self.dow_mode,
            include_basal=self.include_basal,
            include_static=self.include_static,
            pca=self.pca,
            static_defaults=static_defaults,
        )

    def csv_row(self) -> str:
        dow = {DowMode.Omit: 0, DowMode.Integer: 1, DowMode.OneHot: 7}[self.dow_mode]
        return ",".join(
            [
                self.id,
                str(int(self.ep_rules)),
                str(dow),
                str(int(self.include_basal)),
                str(int(self.include_static)),
                str(int(self.pca is not None)),
                self.cho.value,
                self.bolus.value,
            ]
        )


VARIANT_CSV_HEADER = (
    "id,ep_rules,dow_features,basal_feature,patient_specific_features,"
    "pca_transform,missing_carbs,missing_bolus"
)


def _half(ep: bool) -> list[VariantSpec]:
    prefix = "D_e" if ep else "D_a"
    pca4 = PcaConfig(components=4)
    mean, zero, out = (
        MissingPolicy.ImputeMean,
        MissingPolicy.ImputeZero,
        MissingPolicy.Throwout,
    )
    rows = [
        VariantSpec(f"{prefix}1", ep, cho=out, bolus=mean),
        VariantSpec(f"{prefix}2", ep, cho=out, bolus=out),
        VariantSpec(f"{prefix}3", ep, cho=mean, bolus=zero),
        VariantSpec(f"{prefix}4", ep, cho=zero, bolus=mean),
        VariantSpec(f"{prefix}5", ep, dow_mode=DowMode.OneHot, include_static=True),
        VariantSpec(f"{prefix}6", ep),
        VariantSpec(f"{prefix}7", ep, dow_mode=DowMode.OneHot),
        VariantSpec(f"{prefix}8", ep, dow_mode=DowMode.Omit, include_basal=False),
        VariantSpec(f"{prefix}10", ep, cho=zero, bolus=zero),
        VariantSpec(f"{prefix}11", ep, cho=mean, bolus=out),
        VariantSpec(
            f"{prefix}12", ep, dow_mode=DowMode.Omit, include_basal=False, pca=pca4
        ),
    ]
    return rows


def builtin_specs() -> list[VariantSpec]:
    """The shipped dataset variants (the externally-defined feature recipes
    9 and 13 are extension points, not built in)."""
    return _half(True) + _half(False)


def spec_by_id(variant_id: str) -> VariantSpec:
    for s in builtin_specs():
        if s.id == variant_id:
            return s
    raise KeyError(f"unknown variant id {variant_id!r}")


def variant_table_csv(specs: Sequence[VariantSpec] | None = None) -> str:
    specs = list(specs) if specs is not None else builtin_specs()
    return "\n".join([VARIANT_CSV_HEADER] + [s.csv_row() for s in specs]) + "\n"


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GapColumns:
    """What a fold-local rebuild needs of a patient with mean-policy gaps.

    ``cho``/``bolus`` hold the base records' amounts (0 at a gap) and
    ``cho_gap``/``bolus_gap`` mark the gaps; ``meal`` holds slot ordinals.
    ``starts`` are the prepared rows' record indices and ``positions`` the
    design columns of :data:`~glybench.features.EVENT_COLUMNS`.
    """

    timeline: Timeline
    meal: np.ndarray
    cho: np.ndarray
    cho_gap: np.ndarray
    bolus: np.ndarray
    bolus_gap: np.ndarray
    starts: np.ndarray
    positions: tuple[int, ...]


@dataclass(frozen=True)
class PreparedPatient:
    """Feature rows, their design, and the per-patient state that lets a
    fold re-derive them with its own imputation means.

    ``base`` has throwout applied and exercise/basal/zero fills done, but
    mean-imputed fields left missing; ``row_starts[t]`` is the index into
    ``base.records`` of the record whose state feeds row ``t``. ``rows``
    and ``design`` use means over all of ``base``. ``gaps`` is set when
    ``base`` has mean-policy gaps: only then do a fold's means change
    anything, and only the event columns.
    """

    base: PatientHistory
    rows: tuple[FeatureRow, ...]
    row_starts: tuple[int, ...]
    design: Design = field(compare=False, repr=False)
    gaps: Optional[GapColumns] = field(default=None, compare=False, repr=False)

    @property
    def needs_fold_means(self) -> bool:
        return self.gaps is not None


@dataclass(frozen=True)
class VariantDataset:
    spec: VariantSpec
    feature_config: FeatureConfig
    per_patient: dict[str, tuple[FeatureRow, ...]]
    excluded_patients: tuple[str, ...]
    prepared: dict[str, PreparedPatient] = field(default_factory=dict, repr=False)
    # designs of rows rebuilt with fold-local means, keyed (patient_id, k, fold)
    # and shared across models
    fold_cache: dict = field(default_factory=dict, repr=False, compare=False)


def _base_records(
    h: PatientHistory, spec: VariantSpec
) -> tuple[list[DiaryRecord], bool]:
    """Throwout + fixed defaults + zero fills; mean-policy gaps stay None."""
    kept: list[DiaryRecord] = []
    has_gap = False
    for r in h.records:
        if r.cho is None and spec.cho is MissingPolicy.Throwout:
            continue
        if r.bolus is None and spec.bolus is MissingPolicy.Throwout:
            continue
        cho = r.cho
        if cho is None and spec.cho is MissingPolicy.ImputeZero:
            cho = 0.0
        bolus = r.bolus
        if bolus is None and spec.bolus is MissingPolicy.ImputeZero:
            bolus = 0.0
        has_gap = has_gap or cho is None or bolus is None
        kept.append(
            replace(
                r,
                cho=cho,
                bolus=bolus,
                ev=r.ev if r.ev is not None else ExerciseLevel.Normal,
                basal=r.basal if r.basal is not None else 0.0,
            )
        )
    return kept, has_gap


def _gap_fills(source: Sequence[DiaryRecord], name: str) -> dict[MealSlot, float]:
    """The value a gap in each meal slot takes: the slot's mean of the
    present values in ``source``, else their overall mean, else 0."""
    slot_means, overall = field_means(tuple(source), name)
    fallback = overall if overall is not None else 0.0
    return {slot: slot_means.get(slot, fallback) for slot in MealSlot}


def fill_mean_gaps(
    base: PatientHistory, visible: Optional[Sequence[int]] = None
) -> PatientHistory:
    """Fill remaining missing carbs/bolus with per-slot means.

    Means use present values of the records at ``visible`` indices (all
    records when omitted), falling back to the patient-wide mean, then 0.
    """
    records = base.records
    source = records if visible is None else [records[i] for i in visible]
    cho = _gap_fills(source, "cho")
    bolus = _gap_fills(source, "bolus")
    filled = tuple(
        replace(
            r,
            cho=r.cho if r.cho is not None else cho[r.meal],
            bolus=r.bolus if r.bolus is not None else bolus[r.meal],
        )
        for r in records
    )
    return PatientHistory(base.patient_id, filled, base.static)


def _gap_columns(
    records: Sequence[DiaryRecord], cfg: FeatureConfig, row_starts: Sequence[int]
) -> GapColumns:
    columns = Vectorizer(cfg).column_names()
    return GapColumns(
        timeline=Timeline.of(records),
        meal=np.array([r.meal.value for r in records], dtype=np.intp),
        cho=amounts(records, "cho"),
        cho_gap=np.array([r.cho is None for r in records], dtype=bool),
        bolus=amounts(records, "bolus"),
        bolus_gap=np.array([r.bolus is None for r in records], dtype=bool),
        starts=np.array(row_starts, dtype=np.intp),
        positions=tuple(columns.index(name) for name in EVENT_COLUMNS),
    )


def prepare_patient(
    h: PatientHistory, spec: VariantSpec, cfg: FeatureConfig
) -> PreparedPatient:
    kept, has_gap = _base_records(h, spec)
    base = PatientHistory(h.patient_id, tuple(kept), h.static)
    all_rows = build_feature_rows(fill_mean_gaps(base), cfg)
    if spec.ep_rules:
        # row t feeds the glucose at record t + 1
        decisions = ep_decisions(base)
        row_starts = tuple(
            i for i in range(len(all_rows)) if decisions[i + 1].predictable
        )
    else:
        row_starts = tuple(range(len(all_rows)))
    rows = tuple(all_rows[i] for i in row_starts)
    return PreparedPatient(
        base=base,
        rows=rows,
        row_starts=row_starts,
        design=Vectorizer(cfg).design(rows),
        gaps=_gap_columns(base.records, cfg, row_starts) if has_gap else None,
    )


def _fill(
    values: np.ndarray, gap: np.ndarray, meal: np.ndarray, fills: dict[MealSlot, float]
) -> np.ndarray:
    by_slot = np.array([fills[slot] for slot in MealSlot])
    return np.where(gap, by_slot[meal], values)


def rebuild_rows(
    prepared: PreparedPatient, visible_records: Sequence[int]
) -> Design:
    """The prepared design with imputation means from a record subset.

    Means come from the present values of the records at
    ``visible_records`` (as :func:`fill_mean_gaps` takes them); with the
    gaps filled, only the event columns are recomputed, and they are
    written into a copy of ``prepared.design``. A patient without gaps
    gets its design back unchanged.
    """
    gaps = prepared.gaps
    if gaps is None:
        return prepared.design
    source = [prepared.base.records[i] for i in visible_records]
    cho = _fill(gaps.cho, gaps.cho_gap, gaps.meal, _gap_fills(source, "cho"))
    bolus = _fill(gaps.bolus, gaps.bolus_gap, gaps.meal, _gap_fills(source, "bolus"))
    cols = event_columns(gaps.timeline, cho, bolus)
    design = prepared.design
    x = design.x.copy()
    for name, position in zip(EVENT_COLUMNS, gaps.positions):
        x[:, position] = cols[name][gaps.starts]
    return Design(x, design.target_bg, design.index)


def materialize(
    cohort: Mapping[str, PatientHistory],
    spec: VariantSpec,
    min_records: int = DEFAULT_MIN_RECORDS,
) -> VariantDataset:
    """Build one dataset variant from a cleaned cohort.

    Patients left with fewer than ``min_records`` rows after the
    variant's preprocessing are excluded and listed. Deterministic:
    identical cohort and spec give identical output.
    """
    statics = cohort_static_defaults([cohort[pid] for pid in sorted(cohort)])
    cfg = spec.feature_config(static_defaults=statics)
    per_patient: dict[str, tuple[FeatureRow, ...]] = {}
    prepared: dict[str, PreparedPatient] = {}
    excluded: list[str] = []
    for pid in sorted(cohort):
        prep = prepare_patient(cohort[pid], spec, cfg)
        if len(prep.rows) < min_records:
            excluded.append(pid)
            continue
        per_patient[pid] = prep.rows
        prepared[pid] = prep
    return VariantDataset(
        spec=spec,
        feature_config=cfg,
        per_patient=per_patient,
        excluded_patients=tuple(excluded),
        prepared=prepared,
    )
