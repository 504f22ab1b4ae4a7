"""Dataset variants: named preprocessing recipes over a cleaned cohort.

Each variant combines a missing-carbs policy, a missing-bolus policy,
day-of-week / basal / patient-specific feature switches, an optional
4-component PCA reduction, and optionally the expert-predictable filter.
Variant ids prefixed ``D_e`` apply the EP filter; the matching ``D_a``
ids run on all records.

Materialization keeps, per patient, both the finished feature rows and
the post-throwout record sequence they came from, so evaluation can
recompute imputation means from training-fold records only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from .ep import is_expert_predictable
from .features import (
    DowMode,
    FeatureConfig,
    PcaConfig,
    build_feature_rows,
    cohort_static_defaults,
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

@dataclass(frozen=True)
class PreparedPatient:
    """Feature rows plus the record sequence needed to re-derive them.

    ``base`` has throwout applied and exercise/basal/zero fills done, but
    mean-imputed fields left missing; ``row_starts[t]`` is the index into
    ``base.records`` of the record whose state feeds row ``t``.
    """

    base: PatientHistory
    rows: tuple[FeatureRow, ...]
    row_starts: tuple[int, ...]
    needs_fold_means: bool


@dataclass(frozen=True)
class VariantDataset:
    spec: VariantSpec
    feature_config: FeatureConfig
    per_patient: dict[str, tuple[FeatureRow, ...]]
    excluded_patients: tuple[str, ...]
    prepared: dict[str, PreparedPatient] = field(default_factory=dict, repr=False)
    # design matrices shared across models: keyed patient_id for the rows
    # above, (patient_id, k, fold) for rows rebuilt with fold-local means
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


def fill_mean_gaps(
    base: PatientHistory, visible: Optional[Sequence[int]] = None
) -> PatientHistory:
    """Fill remaining missing carbs/bolus with per-slot means.

    Means use present values of the records at ``visible`` indices (all
    records when omitted), falling back to the patient-wide mean, then 0.
    """
    records = base.records
    if visible is None:
        source = records
    else:
        source = tuple(records[i] for i in visible)
    cho_slot, cho_all = field_means(source, "cho")
    bolus_slot, bolus_all = field_means(source, "bolus")

    def fill(value, slot: MealSlot, slot_means, overall):
        if value is not None:
            return value
        if slot in slot_means:
            return slot_means[slot]
        return overall if overall is not None else 0.0

    filled = tuple(
        replace(
            r,
            cho=fill(r.cho, r.meal, cho_slot, cho_all),
            bolus=fill(r.bolus, r.meal, bolus_slot, bolus_all),
        )
        for r in records
    )
    return PatientHistory(base.patient_id, filled, base.static)


def prepare_patient(
    h: PatientHistory, spec: VariantSpec, cfg: FeatureConfig
) -> PreparedPatient:
    kept, has_gap = _base_records(h, spec)
    base = PatientHistory(h.patient_id, tuple(kept), h.static)
    filled = fill_mean_gaps(base)
    all_rows = build_feature_rows(filled, cfg)
    if spec.ep_rules:
        row_starts = tuple(
            i
            for i in range(len(all_rows))
            if is_expert_predictable(filled, i + 1).predictable
        )
    else:
        row_starts = tuple(range(len(all_rows)))
    rows = tuple(all_rows[i] for i in row_starts)
    return PreparedPatient(
        base=base, rows=rows, row_starts=row_starts, needs_fold_means=has_gap
    )


def rebuild_rows(
    prepared: PreparedPatient,
    cfg: FeatureConfig,
    visible_records: Sequence[int],
) -> tuple[FeatureRow, ...]:
    """Re-derive the same rows with imputation means from a record subset."""
    filled = fill_mean_gaps(prepared.base, visible_records)
    all_rows = build_feature_rows(filled, cfg)
    return tuple(all_rows[i] for i in prepared.row_starts)


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
