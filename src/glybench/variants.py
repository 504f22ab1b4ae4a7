"""Dataset variants: named preprocessing recipes over a cleaned cohort.

Each variant combines a missing-carbs policy, a missing-bolus policy,
the expert-predictable filter or none, and a ``FeatureConfig``: the
day-of-week / basal / patient-specific feature switches and an optional
4-component PCA reduction.
Variant ids prefixed ``D_e`` apply the EP filter; the matching ``D_a``
ids run on all records.

A variant is a set of masks over the one ``RecordArrays`` per patient
that ``ingest.clean_cohort`` builds, shared by every variant:
throwout keeps the records whose field is present, a zero fill clears that
field's gap mask (a gap reads 0, no event), a mean fill takes each meal
slot's mean of the present values, and the EP filter keeps the rows
whose target record fails none of ``ep.failed_rules``' masks.
Materialization keeps, per patient, those arrays and the design built
from them with means over all records, so evaluation can rebuild the
design with means from training-fold records only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

# ``is_expert_predictable`` stays importable from here: bench/traced.py
# wraps this module's name (its ``ep.decide_s`` span)
from .ep import failed_rules, is_expert_predictable, predictable  # noqa: F401
from .features import (
    Design,
    DowMode,
    FeatureConfig,
    RecordArrays,
    build_feature_rows,
    cohort_static_defaults,
)
from .ingest import MissingPolicy
from .records import MealSlot

DEFAULT_MIN_RECORDS = 100


@dataclass(frozen=True)
class VariantSpec:
    id: str
    ep_rules: bool
    features: FeatureConfig = FeatureConfig()
    cho: MissingPolicy = MissingPolicy.ImputeMean
    bolus: MissingPolicy = MissingPolicy.ImputeMean

    def csv_row(self) -> str:
        f = self.features
        dow = {DowMode.Omit: 0, DowMode.Integer: 1, DowMode.OneHot: 7}[f.dow_mode]
        return ",".join(
            [
                self.id,
                str(int(self.ep_rules)),
                str(dow),
                str(int(f.include_basal)),
                str(int(f.include_static)),
                str(int(f.pca)),
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
    mean, zero, out = (
        MissingPolicy.ImputeMean,
        MissingPolicy.ImputeZero,
        MissingPolicy.Throwout,
    )
    onehot, omit = DowMode.OneHot, DowMode.Omit
    rows = [
        VariantSpec(f"{prefix}1", ep, cho=out, bolus=mean),
        VariantSpec(f"{prefix}2", ep, cho=out, bolus=out),
        VariantSpec(f"{prefix}3", ep, cho=mean, bolus=zero),
        VariantSpec(f"{prefix}4", ep, cho=zero, bolus=mean),
        VariantSpec(f"{prefix}5", ep, FeatureConfig(onehot, include_static=True)),
        VariantSpec(f"{prefix}6", ep),
        VariantSpec(f"{prefix}7", ep, FeatureConfig(onehot)),
        VariantSpec(f"{prefix}8", ep, FeatureConfig(omit, include_basal=False)),
        VariantSpec(f"{prefix}10", ep, cho=zero, bolus=zero),
        VariantSpec(f"{prefix}11", ep, cho=mean, bolus=out),
        VariantSpec(f"{prefix}12", ep, FeatureConfig(omit, include_basal=False, pca=True)),
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


def variant_table_csv() -> str:
    return "\n".join([VARIANT_CSV_HEADER] + [s.csv_row() for s in builtin_specs()]) + "\n"


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PreparedPatient:
    """A patient's design and what lets a fold rebuild it with its own
    imputation means.

    ``arrays`` holds the cleaned records that the throwout policies keep,
    with the gap masks of the mean-imputed fields only (a zero-filled gap
    reads 0, which is no event). ``row_starts[t]``, an intp array, is the
    index into ``arrays`` of the record whose state feeds row ``t``.
    ``design`` fills the gaps with means over all of ``arrays``.
    """

    row_starts: np.ndarray
    cfg: FeatureConfig
    arrays: RecordArrays = field(repr=False)
    design: Design = field(repr=False)

    def __len__(self) -> int:
        return len(self.row_starts)

    @property
    def needs_fold_means(self) -> bool:
        """Whether ``arrays`` has mean-policy gaps: only then do a fold's
        means change the design."""
        return bool(self.arrays.cho_gap.any() or self.arrays.bolus_gap.any())


@dataclass(frozen=True)
class VariantDataset:
    spec: VariantSpec
    feature_config: FeatureConfig
    # retained patient id -> prepared patient
    per_patient: dict[str, PreparedPatient]
    excluded_patients: tuple[str, ...]


def _gap_fills(a: RecordArrays, visible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The carbs and the bolus a gap takes in each meal slot (indexed by
    slot ordinal): the slot's mean of the present values of the
    ``visible`` records, else their overall mean, else 0.

    ``np.bincount`` adds its weights one by one in record order, as a
    sequential ``sum`` does; ``np.sum`` would add pairwise.
    """
    fills = []
    for values, gap in ((a.cho, a.cho_gap), (a.bolus, a.bolus_gap)):
        present = visible & ~gap
        meal, v = a.meal[present], values[present]
        sums = np.bincount(meal, weights=v, minlength=len(MealSlot))
        counts = np.bincount(meal, minlength=len(MealSlot))
        total = np.bincount(np.zeros_like(meal), weights=v, minlength=1)[0]
        fallback = total / len(v) if len(v) else 0.0
        fills.append(np.where(counts > 0, sums / np.maximum(counts, 1), fallback))
    return fills[0], fills[1]


def prepare_patient(
    arrays: RecordArrays, spec: VariantSpec, cfg: FeatureConfig
) -> PreparedPatient:
    """One variant of a patient's cleaned arrays, selected and masked
    without writing into them."""
    keep = np.ones(len(arrays), dtype=bool)
    for policy, gap in ((spec.cho, arrays.cho_gap), (spec.bolus, arrays.bolus_gap)):
        if policy is MissingPolicy.Throwout:
            keep &= ~gap
    if not keep.all():
        arrays = arrays.rows(keep)
    if spec.cho is MissingPolicy.ImputeZero:
        arrays = replace(arrays, cho_gap=np.zeros_like(arrays.cho_gap))
    if spec.bolus is MissingPolicy.ImputeZero:
        arrays = replace(arrays, bolus_gap=np.zeros_like(arrays.bolus_gap))
    if spec.ep_rules:
        # row t feeds the glucose at record t + 1
        masks = failed_rules(arrays.meal, arrays.day, arrays.bg)
        row_starts = np.flatnonzero(predictable(masks)[1:])
    else:
        row_starts = np.arange(max(len(arrays) - 1, 0))
    everything = np.ones(len(arrays), dtype=bool)
    return PreparedPatient(
        row_starts=row_starts,
        cfg=cfg,
        arrays=arrays,
        design=build_feature_rows(arrays, cfg, _gap_fills(arrays, everything), row_starts),
    )


def rebuild_rows(prepared: PreparedPatient, visible_records: np.ndarray) -> Design:
    """The patient's design with imputation means from a record subset.

    Means come from the present values of the records at
    ``visible_records``, indices that may repeat and come in any order.
    A patient without mean-policy gaps gets its materialized design
    itself: no means can change it.
    """
    if not prepared.needs_fold_means:
        return prepared.design
    visible = np.zeros(len(prepared.arrays), dtype=bool)
    visible[visible_records] = True
    return build_feature_rows(
        prepared.arrays, prepared.cfg, _gap_fills(prepared.arrays, visible),
        prepared.row_starts, prepared.design.log_target,
    )


def materialize(
    cohort: Mapping[str, RecordArrays],
    spec: VariantSpec,
    min_records: int = DEFAULT_MIN_RECORDS,
) -> VariantDataset:
    """Build one dataset variant from a cleaned cohort (as
    ``ingest.clean_cohort`` returns it).

    Patients left with fewer than ``min_records`` rows after the
    variant's preprocessing are excluded and listed. Deterministic:
    identical cohort and spec give identical output.
    """
    statics = cohort_static_defaults([cohort[pid] for pid in sorted(cohort)])
    cfg = replace(spec.features, static_defaults=statics)
    per_patient: dict[str, PreparedPatient] = {}
    excluded: list[str] = []
    for pid in sorted(cohort):
        prep = prepare_patient(cohort[pid], spec, cfg)
        if len(prep) < min_records:
            excluded.append(pid)
            continue
        per_patient[pid] = prep
    return VariantDataset(
        spec=spec,
        feature_config=cfg,
        per_patient=per_patient,
        excluded_patients=tuple(excluded),
    )
