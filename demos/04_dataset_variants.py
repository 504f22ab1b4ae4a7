# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # The 22 built-in dataset variants
#
# A variant is a named preprocessing recipe: what to do with missing
# carbs and boluses (throw the record out, impute the per-meal mean, or
# impute zero), which optional features to carry (day of week, basal,
# patient characteristics, a 4-component PCA), and whether to keep only
# expert-predictable rows. `D_e*` ids filter, `D_a*` ids keep all rows.

# %%
from glybench import generate, high_signal_config, materialize, spec_by_id
from glybench.features import Vectorizer
from glybench.ingest import clean_cohort
from glybench.variants import variant_table_csv

print(variant_table_csv(), end="")

# %% [markdown]
# Materializing a variant turns a cleaned cohort into one design matrix
# per patient, excluding patients left with too few rows. The same cohort
# under the expert filter can only shrink.

# %%
cleaned, _ = clean_cohort(generate(high_signal_config(patients=4, days=25, seed=9)))

for vid in ("D_a6", "D_e6", "D_a2", "D_e2", "D_e12"):
    ds = materialize(cleaned, spec_by_id(vid), min_records=20)
    counts = {pid: len(prep) for pid, prep in ds.per_patient.items()}
    print(f"{vid:6s} rows per patient: {counts} excluded: {list(ds.excluded_patients)}")

# %%
# the filtered variant's design is the unfiltered one at the kept record
# indices, column for column
ds_all = materialize(cleaned, spec_by_id("D_a6"), min_records=20)
ds_ep = materialize(cleaned, spec_by_id("D_e6"), min_records=20)
pid = sorted(ds_ep.per_patient)[0]
ep, full = ds_ep.per_patient[pid], ds_all.per_patient[pid]
subset = (ep.design.x == full.design.x[ep.row_starts]).all()
print(f"{pid}: every D_e6 row appears in D_a6 -> {subset}")
names = Vectorizer(ds_ep.feature_config).column_names()
for name in ("meal", "bg", "iob", "horizon_dt"):
    print(f"  {name:10s}", " ".join(f"{v:6.1f}" for v in ep.design.x[:5, names.index(name)]))
