# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # The model zoo and the confidence-weighted ensemble
#
# Every predictor fits on a `Design` (a patient's feature rows as one
# numeric matrix, with their targets) and predicts mmol/L for every row
# of a test design at once. Internally all of them (except the naive
# baseline, which is the plain mean of the raw training targets) regress
# the log of glucose and exponentiate on the way out.

# %%
from glybench import generate, high_signal_config, materialize, spec_by_id
from glybench.features import Vectorizer
from glybench.ingest import clean_cohort
from glybench.models import builtin_registry, registry_csv

print(registry_csv(), end="")

# %%
cleaned, _ = clean_cohort(generate(high_signal_config(patients=2, days=30, seed=5)))
dataset = materialize(cleaned, spec_by_id("D_a6"), min_records=20)
pid = sorted(dataset.per_patient)[0]
cfg = dataset.feature_config
design = dataset.per_patient[pid].design
train, test = design[:-12], design[-12:]
names = Vectorizer(cfg).column_names()
print(f"{pid}: {len(design)} rows x {len(names)} columns ({', '.join(names)})")
bg = names.index("bg")
print("last test rows' glucose:", " ".join(f"{v:5.1f}" for v in test.x[-4:, bg]))

registry = builtin_registry()
for name in ("naive", "ridge", "KNN10U", "rf4", "gpr_IndPat_AllMeals", "gpr_be"):
    model = registry[name].build(cfg, seed=1)
    model.fit(train)
    preds = model.predict(test)[:4]
    print(f"{name:22s}", " ".join(f"{p:6.2f}" for p in preds),
          f"  (targets {' '.join(f'{t:5.1f}' for t in test.target_bg[:4])})")

# %% [markdown]
# ## How the weighted ensemble blends its members
#
# Two Gaussian processes are fit per patient: one on everything, one per
# meal slot. At a query point each reports a posterior mean and standard
# deviation; the blend weights each mean by the reciprocal of its sigma,
# so whichever member is more certain dominates. Everything happens in
# log space.

# %%
import numpy as np

from glybench.models import WeightedGprEnsemble, weighted_log_mean
from glybench.records import MealSlot

ens = WeightedGprEnsemble(cfg)
ens.fit(train)

# the test rows of one meal slot, blended as one array
slot = int(test.meal[0])
query = test[np.flatnonzero(test.meal == slot)]
q = ens.pipeline.transform(query.x)
mu_p, sigma_p = ens.core_p.posterior(q)
mu_m, sigma_m = ens.core_m[MealSlot(slot)].posterior(q)
blended = np.exp(weighted_log_mean(mu_p, sigma_p, mu_m, sigma_m))
print(f"{MealSlot(slot).name}: {len(query)} test rows")
print("patient-wide member:", " ".join(f"{v:6.2f}" for v in np.exp(mu_p)),
      " sigma", " ".join(f"{v:.3f}" for v in sigma_p))
print("per-meal member:    ", " ".join(f"{v:6.2f}" for v in np.exp(mu_m)),
      " sigma", " ".join(f"{v:.3f}" for v in sigma_m))
print("blend:              ", " ".join(f"{v:6.2f}" for v in blended))
print("ensemble.predict:   ", " ".join(f"{v:6.2f}" for v in ens.predict(query)))
print("targets:            ", " ".join(f"{v:6.1f}" for v in query.target_bg))

# %% [markdown]
# A worked example of the weighting itself, one element per case: with
# log-space means 6 and 8, sigmas 1 and 1 give equal weights (7); sigmas
# 1 and 2 give weights 1 and 0.5, so (6 + 4) / 1.5; a zero sigma makes
# its member the answer outright.

# %%
print(weighted_log_mean(np.array([6.0, 6.0, 6.0]), np.array([1.0, 1.0, 0.0]),
                        np.array([8.0, 8.0, 8.0]), np.array([1.0, 2.0, 2.0])))
