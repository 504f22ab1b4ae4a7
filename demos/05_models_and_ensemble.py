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
import math

from glybench.models import WeightedGprEnsemble, weighted_log_mean

ens = WeightedGprEnsemble(cfg)
ens.fit(train)
from glybench.records import MealSlot

query = test[:1]
q = ens.pipeline.transform(query.x)
(mu_p,), (sigma_p,) = ens.core_p.posterior(q)
(mu_m,), (sigma_m,) = ens.core_m[MealSlot(int(query.meal[0]))].posterior(q)
blended = weighted_log_mean(mu_p, sigma_p, mu_m, sigma_m)
print(f"patient-wide member:  mean {math.exp(mu_p):6.2f}  sigma {sigma_p:.3f}")
print(f"per-meal member:      mean {math.exp(mu_m):6.2f}  sigma {sigma_m:.3f}")
print(f"blend:                {math.exp(blended):6.2f}  "
      f"(ensemble.predict -> {ens.predict(query)[0]:6.2f}, "
      f"target {query.target_bg[0]:.1f})")

# %% [markdown]
# A worked example of the weighting itself: with log-space means 6 and 8
# and sigmas 1 and 2, the weights are 1 and 0.5, giving (6 + 4) / 1.5.

# %%
print(weighted_log_mean(6.0, 1.0, 8.0, 2.0))
