# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Cross-validated grids and baseline-relative reporting
#
# The benchmark question is always the same: does any model beat simply
# predicting the patient's average glucose? Each patient's rows are split
# into ten contiguous segments; every segment serves once as the test
# fold. A patient's score pools all test-fold pairs first (micro-average)
# and the cohort averages over patients.

# %%
from glybench import evaluate_grid, generate, high_signal_config, materialize, spec_by_id
from glybench import zero_signal_config
from glybench.evaluation import improvements
from glybench.ingest import clean_cohort
from glybench.models import builtin_registry

registry = builtin_registry()
MODELS = ("naive", "ridge", "KNN10U", "gpr_IndPat_AllMeals", "gpr_be")


def run(label, cfg, variant="D_a6"):
    cleaned, _ = clean_cohort(generate(cfg))
    dataset = materialize(cleaned, spec_by_id(variant), min_records=20)
    print(f"--- {label} cohort, variant {variant}")
    # one grid call, as `glybench run` makes; the baseline is a cell like
    # any other, under the same fold plan
    cells = evaluate_grid([dataset], [registry[name] for name in MODELS], k=10, seed=0)
    naive = cells[variant, "naive"].cohort
    for name in MODELS:
        cohort = cells[variant, name].cohort
        print(f"{name:22s} L1 {cohort['L1']:6.3f}  "
              f"rL1 {cohort['rL1']:6.3f}  "
              f"improvement vs naive {improvements(naive, cohort)['L1']:+6.1f}%")


# %% [markdown]
# With meal-slot structure in the glucose process, the learners (the
# confidence-weighted GP ensemble above all) beat the baseline easily.

# %%
run("high-signal", high_signal_config(patients=4, days=30, seed=1))

# %% [markdown]
# On the degenerate constant process there is nothing to learn and
# everything collapses onto the baseline -- which is the point of
# benchmarking against it.

# %%
run("zero-signal", zero_signal_config(patients=4, days=30, seed=1))

# %% [markdown]
# The same thing end to end from a shell, with files on disk:
#
# ```
# glybench synth --preset high_signal --seed 1 --out cohort.csv
# glybench run --input cohort.csv --out results \
#     --variants D_e1,D_e6,D_a1,D_a6 --models naive,ridge,gpr_be \
#     --k 10 --min-records 20 --seed 1
# glybench report results
# ```
#
# `run` writes one long-form CSV, plus per-metric wide and
# percent-improvement tables (rows = variants, columns = models), the
# per-patient cleaning and expert-predictable counts, and a
# `run_meta.json` echoing the full configuration.
