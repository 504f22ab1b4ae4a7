# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Synthesizing and cleaning a diary cohort
#
# Real meal-time diabetes diaries are messy: entries get skipped, glucose
# readings go missing, meters bottom out at implausible values. The
# synthetic generator reproduces that mess on demand, and the cleaning
# stage repairs exactly three things: records with no glucose reading,
# records with no date, and readings below 1 mmol/L.

# %%
from glybench import default_config, generate, validate_history
from glybench.ingest import clean, clean_cohort
from glybench.records import encode_diary_csv

cfg = default_config(patients=3, days=14, seed=7)
cohort = generate(cfg)
for pid, h in cohort.items():
    print(pid, len(h), "records, pump rate", h.records[0].pv)

# %% [markdown]
# The canonical CSV form round-trips byte-for-byte through the parser;
# empty cells are genuinely missing values, not zeros.

# %%
csv_text = encode_diary_csv(cohort)
print("\n".join(csv_text.splitlines()[:6]))

# %% [markdown]
# Cleaning returns each repaired history, laid out as the arrays that
# every later stage reads, and an audit of what it did. Counts always
# reconcile: dropped records account exactly for the size difference.

# %%
cleaned, reports = clean_cohort(cohort)
for pid, rep in reports.items():
    print(
        f"{pid}: dropped {rep.dropped_missing_bg} without glucose, "
        f"{rep.dropped_missing_date} without dates, "
        f"clamped {rep.clamped_low_bg} low readings"
    )
    assert len(cohort[pid]) - len(cleaned[pid]) == (
        rep.dropped_missing_bg + rep.dropped_missing_date
    )

# %%
# `clean` repairs one history record by record; every cleaned history
# satisfies the post-cleaning invariants
for pid, h in cohort.items():
    problems = validate_history(clean(h)[0])
    print(pid, "violations:", problems or "none")
