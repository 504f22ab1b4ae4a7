# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # The expert-predictable filter
#
# Not every diary entry is worth predicting. A glucose value counts as
# "expert predictable" when a clinician would attempt it: the preceding
# entry exists and was not hypoglycemic, and the meal-to-meal transition
# has enough recent precedent (six of the last eight days contain both
# the current and the preceding meal slot).

# %%
import datetime as dt

from glybench import ep_counts, generate, high_signal_config, is_expert_predictable
from glybench.ingest import clean_cohort
from glybench.records import DiaryRecord, MealSlot, PatientHistory


def entry(day, time, meal, bg):
    return DiaryRecord(
        meal=meal, date=dt.date(2016, 5, 1) + dt.timedelta(days=day),
        time=dt.time.fromisoformat(time), bg=bg, cho=40.0, bolus=4.0,
    )

# eight days of after-breakfast/before-lunch pairs, then a ninth day
records = []
for day in range(8):
    records.append(entry(day, "09:30:00", MealSlot.AfterBreakfast, 7.0))
    records.append(entry(day, "12:00:00", MealSlot.BeforeLunch, 6.5))
records.append(entry(8, "09:30:00", MealSlot.AfterBreakfast, 6.0))
records.append(entry(8, "12:00:00", MealSlot.BeforeLunch, 5.8))
history = PatientHistory("demo", tuple(records))

decision = is_expert_predictable(history, len(records) - 1)
print("well-covered transition:", decision)

# %% [markdown]
# Break each rule in turn and watch the decision flip.

# %%
# rule 1: a hypoglycemic preceding entry blocks the prediction
hypo = list(records)
hypo[-2] = entry(8, "09:30:00", MealSlot.AfterBreakfast, 3.5)
print("preceding hypo:", is_expert_predictable(PatientHistory("demo", tuple(hypo)), len(hypo) - 1))

# rule 3: drop the before-lunch entries from three of the eight days
sparse = [r for r in records if not (
    r.meal is MealSlot.BeforeLunch and r.date < dt.date(2016, 5, 4)
)]
print("5-of-8 coverage:", is_expert_predictable(PatientHistory("demo", tuple(sparse)), len(sparse) - 1))

# %% [markdown]
# On a whole cohort the filter yields per-patient counts; the filtered
# subset can never grow.

# %%
cleaned, _ = clean_cohort(generate(high_signal_config(patients=4, days=20, seed=3)))
print(f"{'patient':<8}{'records':>9}{'expert predictable':>20}")
for pid, arrays in cleaned.items():
    total, ep = ep_counts(arrays)
    print(f"{pid:<8}{total:>9}{ep:>20}")
