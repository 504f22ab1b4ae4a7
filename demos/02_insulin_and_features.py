# ---
# jupyter:
#   jupytext:
#     formats: py:percent
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Insulin on board and the feature design
#
# Injected bolus insulin keeps acting for about five hours. The decay
# curve interpolates published (elapsed time, fraction remaining) points
# with a shape-preserving cubic, so it passes through every point and
# never wiggles upward.

# %%
import datetime as dt

from glybench import FeatureConfig, IOB_KNOTS, build_feature_rows, iob_fraction
from glybench.features import RecordArrays, Vectorizer, event_columns
from glybench.records import DiaryRecord, ExerciseLevel, MealSlot, PatientHistory

for hours, frac in IOB_KNOTS:
    print(f"{hours:5.2f} h  -> {iob_fraction(hours * 60):5.1%} (anchor {frac:.0%})")
print(f" 1.72 h  -> {iob_fraction(103):5.1%} (between the anchors)")

# %% [markdown]
# One day of diary entries. A 10.4-unit breakfast bolus still has about
# 7.98 units active 103 minutes later, at the after-breakfast entry.

# %%
def entry(time, meal, bg, cho=0.0, bolus=0.0, pv=0.5):
    return DiaryRecord(
        meal=meal, date=dt.date(2015, 11, 25), time=dt.time.fromisoformat(time),
        bg=bg, cho=cho, bolus=bolus, basal=0.0, ev=ExerciseLevel.Normal, pv=pv,
    )

day = PatientHistory(
    "p16",
    (
        entry("08:36:00", MealSlot.BeforeBreakfast, 16.2, cho=30.0, bolus=10.4),
        entry("10:19:00", MealSlot.AfterBreakfast, 14.7),
        entry("12:19:00", MealSlot.BeforeLunch, 5.6, cho=30.0, bolus=3.0),
        entry("15:35:00", MealSlot.AfterLunch, 6.8),
        entry("18:42:00", MealSlot.BeforeSupper, 10.5, cho=15.0, bolus=3.8),
        entry("20:11:00", MealSlot.AfterSupper, 3.0),
    ),
)
arrays = RecordArrays.of(day)
iob = event_columns(arrays, arrays.cho, arrays.bolus)["iob"]
for i in range(len(day.records)):
    print(f"record {i} ({day.records[i].meal.name:16s}): iob = {iob[i]:5.2f} u")

# %% [markdown]
# `build_feature_rows` pairs consecutive records, laid out as
# `RecordArrays`, into a design: one matrix row per pair, the features
# describing the earlier record and the target the later reading. Previous-event features look strictly
# backward -- note how the before-lunch row still references the
# *breakfast* carbs, not its own. Columns are named by
# `Vectorizer.column_names()`.

# %%
cfg = FeatureConfig()
design = build_feature_rows(arrays, cfg)
names = Vectorizer(cfg).column_names()
print(f"{len(day.records)} records -> {len(design)} prediction rows")
print("columns:", ", ".join(names))
column = {name: design.x[:, j] for j, name in enumerate(names)}
for t in range(len(design)):
    print(
        f"{day.records[t].meal.name:16s} bg={column['bg'][t]:5.1f} "
        f"iob={column['iob'][t]:5.2f} cho_prev={column['cho_prev'][t]:5.1f} "
        f"dt_cho={column['dt_cho'][t]:5.0f} min horizon={column['horizon_dt'][t]:4.0f} min "
        f"-> target {design.target_bg[t]:5.1f}"
    )
