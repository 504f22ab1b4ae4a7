"""Leakage checked through the data rather than through row indices.

Criterion 6 sees which rows a model fits and predicts on; it cannot see a
model that reads the test targets its test design carries, nor a fitted
part that one patient's cell leaves behind for another's. Here the fold
loop runs as ``run`` runs it, once as it is and once with one test
fold's ``target_bg`` and ``log_target`` replaced by random values: no
prediction of any registry model may move. And ``run`` runs twice, once
with the first patient's glucose perturbed: no other patient's result
may move, except through the stacked column.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glybench import evaluation
from glybench.cli import main
from glybench.evaluation import contiguous_kfold, evaluate_grid
from glybench.ingest import clean_cohort
from glybench.models import builtin_registry
from glybench.synth import default_config, generate
from glybench.variants import materialize, rebuild_rows, spec_by_id

K = 3
SEED = 5


def _predictions(dataset) -> dict[str, dict[str, np.ndarray]]:
    grid = evaluate_grid([dataset], list(builtin_registry().values()), k=K, seed=SEED)
    return {model: report.predicted for (_, model), report in grid.items()}


@pytest.fixture(scope="module")
def cells():
    """Per variant, the dataset and every registry cell's predictions. The
    first patient has no mean-policy gaps, so its folds take the
    materialized design; the others rebuild theirs per fold."""
    cleaned, _ = clean_cohort(generate(default_config(patients=3, days=20, seed=11)))
    first = sorted(cleaned)[0]
    a = cleaned[first]
    cleaned[first] = dataclasses.replace(a, cho_gap=np.zeros_like(a.cho_gap),
                                         bolus_gap=np.zeros_like(a.bolus_gap))
    out = {}
    for variant in ("D_a6", "D_e12"):  # plain, and EP-filtered with PCA
        dataset = materialize(cleaned, spec_by_id(variant), min_records=20)
        assert [prep.needs_fold_means for _, prep in sorted(dataset.per_patient.items())] \
            == [False, True, True]
        out[variant] = (dataset, _predictions(dataset))
    return out


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_test_fold_targets_cannot_move_a_prediction(cells, data):
    variant = data.draw(st.sampled_from(sorted(cells)))
    dataset, want = cells[variant]
    pid = data.draw(st.sampled_from(sorted(dataset.per_patient)))
    fold = data.draw(st.integers(0, K - 1))
    target = dataset.per_patient[pid]
    start, stop = contiguous_kfold(len(target), K).bounds[fold]
    bg = data.draw(hnp.arrays(float, stop - start, elements=st.floats(0.5, 40.0)))
    log_bg = data.draw(hnp.arrays(float, stop - start, elements=st.floats(-3.0, 4.0)))
    # evaluate_group rebuilds each patient's design once per fold, in
    # fold order, in each of evaluate_grid's tasks
    folds = itertools.cycle(range(K))
    replaced = []

    def replacing(prep, visible):
        design = rebuild_rows(prep, visible)
        if prep is not target or next(folds) != fold:
            return design
        replaced.append(fold)
        target_bg, log_target = design.target_bg.copy(), design.log_target.copy()
        target_bg[start:stop], log_target[start:stop] = bg, log_bg
        return dataclasses.replace(design, target_bg=target_bg, log_target=log_target)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "rebuild_rows", replacing)
        got = _predictions(dataset)
    assert len(replaced) == len(evaluation.sharing_groups(builtin_registry().values()))
    assert list(got) == list(want) == sorted(builtin_registry())
    for model, predicted in got.items():
        for patient, values in predicted.items():
            assert (values == want[model][patient]).all(), (variant, model, patient, fold)


def test_one_patients_glucose_cannot_move_another_patients_non_stacking_cell(tmp_path):
    synth = tmp_path / "synth.json"
    synth.write_text('{"preset": "default", "patients": 3, "days": 20}')
    cohort = tmp_path / "cohort.csv"
    assert main(["synth", "--config", str(synth), "--seed", "11", "--out", str(cohort)]) == 0
    lines = cohort.read_text().splitlines()
    bg = lines[0].split(",").index("bg")
    # the first patient in evaluation order: a cache leaks forward
    first = min(line.split(",")[0] for line in lines[1:])
    perturbed = lines[:1]
    for line in lines[1:]:
        fields = line.split(",")
        if fields[0] == first and fields[bg]:
            fields[bg] = repr(float(fields[bg]) + 0.5)
        perturbed.append(",".join(fields))
    (tmp_path / "perturbed.csv").write_text("\n".join(perturbed) + "\n")

    # each run in a fresh process, so nothing one leaves in memory reaches the other
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    results = []
    for name in ("cohort", "perturbed"):
        out = tmp_path / f"results_{name}"
        done = subprocess.run(
            [sys.executable, "-m", "glybench.cli", "run", "--input",
             str(tmp_path / f"{name}.csv"), "--out", str(out), "--variants", "D_a6,D_e12",
             "--models", ",".join(builtin_registry()), "--k", str(K), "--seed", str(SEED),
             "--min-records", "20"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        results.append((out / "results_long.csv").read_text().splitlines()[1:])
    stacking = {name for name, entry in builtin_registry().items() if entry.stacking}
    kept, moved = results
    assert len(kept) == len(moved) > 0
    stacked_moved = set()
    for want, got in zip(kept, moved):
        model, variant, metric, patient, _ = want.split(",")
        assert got.split(",")[:4] == [model, variant, metric, patient]
        if patient == first:
            continue
        if model in stacking:
            if got != want:
                stacked_moved.add(model)
        else:
            assert got == want, (model, variant, metric, patient)
    # the stacked column carries the first patient's data to the others
    assert stacked_moved == stacking
