"""Traced serial `glybench run`: per-layer time and counts, no change to src/.

Wraps the module-level names that glybench looks up at call time
(``glybench.cli``, ``glybench.evaluation``, ``glybench.variants``) and
the ``Vectorizer.matrix`` method, and wraps every model through a
registry entry whose factory returns a timing proxy. Then runs the
unchanged ``glybench.cli.main`` in this process and prints one JSON
object of per-layer totals as its last line.

Times are inclusive: a span covers the spans nested in it (for example
``features.build_rows_s`` runs inside ``variants.materialize_s`` and
``variants.rebuild_rows_s``, and ``features.vectorize_s`` inside model
fit and predict).

    PYTHONPATH=src python3 bench/traced.py run --input ... --jobs 1 ...
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict

import glybench.cli as cli
import glybench.evaluation as evaluation
import glybench.features as features
import glybench.variants as variants
from glybench.models import builtin_registry


def _one(args, result):
    return 1


class Tracer:
    """Accumulates seconds and counts per metric name."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)

    def wrap(self, owner, attr, seconds_key, count_key=None, count=_one):
        """Replace ``owner.attr`` by a wrapper adding its time and a count.

        ``seconds_key`` may be a function of the call's arguments, or
        None to count without timing.
        """
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = inner(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if callable(seconds_key):
                self.values[seconds_key(args)] += elapsed
            elif seconds_key is not None:
                self.values[seconds_key] += elapsed
            if count_key is not None:
                self.values[count_key] += count(args, result)
            return result

        setattr(owner, attr, wrapper)

    def timed_model(self, model, name: str):
        return _TimedModel(model, self.values, name)


class _TimedModel:
    """Proxy timing fit/predict/predict_many; other attributes pass through."""

    def __init__(self, inner, values, name):
        self._inner = inner
        self._values = values
        self._name = name

    def fit(self, train):
        start = time.perf_counter()
        self._inner.fit(train)
        self._values[f"models.{self._name}.fit_s"] += time.perf_counter() - start
        self._values["models.fits"] += 1

    def predict(self, row):
        start = time.perf_counter()
        value = self._inner.predict(row)
        self._values[f"models.{self._name}.predict_s"] += time.perf_counter() - start
        self._values["models.predictions"] += 1
        return value

    def __getattr__(self, attr):
        value = getattr(self._inner, attr)
        if attr != "predict_many":
            return value

        def predict_many(rows):
            start = time.perf_counter()
            out = value(rows)
            self._values[f"models.{self._name}.predict_s"] += time.perf_counter() - start
            self._values["models.predictions"] += len(rows)
            return out

        return predict_many


def install(tracer: Tracer) -> None:
    wrap = tracer.wrap
    wrap(cli, "parse_diary_csv", "ingest.parse_s")
    wrap(cli, "clean_cohort", "ingest.clean_s", "ingest.records",
         lambda args, result: sum(len(h) for h in result[0].values()))
    wrap(cli, "materialize", "variants.materialize_s")
    wrap(variants, "is_expert_predictable", "ep.decide_s", "ep.decisions")
    wrap(variants, "build_feature_rows", "features.build_rows_s",
         "features.build_rows_calls")
    wrap(cli, "ep_counts", "ep.ep_counts_s")
    wrap(features.Vectorizer, "matrix", "features.vectorize_s",
         "features.rows_vectorized", lambda args, result: len(args[1]))
    wrap(evaluation, "rebuild_rows", "variants.rebuild_rows_s",
         "variants.rebuild_rows_calls")
    wrap(evaluation, "fit_stacker", "models.stacking.fit_stacker_s")
    wrap(evaluation, "attach_stacked", "models.stacking.attach_s",
         "models.stacking.rows_attached", lambda args, result: len(result))
    wrap(evaluation, "compute_metrics", "evaluation.metrics_s")
    wrap(evaluation, "contiguous_kfold", None,
         "evaluation.folds", lambda args, result: result.k)
    wrap(cli, "evaluate", lambda args: f"evaluation.{args[1].name}.cell_s")
    for renderer in ("results_long_csv", "_single_metric_long", "wide_csv",
                     "improvement_csv", "cleaning_csv", "_write_atomic"):
        wrap(cli, renderer, "cli.write_s")

    registry = cli.builtin_registry

    def traced_registry():
        def timed_factory(entry):
            def factory(cfg, with_stacked, seed):
                return tracer.timed_model(entry.factory(cfg, with_stacked, seed),
                                          entry.name)
            return factory

        return {name: dataclasses.replace(entry, factory=timed_factory(entry))
                for name, entry in registry().items()}

    cli.builtin_registry = traced_registry


def metric_names() -> list[str]:
    """Every per-layer metric this module reports, in report order."""
    models = list(builtin_registry())
    names = ["ingest.parse_s", "ingest.clean_s", "ingest.records",
             "ep.decide_s", "ep.decisions", "ep.ep_counts_s",
             "features.build_rows_s", "features.build_rows_calls",
             "features.vectorize_s", "features.rows_vectorized",
             "variants.materialize_s", "variants.rebuild_rows_s",
             "variants.rebuild_rows_calls"]
    for model in models:
        names += [f"models.{model}.fit_s", f"models.{model}.predict_s"]
    names += ["models.fits", "models.predictions",
              "models.stacking.fit_stacker_s", "models.stacking.attach_s",
              "models.stacking.rows_attached"]
    names += [f"evaluation.{model}.cell_s" for model in models]
    names += ["evaluation.metrics_s", "evaluation.folds", "cli.write_s"]
    return names


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    status = cli.main(argv)
    if status != 0:
        return status
    print(json.dumps({name: tracer.values[name] for name in metric_names()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
