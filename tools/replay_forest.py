"""Replay the random-forest fits of a `grid` run through two `forest.py` files.

    PYTHONPATH=src python3 tools/replay_forest.py PARENT_FOREST_PY CHANGE_FOREST_PY
        [--rounds N]

The tool runs ``compare_runs.py``'s ``grid`` cohort in this process,
with the ``synth`` and ``run`` commands that ``compare_runs.cohort_commands``
builds and every registry model. It captures
the inputs of every ``grow_trees`` call of that run; ``rf4`` makes 20,
one per patient and fold. ``glybench`` comes from the import path, and
its own ``forest.py`` grows the trees of that run.

Each of ``PARENT_FOREST_PY`` and ``CHANGE_FOREST_PY`` is loaded as a
module of the ``glybench.models`` package, so its relative imports
resolve against the importable ``glybench``. Every captured fit is
grown by both files, and every ``TreeArrays`` field is compared on
dtype, shape and bytes. The tool prints ``identical``, or the fits and
fields that differ. Then the two sides replay all captured fits in
``--rounds`` rounds (default 11), alternating which side goes first, and
the tool prints each side's CPU seconds per replay of all fits, as the
minimum and median over the rounds.

The exit status is 0 when every fit is identical, 1 when any differs and
2 when the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from compare_runs import COHORTS, cohort_commands

COHORT = "grid"


def load_forest(path: Path, name: str):
    """``path`` as a module named ``glybench.models.<name>``."""
    spec = importlib.util.spec_from_file_location(f"glybench.models.{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def capture_fits() -> list[tuple]:
    """The arguments of every ``grow_trees`` call of a ``grid`` run."""
    from glybench import cli
    from glybench.models import builtin_registry, forest

    cohort = COHORTS[COHORT]
    fits = []
    grow_trees = forest.grow_trees

    def spy(x, y, samples, max_depth):
        fits.append(tuple(np.array(a) for a in (x, y, samples)) + (max_depth,))
        return grow_trees(x, y, samples, max_depth)

    with tempfile.TemporaryDirectory(prefix="replay_forest_") as work:
        synth, run = cohort_commands(cohort, Path(work) / "cohort.csv",
                                     cohort.models or list(builtin_registry()))
        forest.grow_trees = spy
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for command in (synth, run + ["--out", str(Path(work) / "out")]):
                    if cli.main(command) != 0:
                        raise SystemExit(f"glybench {command[0]} failed")
        finally:
            forest.grow_trees = grow_trees
    return fits


def differences(a, b) -> list[str]:
    """The ``TreeArrays`` fields whose dtype, shape or bytes differ."""
    out = []
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            out.append(field.name)
    return out


def cpu_seconds(module, fits: list[tuple]) -> float:
    start = time.process_time()
    for fit in fits:
        module.grow_trees(*fit)
    return time.process_time() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_forest", type=Path)
    parser.add_argument("change_forest", type=Path)
    parser.add_argument("--rounds", type=int, default=11)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be an integer >= 1, got {args.rounds}")
    for path in (args.parent_forest, args.change_forest):
        if not path.is_file():
            parser.error(f"{path} is not a file")
    sides = {"parent": load_forest(args.parent_forest, "_replay_parent"),
             "change": load_forest(args.change_forest, "_replay_change")}
    fits = capture_fits()
    print(f"== {COHORT}: {len(fits)} grow_trees calls captured")
    lines = []
    for i, fit in enumerate(fits):
        changed = differences(sides["parent"].grow_trees(*fit), sides["change"].grow_trees(*fit))
        if changed:
            lines.append(f"  fit {i} ({fit[0].shape[0]} rows x {fit[0].shape[1]} columns): "
                         f"{', '.join(changed)} differ")
    if lines:
        print(f"trees: differ in {len(lines)} of {len(fits)} fits")
        print("\n".join(lines))
    else:
        print("trees: identical")
    seconds = {name: [] for name in sides}
    for r in range(args.rounds):
        for name in (["parent", "change"] if r % 2 == 0 else ["change", "parent"]):
            seconds[name].append(cpu_seconds(sides[name], fits))
    for name, values in seconds.items():
        print(f"{name}: CPU s per {len(fits)} fits over {args.rounds} rounds: "
              f"min {min(values):.3f}, median {statistics.median(values):.3f}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
