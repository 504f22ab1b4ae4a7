"""Compare the outputs of `glybench run` between two source trees.

    python3 tools/compare_runs.py PARENT_SRC CHANGE_SRC [--cohorts acceptance,grid,long_diary]
        [--change-env NAME=VALUE ...]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories that hold the
``glybench`` package (a checkout's ``src/``). For each cohort, each side
synthesizes the cohort, runs the grid with ``--jobs 1`` and
``--jobs 2`` and runs ``report --out summary.csv`` on each results
directory, each command in a fresh process. For every output file
(``summary.csv`` among them) the tool prints ``identical``, or the
changed rows with their key cells (``model, variant, metric, patient``
in ``results_long.csv``) and the largest relative difference of a
changed number (the ``MAX_ROWS`` rows that changed most are listed).
``run_meta.json`` is compared as rows of (key path, value); when the
key paths differ, the tool names the keys lost and gained, then
compares the common keys row by row. A
percent improvement (an ``improvement_*`` cell, or ``summary.csv``'s
``percent_improvement``) loses leading digits to the subtraction, so a
changed one also shows its absolute difference in percentage points.
``report``'s printed table is compared line by line. Next comes each
side's peak resident memory of ``run`` per jobs count, as ``os.wait4``
reports it (the largest of the process and its reaped workers, as
``bench/run.py`` reads it). That is one run per side, so it is shown,
not compared; ``bench/run.py`` measures it over rounds. A last line per
cohort compares the change's ``--jobs 2`` outputs with its ``--jobs 1``
ones.

``--change-env NAME=VALUE`` (repeatable) sets an environment variable
for the change side's commands only, and the first line of output names
it. With the same tree on both sides, ``--change-env
OPENBLAS_CORETYPE=Prescott`` compares one tree across BLAS kernels.

Cohorts:

- ``acceptance``: the default preset (5 patients x 40 days, seed 2026),
  ``run``'s default variants and every model of the tree's registry;
- ``grid``: 2 x 40 days (seed 2026), ``D_a6``, every registry model;
- ``long_diary``: 1 x 200 days (seed 2027), ``D_e6`` and ``D_a6``, the
  naive baseline, ridge and the patient-wide GP pair;
- ``tiny``: 2 x 20 days (seed 4), ``D_a6``, ridge and the patient-wide GP
  pair with k = 5, a quick check of the tool itself.

Every run uses ``--min-records 20``. The variant and model lists that
follow ``run``'s defaults or the registry are read by each side from its
own tree, so a side that adds a model or a default variant shows up as a
changed layout rather than being left out.

The exit status is 0 when every file is identical, 1 when any differs,
and 2 when a command fails or the arguments are wrong (an unknown or
repeated cohort).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

JOBS = (1, 2)
MAX_ROWS = 5
MIN_RECORDS = 20


@dataclass(frozen=True)
class Cohort:
    seed: int
    patients: int
    days: int
    variants: tuple[str, ...] | None  # None: `run`'s default variants
    models: tuple[str, ...] | None  # None: every model of the registry
    k: int = 10


COHORTS = {
    "acceptance": Cohort(2026, 5, 40, None, None),
    "grid": Cohort(2026, 2, 40, ("D_a6",), None),
    "long_diary": Cohort(2027, 1, 200, ("D_e6", "D_a6"),
                         ("naive", "ridge", "gpr_IndPat_AllMeals", "gpr_be")),
    "tiny": Cohort(4, 2, 20, ("D_a6",), ("ridge", "gpr_IndPat_AllMeals", "gpr_be"), k=5),
}


class CommandFailed(Exception):
    pass


def spawn(src: Path, what: str, *args: str,
          extra_env: dict[str, str] | None = None) -> tuple[str, float]:
    """Run Python on ``args`` with ``src`` first on the import path and
    ``extra_env`` added to the environment: its stdout and its peak RSS in
    MB. A failure is reported as ``what`` failing."""
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        raise CommandFailed(f"{what} ({src}) exited {proc.returncode}: {tail}")
    return stdout, usage.ru_maxrss / 1024.0


def python(src: Path, what: str, *args: str, extra_env: dict[str, str] | None = None) -> str:
    return spawn(src, what, *args, extra_env=extra_env)[0]


def glybench(src: Path, *args: str, extra_env: dict[str, str] | None = None) -> str:
    return python(src, f"glybench {args[0]}", "-m", "glybench.cli", *args,
                  extra_env=extra_env)


def registry_models(src: Path, extra_env: dict[str, str] | None = None) -> list[str]:
    names = python(src, "the registry", "-c",
                   "from glybench.models.registry import builtin_registry; "
                   "print(','.join(builtin_registry()))", extra_env=extra_env)
    return names.strip().split(",")


def cohort_commands(cohort: Cohort, csv_path: Path, models: Sequence[str]
                    ) -> tuple[list[str], list[str]]:
    """The ``glybench synth`` arguments that write the cohort to
    ``csv_path`` (from a config file written beside it), and the
    ``glybench run`` arguments that run ``models`` on it; the caller adds
    ``run``'s ``--out`` and ``--jobs``."""
    config = csv_path.with_name("synth.json")
    config.write_text(json.dumps(
        {"preset": "default", "patients": cohort.patients, "days": cohort.days}))
    synth = ["synth", "--config", str(config), "--seed", str(cohort.seed),
             "--out", str(csv_path)]
    run = ["run", "--input", str(csv_path), "--models", ",".join(models),
           "--k", str(cohort.k), "--min-records", str(MIN_RECORDS), "--seed", str(cohort.seed)]
    if cohort.variants:
        run += ["--variants", ",".join(cohort.variants)]
    return synth, run


def run_side(src: Path, cohort: Cohort, work: Path, extra_env: dict[str, str] | None = None
             ) -> tuple[Path, dict[int, Path], dict[int, float]]:
    """Synthesize the cohort, run it once per jobs count and report on
    each run: the cohort CSV, and the output directories and ``run``'s
    peak RSS in MB by jobs count. ``report`` writes ``summary.csv`` into
    the run's directory, and its printed table goes to
    ``<directory>-report.txt`` beside it."""
    work.mkdir(parents=True)
    csv_path = work / "cohort.csv"
    synth, run = cohort_commands(cohort, csv_path,
                                 cohort.models or registry_models(src, extra_env))
    glybench(src, *synth, extra_env=extra_env)
    outs, peaks = {}, {}
    for jobs in JOBS:
        outs[jobs] = work / f"jobs{jobs}"
        _, peaks[jobs] = spawn(src, "glybench run", "-m", "glybench.cli", *run,
                               "--out", str(outs[jobs]), "--jobs", str(jobs),
                               extra_env=extra_env)
        printed = glybench(src, "report", str(outs[jobs]),
                           "--out", str(outs[jobs] / "summary.csv"), extra_env=extra_env)
        _printed_report(outs[jobs]).write_text(printed)
    return csv_path, outs, peaks


def peak_line(name: str, jobs: int, parent_mb: float, change_mb: float) -> str:
    return (f"== {name}, --jobs {jobs}: run peak RSS {parent_mb:.1f} MB -> {change_mb:.1f} MB"
            " (one run per side, not compared; bench/run.py measures it)")


def _printed_report(out: Path) -> Path:
    return out.with_name(f"{out.name}-report.txt")


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else float("inf")


def _flatten(value, path=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def _rows(name: str, text: str) -> tuple[list[str], list[list[str]]]:
    """A file as a header and rows of cells: JSON as (path, value) rows,
    every other output (CSV) as it is."""
    if name.endswith(".json"):
        return ["key", "value"], [[k, json.dumps(v)] for k, v in _flatten(json.loads(text))]
    table = list(csv.reader(io.StringIO(text)))
    return (table[0], table[1:]) if table else ([], [])


def _in_points(name: str, column: str) -> bool:
    """Whether a cell holds a percent improvement."""
    return name.startswith("improvement_") or column == "percent_improvement"


def _listed(keys: list[str]) -> str:
    shown = ", ".join(keys[:MAX_ROWS]) or "none"
    return shown + (f" and {len(keys) - MAX_ROWS} more" if len(keys) > MAX_ROWS else "")


def diff_file(name: str, a: str, b: str) -> list[str]:
    """The report lines of one file: ``identical``, or how many rows
    changed and the ``MAX_ROWS`` that changed most. A JSON file whose key
    paths differ first names the keys lost and gained, then compares the
    common keys."""
    if a == b:
        return [f"{name}: identical"]
    head_a, rows_a = _rows(name, a)
    head_b, rows_b = _rows(name, b)
    lines = []
    if name.endswith(".json"):
        keys_a, keys_b = {row[0] for row in rows_a}, {row[0] for row in rows_b}
        lost = [row[0] for row in rows_a if row[0] not in keys_b]
        gained = [row[0] for row in rows_b if row[0] not in keys_a]
        if lost or gained:
            lines.append(f"{name}: keys lost: {_listed(lost)}; keys gained: {_listed(gained)}")
            rows_a = [row for row in rows_a if row[0] in keys_b]
            rows_b = [row for row in rows_b if row[0] in keys_a]
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"{name}: differs in layout ({len(rows_a)} rows -> {len(rows_b)} rows, "
                f"header {'equal' if head_a == head_b else 'changed'})"]
    changed = []  # (largest relative difference in the row, report line)
    for row_a, row_b in zip(rows_a, rows_b):
        if row_a == row_b:
            continue
        key = " ".join(f"{h}={x}" for h, x, y in zip(head_a, row_a, row_b)
                       if x == y and _number(x) is None)
        cells, largest = [], 0.0
        for h, x, y in zip(head_a, row_a, row_b):
            if x == y:
                continue
            nx, ny = _number(x), _number(y)
            if nx is not None and ny is not None:
                rel = _relative(nx, ny)
                largest = max(largest, rel)
                points = f", {abs(nx - ny):.2g} pp" if _in_points(name, h) else ""
                cells.append(f"{h}: {x} -> {y} (relative {rel:.2g}{points})")
            else:
                largest = float("inf")
                cells.append(f"{h}: {x!r} -> {y!r}")
        changed.append((largest, f"  {key}: " + "; ".join(cells)))
    if not changed:
        return lines + [f"{name}: the {len(rows_a)} common keys are identical"]
    changed.sort(key=lambda c: -c[0])  # stable: ties keep file order
    lines.append(f"{name}: {len(changed)} of {len(rows_a)} rows changed, largest relative "
                 f"difference {changed[0][0]:.2g}")
    lines.extend(line for _, line in changed[:MAX_ROWS])
    if len(changed) > MAX_ROWS:
        lines.append(f"  ... and {len(changed) - MAX_ROWS} more")
    return lines


def diff_printed(name: str, a: str, b: str) -> list[str]:
    """The report lines of printed text: ``identical``, or the lines that
    differ, old then new."""
    if a == b:
        return [f"{name}: identical"]
    lines_a, lines_b = a.splitlines(), b.splitlines()
    lines = [f"{name}: differs ({len(lines_a)} lines -> {len(lines_b)} lines)"]
    for i in range(max(len(lines_a), len(lines_b))):
        old = lines_a[i] if i < len(lines_a) else ""
        new = lines_b[i] if i < len(lines_b) else ""
        if old != new:
            lines += [f"  - {old}", f"  + {new}"]
    return lines


def diff_dirs(a: Path, b: Path) -> tuple[bool, list[str]]:
    """Every output file of two runs, then the tables ``report`` printed."""
    names_a = {p.name for p in a.iterdir()}
    names_b = {p.name for p in b.iterdir()}
    lines = [f"{name}: only in {side}" for side, names in ((a, names_a - names_b),
                                                           (b, names_b - names_a))
             for name in sorted(names)]
    for name in sorted(names_a & names_b):
        lines.extend(diff_file(name, (a / name).read_text(), (b / name).read_text()))
    lines.extend(diff_printed("report stdout", _printed_report(a).read_text(),
                              _printed_report(b).read_text()))
    return all(line.endswith(": identical") for line in lines), lines


def compare(parent: Path, change: Path, cohorts: list[str], work: Path,
            change_env: dict[str, str] | None = None) -> bool:
    same = True
    for name in cohorts:
        cohort = COHORTS[name]
        parent_csv, parent_out, parent_peak = run_side(parent, cohort, work / name / "parent")
        change_csv, change_out, change_peak = run_side(change, cohort, work / name / "change",
                                                       change_env)
        lines = diff_file("cohort.csv", parent_csv.read_text(), change_csv.read_text())
        same = same and len(lines) == 1 and lines[0].endswith(": identical")
        print(f"== {name}, synth: parent -> change")
        print("\n".join(lines))
        for jobs in JOBS:
            ok, lines = diff_dirs(parent_out[jobs], change_out[jobs])
            same = same and ok
            print(f"== {name}, --jobs {jobs}: parent -> change")
            print("\n".join(lines))
        for jobs in JOBS:
            print(peak_line(name, jobs, parent_peak[jobs], change_peak[jobs]))
        ok, lines = diff_dirs(change_out[JOBS[0]], change_out[JOBS[-1]])
        same = same and ok
        print(f"== {name}, change: --jobs {JOBS[0]} -> --jobs {JOBS[-1]}: "
              f"{'identical' if ok else 'differs'}")
        if not ok:
            print("\n".join(line for line in lines if not line.endswith(": identical")))
    return same


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--cohorts", default="acceptance,grid,long_diary",
                        help=f"comma-separated, of {', '.join(COHORTS)}")
    parser.add_argument("--change-env", action="append", default=[], metavar="NAME=VALUE",
                        help="an environment variable for the change side only (repeatable)")
    args = parser.parse_args(argv)
    change_env = {}
    for item in args.change_env:
        name, sep, value = item.partition("=")
        if not sep or not name:
            parser.error(f"--change-env takes NAME=VALUE, got {item!r}")
        change_env[name] = value
    cohorts = [c for c in args.cohorts.split(",") if c]
    unknown = [c for c in cohorts if c not in COHORTS]
    if unknown or not cohorts:
        parser.error(f"unknown cohorts {unknown}; choose from {', '.join(COHORTS)}")
    repeated = sorted({c for c in cohorts if cohorts.count(c) > 1})
    if repeated:
        parser.error(f"repeated cohorts {repeated}; name each cohort once")
    for src in (args.parent_src, args.change_src):
        if not (src / "glybench" / "__init__.py").is_file():
            parser.error(f"{src} holds no glybench package")
    if change_env:
        print("== the change side runs with "
              + " ".join(f"{name}={value}" for name, value in change_env.items()))
    with tempfile.TemporaryDirectory(prefix="compare_runs_") as work:
        try:
            same = compare(args.parent_src.resolve(), args.change_src.resolve(), cohorts,
                           Path(work), change_env)
        except CommandFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
