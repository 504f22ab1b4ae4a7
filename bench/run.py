"""Benchmark of the glybench CLI on seeded synthetic workloads.

Run from any directory; the program under test is the checkout's src/:

    python3 bench/run.py --workload grid --seed 2026 --seconds 60 --trace 0

Each run synthesizes the workload's cohort from ``--seed`` (not timed),
then repeats rounds until the next round would end past ``--seconds``
(at least two rounds). A round runs, each in a fresh process, the
set-up probe, ``glybench run``, ``glybench inspect --out`` and
``glybench report``, and checks every output. With ``--trace 1`` a
round also runs the same cells serially in one traced process.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (an operation is one grid cell,
or one ``inspect`` or ``report`` command), and the medians over rounds
of the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` declares. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

K = 10
MIN_RECORDS = 20
MIN_ROUNDS = 2
# inspect is short (about a second, mostly import) and noisy, so each
# round samples it more than once
INSPECTS_PER_ROUND = 2
# every child is killed by then, so a run ends well within 180 s
HARD_LIMIT_S = 165.0


@dataclass(frozen=True)
class Workload:
    seed: int
    patients: int
    days: int
    variants: tuple[str, ...]
    models: tuple[str, ...]   # `run` appends naive when it is missing
    jobs: int


WORKLOADS = {
    "grid": Workload(
        2026, 2, 40, ("D_a6",),
        ("naive", "ridge", "KNN10U", "rf4", "gpr_IndPat_AllMeals", "gpr_be",
         "gpr_AllPat_AllMeals", "gpr_be_AllPat_AllMeals"),
        jobs=1),
    "long_diary": Workload(
        2027, 1, 200, ("D_e6", "D_a6"),
        ("naive", "ridge", "gpr_IndPat_AllMeals", "gpr_be"),
        jobs=1),
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Finished:
    wall_s: float
    cpu_s: float          # user + system, including reaped workers
    peak_rss_mb: float    # largest of the process and its reaped workers
    status: int
    stdout: str
    stderr: str

    def last_line(self) -> str:
        lines = self.stdout.strip().splitlines()
        return lines[-1] if lines else ""

    def failure(self, what: str) -> str:
        tail = " | ".join(self.stderr.strip().splitlines()[-3:])
        return f"{what} exited {self.status}: {tail}"


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts children in the checkout and reaps each with its rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def run(self, argv: list[str]) -> Finished:
        with open(self.work / "stdout", "w+b") as out, \
                open(self.work / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=err, start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - start),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Finished(
                wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0,
                status=proc.returncode,
                stdout=out.read().decode("utf-8", "replace"),
                stderr=err.read().decode("utf-8", "replace"),
            )

    def glybench(self, *args: str) -> Finished:
        return self.run([sys.executable, "-m", "glybench.cli", *args])


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

@dataclass
class Round:
    samples: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, list[float]] = field(default_factory=dict)
    hashes: dict[str, dict[str, str]] = field(default_factory=dict)
    errors: list[checks.Error] = field(default_factory=list)
    probe: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload: Workload, seed: int, trace: bool,
                 runner: Runner, cohort: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.runner = runner
        self.cohort = cohort
        self.models = list(workload.models)
        if "naive" not in self.models:
            self.models.append("naive")
        self.cells = [f"cell:{v}/{m}" for v in workload.variants for m in self.models]
        self.cleaned_counts = checks.cleaned_counts(str(cohort))

    def run_args(self, out: Path, jobs: int) -> list[str]:
        w = self.workload
        return ["run", "--input", str(self.cohort), "--out", str(out),
                "--variants", ",".join(w.variants), "--models", ",".join(w.models),
                "--k", str(K), "--min-records", str(MIN_RECORDS),
                "--seed", str(self.seed), "--jobs", str(jobs)]

    def attempted_per_round(self) -> int:
        cells = len(self.cells)
        return cells + INSPECTS_PER_ROUND + 1 + (cells if self.trace else 0)

    def failed_operations(self, errors: list[checks.Error]) -> set[str]:
        failed = set()
        for op, _ in errors:
            if op == "run":
                failed.update(self.cells)
            elif op == "traced":
                failed.update("traced " + c for c in self.cells)
            else:
                failed.add(op)
        return failed

    def round(self) -> Round:
        r = Round()
        work = self.runner.work
        w = self.workload

        probe = self.runner.run([sys.executable, str(BENCH / "setup_probe.py"),
                                 str(self.cohort), str(MIN_RECORDS), *w.variants])
        r.samples["setup_s"] = [probe.wall_s]
        if probe.status != 0:
            r.errors.append(("run", probe.failure("set-up probe")))
        else:
            try:
                r.probe = json.loads(probe.last_line())
            except ValueError:
                r.errors.append(("run", f"set-up probe printed {probe.last_line()!r}"))
            else:
                r.errors += self.check_probe(r.probe)

        results = work / "results"
        shutil.rmtree(results, ignore_errors=True)
        run = self.runner.glybench(*self.run_args(results, w.jobs))
        r.samples.update(run_s=[run.wall_s], cpu_s=[run.cpu_s],
                         peak_rss_mb=[run.peak_rss_mb], inspect_s=[])
        if run.status != 0:
            r.errors.append(("run", run.failure("glybench run")))

        for i in range(INSPECTS_PER_ROUND):
            op = f"inspect{i}"
            inspect_dir = work / op
            shutil.rmtree(inspect_dir, ignore_errors=True)
            inspect_dir.mkdir()
            inspect = self.runner.glybench("inspect", "--input", str(self.cohort),
                                           "--out", str(inspect_dir))
            r.samples["inspect_s"].append(inspect.wall_s)
            if inspect.status != 0:
                r.errors.append((op, inspect.failure("glybench inspect")))
            r.errors += checks.guarded(op, checks.check_ep_counts,
                                       str(inspect_dir / "ep_counts.csv"),
                                       self.cleaned_counts, op)
            r.hashes[op] = _hashes(inspect_dir)

        summary = work / "summary.csv"
        summary.unlink(missing_ok=True)
        report = self.runner.glybench("report", str(results), "--out", str(summary))
        if report.status != 0:
            r.errors.append(("report", report.failure("glybench report")))

        r.errors += checks.check_outputs(
            str(results), str(summary), str(self.cohort),
            w.variants, self.models, K, MIN_RECORDS)
        r.hashes["run"] = _hashes(results)
        r.hashes["report"] = (
            {summary.name: checks.file_hash(str(summary))} if summary.exists() else {})

        if self.trace:
            self.traced_round(r, run.wall_s)
        return r

    def check_probe(self, probe: dict) -> list[checks.Error]:
        errors = []
        if Path(probe["glybench_file"]).resolve().parent != SRC / "glybench":
            errors.append(("run", f"set-up probe imported {probe['glybench_file']}"))
        for vid, retained in probe["retained_patients"].items():
            if retained == 0:
                errors.append(("run", f"{vid}: no patient retained"))
        return errors

    def traced_round(self, r: Round, untraced_run_s: float) -> None:
        traced_dir = self.runner.work / "traced"
        shutil.rmtree(traced_dir, ignore_errors=True)
        traced = self.runner.run([sys.executable, str(BENCH / "traced.py"),
                                  *self.run_args(traced_dir, jobs=1)])
        if traced.status != 0:
            r.errors.append(("traced", traced.failure("traced run")))
            return
        try:
            layers = json.loads(traced.last_line())
        except ValueError:
            r.errors.append(("traced", f"traced run printed {traced.last_line()!r}"))
            return
        layers["trace.run_s"] = traced.wall_s
        layers["trace.overhead_ratio"] = traced.wall_s / untraced_run_s
        r.layers = {name: [value] for name, value in layers.items()}
        # serial traced output must equal the CLI run's, byte for byte
        r.errors += checks.check_same_files(
            r.hashes["run"], _hashes(traced_dir), "traced", "traced vs CLI results")


def _hashes(directory: Path) -> dict[str, str]:
    return checks.tree_hashes(str(directory)) if directory.is_dir() else {}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="cohort and CV seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=60.0,
                   help="measurement window; rounds stop when the next would overrun it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced serial run")
    return p.parse_args(argv)


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def synthesize(runner: Runner, workload: Workload, seed: int) -> Path:
    config = runner.work / "synth.json"
    config.write_text(json.dumps(
        {"preset": "default", "patients": workload.patients, "days": workload.days}))
    cohort = runner.work / "cohort.csv"
    done = runner.glybench("synth", "--config", str(config), "--seed", str(seed),
                           "--out", str(cohort))
    if done.status != 0:
        raise SetupError(done.failure("glybench synth"))
    return cohort


def measure(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if not (SRC / "glybench" / "__init__.py").is_file():
        raise SetupError(f"no glybench package under {SRC}")
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if workload.jobs > nproc:
        raise SetupError(f"{args.workload} starts {workload.jobs} workers "
                         f"but only {nproc} processors are available")
    metrics = declared_metrics(bool(args.trace))
    seed = workload.seed if args.seed is None else args.seed

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, deadline=started + HARD_LIMIT_S)
    cohort = synthesize(runner, workload, seed)
    bench = Bench(workload, seed, bool(args.trace), runner, cohort)

    rounds: list[Round] = []
    durations: list[float] = []
    window_start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(bench.round())
        durations.append(time.perf_counter() - t)
        now = time.perf_counter()
        if now + max(durations) > started + HARD_LIMIT_S:
            break
        if (len(rounds) >= MIN_ROUNDS
                and now - window_start + statistics.median(durations) > args.seconds):
            break

    failed: set[str] = set()
    for i, r in enumerate(rounds):
        errors = list(r.errors)
        for op, hashes in r.hashes.items():
            errors += checks.check_same_files(rounds[0].hashes[op], hashes, op,
                                              f"round {i} vs round 0")
        for op, message in errors:
            print(f"FAIL round {i} {op}: {message}")
        failed |= {f"{i} {op}" for op in bench.failed_operations(errors)}

    values = _medians([r.layers if args.trace else r.samples for r in rounds])
    missing = [name for name, _ in metrics if name not in values]
    if missing and not failed:
        raise SetupError(f"declared metrics never measured: {missing}")
    # a metric whose every sample failed reads 0; `correct` is then false
    result_metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                      for name, unit in metrics}

    probe = next((r.probe for r in rounds if r.probe), {})
    machine = {"nproc": nproc, **{key: probe.get(key) for key in
                                  ("python", "numpy", "scipy", "blas_threads")}}
    print("workload: " + json.dumps({
        "name": args.workload, "seed": seed, "patients": workload.patients,
        "days": workload.days, "variants": workload.variants,
        "models": bench.models, "jobs": workload.jobs, "trace": args.trace,
        "rounds": len(rounds), "round_s": durations}))
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, unit in metrics:
        print(f"{name:<40} {result_metrics[name]['value']:>14.6f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": bench.attempted_per_round() * len(rounds),
        "failed": len(failed),
        "metrics": result_metrics,
    }))
    return 0


def _medians(per_round: list[dict[str, list[float]]]) -> dict[str, float]:
    pooled: dict[str, list[float]] = {}
    for samples in per_round:
        for name, values in samples.items():
            pooled.setdefault(name, []).extend(values)
    return {name: statistics.median(values) for name, values in pooled.items() if values}


def _terminate(signum, frame):
    # unwinds through Runner.run, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return measure(args)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
