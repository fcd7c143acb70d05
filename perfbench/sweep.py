"""Sweep process of the benchmark: runs one workload's CLI sweeps in a closed loop.

``run.py`` starts this script in a fresh interpreter with the environment it
pins, so that BLAS threading and ``OIA_WORKERS`` are fixed before numpy is
imported. The script calls ``oia.cli.cli_main`` once untimed as warm-up (the
first sweep of a process runs slower than later ones), then repeats the same
sweep, each one starting after the previous ended, until ``--seconds`` have
passed. Every sweep's CSV is checked. The last line of stdout is one JSON
object with the sweeps, the environment and, with ``--trace 1``, the layers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# The fixed 13-column contract of the CSV; a change to it is a failed check.
CSV_HEADER = (
    "nt,nr,snr_db,trials_used,discarded_trials,"
    "avg_unused_modes,stderr_unused_modes,"
    "avg_rate_primary,stderr_rate_primary,"
    "avg_rate_secondary_uniform,stderr_rate_secondary_uniform,"
    "avg_rate_secondary_optimal,stderr_rate_secondary_optimal"
)
# The CLI's default SNR grid, -20..40 dB in 2 dB steps, as the CSV renders it.
SNR_DB = tuple(f"{-20.0 + 2.0 * k:.9g}" for k in range(31))


@dataclass(frozen=True)
class Workload:
    argv: tuple        # CLI arguments before --trials/--seed/--workers/--out
    geometries: tuple  # (nt, nr) per swept geometry, in CSV order
    trials: int        # trials per SNR cell
    workers: int

    def sweep_key(self, trials: int) -> str:
        """Names the sweep's output; worker count is left out because it must not matter."""
        return " ".join([*self.argv, "--trials", str(trials)])

    def cli_args(self, trials: int, seed: int, workers: int, out: Path) -> list:
        return [*self.argv, "--trials", str(trials), "--seed", str(seed),
                "--workers", str(workers), "--out", str(out)]


# Trials per cell (README, "Trials per cell"): a serial sweep pays almost
# nothing outside its trials, so 100 and 40 just make it about 2 s long. The
# pool sweep pays about 0.39 s per sweep for its 9 pools and the CLI; 60
# trials keep that near 4% of the sweep while two sweeps fit in a 20-s run.
WORKLOADS = {
    "run-3x3": Workload(("run", "--nt", "3", "--nr", "3"), ((3, 3),), 100, 1),
    "run-20x20": Workload(("run", "--nt", "20", "--nr", "20"), ((20, 20),), 40, 1),
    "run-3x5": Workload(("run", "--nt", "3", "--nr", "5"), ((3, 5),), 100, 1),
    "fig-unused-w2": Workload(("fig-unused",), tuple((n, n) for n in range(2, 11)), 60, 2),
}


def check_csv(text: str, workload: Workload, trials: int) -> tuple[list, int, int]:
    """Structural problems of one sweep's CSV, its trials used and its trials discarded."""
    lines = text.split("\n")
    if not text.endswith("\n"):
        return ["CSV does not end with a newline"], 0, 0
    lines.pop()
    if lines[0] != CSV_HEADER:
        return ["header differs from the fixed 13-column header"], 0, 0
    expected = [(str(nt), str(nr), snr) for nt, nr in workload.geometries for snr in SNR_DB]
    if len(lines) - 1 != len(expected):
        return [f"{len(lines) - 1} rows, expected one per cell ({len(expected)})"], 0, 0
    problems, completed, discards = [], 0, 0
    for number, (line, cell) in enumerate(zip(lines[1:], expected), start=2):
        fields = line.split(",")
        try:
            if len(fields) != 13 or tuple(fields[:3]) != cell:
                raise ValueError(f"expected cell {','.join(cell)}")
            used, discarded = int(fields[3]), int(fields[4])
            values = [float(v) for v in fields[5:]]
        except ValueError as exc:
            problems.append(f"line {number}: malformed row ({exc})")
            continue
        completed += used
        discards += discarded
        n = min(int(cell[0]), int(cell[1]))
        if used != trials or discarded < 0:
            problems.append(f"line {number}: trials_used {used}, discarded {discarded}")
        if not 0.0 <= values[0] <= n - 1:
            problems.append(f"line {number}: avg_unused_modes {values[0]} outside [0, {n - 1}]")
        if not all(math.isfinite(v) and v >= 0.0 for v in values[2:]):
            problems.append(f"line {number}: a rate is negative or not finite")
    return problems, completed, discards


def _cpu_s() -> float:
    """User+sys CPU of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment() -> dict:
    """Facts about the interpreter, numpy build and pinned environment of this run."""
    import multiprocessing

    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "mp_start_method": multiprocessing.get_start_method(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OIA_WORKERS": os.environ.get("OIA_WORKERS"),
    }


class Sweeper:
    """Runs one workload's sweep repeatedly and checks every CSV it writes."""

    def __init__(self, workload: Workload, trials: int, seed: int, out: Path):
        from oia import cli
        self.cli = cli
        self.workload, self.trials, self.seed, self.out = workload, trials, seed, out
        self.reference = None
        if REFERENCE.is_file():
            stored = json.loads(REFERENCE.read_text())["sweeps"]
            self.reference = stored.get(workload.sweep_key(trials), {}).get(str(seed))
        self.first_digest = None
        self.records = []
        self.probe = calibrate.SpeedProbe()

    def scale(self) -> float:
        """Calibration factor of the probed sweeps (see calibrate.py)."""
        return calibrate.scale(self.probe.passes or [calibrate.pass_s()])

    def sweep(self, workers: int, traced: bool = False) -> dict:
        argv = self.workload.cli_args(self.trials, self.seed, workers, self.out)
        self.out.unlink(missing_ok=True)
        # Probe the machine's speed during timed, untraced sweeps only: the
        # warm-up is not reported and the probe would inflate traced spans.
        probe = self.probe if self.records and not traced else contextlib.nullcontext()
        spent, spent_cpu = self.probe.spent_s, self.probe.spent_cpu_s
        cpu0, start = _cpu_s(), time.perf_counter()
        with probe:
            try:
                code = self.cli.cli_main(argv)
                error = None if code == 0 else f"cli_main returned {code}"
            except Exception as exc:  # a crash fails this sweep, not the run
                traceback.print_exc()
                error = f"cli_main raised {exc!r}"
        wall = time.perf_counter() - start
        if workers == 1:  # the sweep waited for the probe; pool workers did not
            wall -= self.probe.spent_s - spent
        cpu = _cpu_s() - cpu0 - (self.probe.spent_cpu_s - spent_cpu)
        problems, completed, discards = [], 0, 0
        if error is None:
            try:
                data = self.out.read_bytes()
            except OSError as exc:
                error = f"no CSV written ({exc})"
        if error is not None:
            problems.append(error)
        else:
            digest = hashlib.sha256(data).hexdigest()
            problems, completed, discards = check_csv(data.decode("ascii", "replace"),
                                                      self.workload, self.trials)
            if self.first_digest is None:
                self.first_digest = digest
                if self.reference is not None and digest != self.reference:
                    problems.append("CSV differs from the reference digest for this seed")
            elif digest != self.first_digest:
                problems.append(f"CSV of a rerun with {workers} worker(s) differs from the first")
        record = {"workers": workers, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                  "trials": completed, "discards": discards, "problems": problems}
        self.records.append(record)
        return record


def _per_trial(records, key="wall_s") -> float:
    return sum(r[key] for r in records) / max(sum(r["trials"] for r in records), 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    trials = args.trials or workload.trials

    import oia
    source = Path.cwd() / "src" / "oia"
    if Path(oia.__file__).resolve().parent != source.resolve():
        print(f"sweep: imported oia from {oia.__file__}, not from {source}", file=sys.stderr)
        return 2
    from layers import LayerTrace

    sweeper = Sweeper(workload, trials, args.seed, args.out)
    trace = LayerTrace()
    if args.trace:
        # The warm-up sweep also counts pool task bytes, which timing cannot change.
        with trace.pool_tasks():
            warm = sweeper.sweep(workload.workers)
        # Each cycle: the workload as run, an untraced serial sweep when the
        # workload uses a pool, and a traced serial sweep to compare with it.
        cycle = [(workload.workers, False)]
        cycle += [(1, False)] if workload.workers > 1 else []
        cycle += [(1, True)]
    else:
        warm = sweeper.sweep(workload.workers)
        cycle = [(workload.workers, False)]
    deadline = time.perf_counter() + args.seconds
    while True:
        for workers, traced in cycle:
            if traced:
                with trace.spans():
                    sweeper.sweep(workers, traced=True)
            else:
                sweeper.sweep(workers)
        if time.perf_counter() >= deadline:
            break

    timed = sweeper.records[1:]
    scale = sweeper.scale()
    native = [r for r in timed if r["workers"] == workload.workers and not r["traced"]]
    result = {
        "environment": environment(),
        "attempted": len(sweeper.records),
        "failed": sum(bool(r["problems"]) for r in sweeper.records),
        "problems": [p for r in sweeper.records for p in r["problems"]],
        "sweeps": len(timed),
    }
    if args.trace:
        serial = [r for r in timed if r["workers"] == 1 and not r["traced"]]
        traced = [r for r in timed if r["traced"]]
        traced_trials = sum(r["trials"] for r in traced)
        metrics = trace.metrics(max(traced_trials, 1), len(traced), warm["trials"], scale)
        metrics["trace.overhead_frac"] = (_per_trial(traced) / _per_trial(serial) - 1.0,
                                          "fraction")
        metrics["experiments.pool.cpu_util"] = (
            sum(r["cpu_s"] for r in native)
            / sum(r["wall_s"] * r["workers"] for r in native)
            if trace.pool_seen else 0.0, "fraction")
        discards = sum(r["discards"] for r in traced)
        metrics["experiments.discard_frac"] = (discards / max(traced_trials + discards, 1),
                                               "fraction")
        result["absent"] = trace.absent() + ([] if trace.pool_seen else ["experiments.pool"])
    else:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "trials_per_s": (1.0 / (_per_trial(native) * scale), "1/s"),
            "cpu_s_per_ktrial": (1e3 * _per_trial(native, "cpu_s") * scale, "s"),
            # ru_maxrss is in KiB; workers run at once, so each counts at the largest peak.
            "peak_rss_mb": ((own + workload.workers * kids) / 1024.0, "MB"),
        }
        result["uncalibrated_trials_per_s"] = 1.0 / _per_trial(native)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
