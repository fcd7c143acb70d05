"""Benchmark of the oia CLI sweeps.

Run from the root of an oia checkout; the program is imported from ./src:

    python3 perfbench/run.py --workload run-3x3 --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: sweep throughput, CPU
per trial and peak memory from untraced sweeps, and set-up time from fresh
interpreters. With ``--trace 1`` it reports the per-layer metrics of traced
sweeps instead. Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from sweep import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 8  # before the sweeps, and as many after, to sample two moments
# What a fresh interpreter does before the CLI can start its first trial.
SETUP_CODE = "import oia.cli; oia.cli.build_parser()"
TIME_LIMIT_S = 170.0  # a whole run, set-up included, ends within three minutes


def pin_environment(src: Path) -> None:
    """Fix what this process and the program see: one BLAS thread, no OIA_WORKERS."""
    os.environ.pop("OIA_WORKERS", None)
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(src))


def time_setups(count: int) -> list:
    """Wall times from a fresh interpreter to a built CLI parser.

    Not calibrated: interpreter start-up is mostly loading and kernel work,
    which the calibration pass tracked worse than the spawn times varied.
    """
    times = []
    for _ in range(count):
        start = time.perf_counter()
        # Waiting on a pipe, not polling the child, keeps the timing exact.
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True, timeout=60,
                       stdout=subprocess.PIPE)
        times.append(time.perf_counter() - start)
    return times


def run_sweeps(args, out: Path, timeout: float) -> dict:
    """Start the sweep process in its own session and wait for its result."""
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if args.trials:
        cmd += ["--trials", str(args.trials)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The session holds the sweep process and any pool workers it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"sweep process exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the oia CLI sweeps.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="master seed of every sweep")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced sweeps")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per SNR cell (default: the workload's own)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "oia" / "cli.py").is_file():
        print("perfbench: no ./src/oia here; run from the root of an oia checkout",
              file=sys.stderr)
        return 2
    pin_environment(root / "src")
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    try:
        setups = [] if args.trace else time_setups(SETUP_SPAWNS)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            result = run_sweeps(args, Path(tmp) / "sweep.csv",
                                TIME_LIMIT_S - (time.monotonic() - started))
        setups += [] if args.trace else time_setups(SETUP_SPAWNS)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"workload {args.workload}: seed {args.seed}, {result['sweeps']} timed sweeps "
          "after one untimed warm-up sweep")
    for name, metric in sorted(metrics.items()):
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {failed / attempted:.6g} fraction ({failed} of {attempted} sweeps)")
    if "uncalibrated_trials_per_s" in result:
        print(f"  uncalibrated trials_per_s = {result['uncalibrated_trials_per_s']:.6g} 1/s")
    if result.get("absent"):
        print(f"  absent from the trace: {', '.join(result['absent'])}")
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
