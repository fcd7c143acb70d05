"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the CPU's speed shifts by up to 1.6x within
seconds and drifts over minutes, so two runs of the same code can differ by
20% or more. The benchmark therefore samples the speed while it measures: a
fixed, trial-shaped pass of seeding, small-matrix numpy work and Python
loops, which uses no oia code, runs every PERIOD_S from a timer signal
during each timed sweep, and its time is taken out of the sweep's. Sweep
times are then reported as if every pass had taken REFERENCE_S, i.e.
multiplied by REFERENCE_S over the run's mean pass time. A change to the
program does not change the passes, so calibrated times still move with the
program, and much less with the machine.

In a pool sweep the passes run in the parent while the workers go on, so
their time is not taken out of the sweep's. They also read slower while both
workers are busy: 1.22x, median of 12 alternations on the VM named below.
So the factor follows the program's own load a little. A pool change that
removed all idle worker time (15% of the two cores at the pool workload's
size) would gain at most about 0.22 x 15% = 3% on top of its real gain,
less than that workload's run-to-run spread. Passes taken only between pool
sweeps, when no worker runs, avoided this but tracked the sweeps' speed
worse than it varied.
"""

from __future__ import annotations

import functools
import signal
import time

# Duration of one pass that defines the reporting speed. It is about what a
# pass takes on a 2-vCPU Xeon (Sapphire Rapids) VM, so reported times read
# close to its wall-clock times.
REFERENCE_S = 0.0002
PERIOD_S = 0.05


@functools.cache
def _operands():
    import numpy as np
    large = np.random.default_rng(20080620).standard_normal((20, 20, 2)) @ np.array([1.0, 1j])
    return np, large


def _synthetic_trial(np) -> float:
    """A trial-shaped mix of seeding, small linear algebra and Python loops."""
    rng = np.random.default_rng(np.random.SeedSequence((20080620, 1, 0)))
    z = rng.standard_normal((4, 3, 3, 2))
    h = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    _, s, vh = np.linalg.svd(h[0])
    gains = sorted(1.0 / s**2)
    level, used = gains[0] + 1.0, 1
    while used < len(gains) and gains[used] < level:
        used += 1
        level = (1.0 + sum(gains[:used])) / used
    x = np.linalg.solve(h[1], vh.conj().T)
    w, v = np.linalg.eigh(h[2] @ h[2].conj().T + np.eye(3))
    g = ((v * (1.0 / np.sqrt(w))) @ v.conj().T) @ h[3] @ x
    return float(np.sum(np.log1p(np.linalg.svd(g, compute_uv=False) ** 2)))


def pass_s() -> float:
    """CPU time one calibration pass takes now, in this thread.

    A pass is the fastest of five short runs of the same work, timed in
    thread CPU time, so that time spent waiting for a core, or refilling
    caches after being preempted, does not read as a slow machine.
    """
    np, large = _operands()
    best = float("inf")
    for _ in range(5):
        start = time.thread_time()
        _synthetic_trial(np)
        np.linalg.svd(large)
        best = min(best, time.thread_time() - start)
    return best


def scale(passes_s) -> float:
    """Factor turning times measured among these passes into reference time."""
    return REFERENCE_S * len(passes_s) / sum(passes_s)


class SpeedProbe:
    """Runs a pass every PERIOD_S from SIGALRM while active.

    ``passes`` collects the pass durations; ``spent_s`` and ``spent_cpu_s``
    add up the wall and CPU time the probe took, so a caller can take them
    out of what it measured. Processes forked meanwhile do not inherit the
    timer.
    """

    def __init__(self):
        self.passes = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        pass_s()  # the first pass pays for imports and cold caches

    def _sample(self, signum, frame):
        start, cpu = time.perf_counter(), time.process_time()
        self.passes.append(pass_s())
        self.spent_cpu_s += time.process_time() - cpu
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
