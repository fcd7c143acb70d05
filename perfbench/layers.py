"""Outside-in tracing of the oia layers.

The program itself carries no instrumentation. Tracing replaces a public
function, for the length of one sweep, by a timing wrapper under every name
that an ``oia`` module binds it to, so each caller's lookup (for instance
``oia.experiments.design_primary`` or ``oia.secondary.hermitian_inv_sqrt``)
reaches the wrapper. A traced name that no longer exists, or that is never
called, is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import pkgutil
import statistics
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager

# Each entry is "<module>.<function>" under the oia package.
TRACED = (
    "cli.cli_main",
    "experiments.run_grid",
    "experiments.run_trial",
    "experiments.write_csv",
    "channel.derive_stream",
    "channel.draw_channel_set",
    "primary.design_primary",
    "primary.primary_rate",
    "secondary.build_precoder",
    "secondary.interference_covariance",
    "secondary.uniform_secondary",
    "secondary.optimal_secondary",
    "kernels.svd",
    "kernels.pinv_tall",
    "kernels.hermitian_inv_sqrt",
    "kernels.log2_det_id_plus",
    "waterfill.waterfill",
)
TRIAL = "experiments.run_trial"


def _oia_modules() -> list:
    import oia
    return [oia] + [importlib.import_module(f"oia.{info.name}")
                    for info in pkgutil.iter_modules(oia.__path__)]


@contextmanager
def _rebound(target, replacement):
    """Bind ``replacement`` wherever an oia module binds ``target``, then undo."""
    sites = [(module, name) for module in _oia_modules()
             for name, value in list(vars(module).items()) if value is target]
    for module, name in sites:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for module, name in sites:
            setattr(module, name, target)


class LayerTrace:
    """Self time, call counts and trial outcomes gathered over traced sweeps.

    Self time is a span's duration minus the part covered by wrapped calls
    made inside it, so the self times of nested layers add up to the traced
    wall time without double counting.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.trial_us = []
        self.trials_with_unused = 0
        self.trials_observed = 0
        self.pool_bytes = 0
        self.pool_seen = False
        self.missing = set()
        self._open = []  # wrapped time of the children of each open span

    def _wrap(self, name, fn):
        open_spans, clock = self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[name] += elapsed - open_spans.pop()
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if name == TRIAL:
                self.trial_us.append(elapsed * 1e6)
                unused = getattr(result, "unused_modes", None)
                if unused is not None:
                    self.trials_observed += 1
                    self.trials_with_unused += unused > 0
            return result

        return traced

    @contextmanager
    def spans(self):
        """Wrap every name in TRACED for the duration of the block."""
        with ExitStack() as stack:
            for name in TRACED:
                module_name, func_name = name.split(".")
                try:
                    target = getattr(importlib.import_module(f"oia.{module_name}"), func_name)
                except (ImportError, AttributeError):
                    self.missing.add(name)
                    continue
                stack.enter_context(_rebound(target, self._wrap(name, target)))
            yield self

    @contextmanager
    def pool_tasks(self):
        """Count the pickled bytes of every task the sweep hands to a process pool."""
        from concurrent.futures import ProcessPoolExecutor
        trace = self

        class CountingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                trace.pool_seen = True
                trace.pool_bytes += len(pickle.dumps((fn, args, kwargs)))
                return super().submit(fn, *args, **kwargs)

        with _rebound(ProcessPoolExecutor, CountingPool):
            yield self

    def absent(self) -> list:
        """Traced names that do not exist or were never called."""
        return sorted(self.missing | {n for n in TRACED if n not in self.missing
                                      and self.calls[n] == 0})

    def metrics(self, trials: int, sweeps: int, pool_tasks: int, scale: float) -> dict:
        """Per-layer metrics for ``trials`` completed trials over ``sweeps`` traced sweeps.

        Times are multiplied by ``scale``, the machine-speed calibration of
        the traced sweeps.
        """
        def us_per_trial(name):
            return self.self_s[name] * 1e6 * scale / trials

        def per_call_ms(name):
            calls = self.calls[name]
            return self.self_s[name] * 1e3 * scale / calls if calls else 0.0

        out = {}
        for name in ("channel.derive_stream", "channel.draw_channel_set",
                     "primary.design_primary", "primary.primary_rate",
                     "secondary.build_precoder", "secondary.interference_covariance",
                     "secondary.uniform_secondary", "secondary.optimal_secondary",
                     "experiments.run_trial", "experiments.run_grid"):
            out[f"{name}.us_per_trial"] = (us_per_trial(name), "us")
        for name in ("kernels.svd", "kernels.pinv_tall", "kernels.hermitian_inv_sqrt",
                     "kernels.log2_det_id_plus", "waterfill.waterfill"):
            out[f"{name}.us_per_trial"] = (us_per_trial(name), "us")
            out[f"{name}.calls_per_trial"] = (self.calls[name] / trials, "count")
        out["channel.draw_channel_set.calls_per_trial"] = (
            self.calls["channel.draw_channel_set"] / trials, "count")
        if len(self.trial_us) >= 2:
            q = statistics.quantiles(self.trial_us, n=100, method="inclusive")
            p50, p99 = q[49] * scale, q[98] * scale
        else:
            p50 = p99 = self.trial_us[0] * scale if self.trial_us else 0.0
        out["experiments.run_trial.p50_us"] = (p50, "us")
        out["experiments.run_trial.p99_us"] = (p99, "us")
        out["experiments.run_trial.samples"] = (len(self.trial_us), "count")
        out["experiments.run_grid.calls"] = (self.calls["experiments.run_grid"] / sweeps, "count")
        out["experiments.write_csv.ms"] = (per_call_ms("experiments.write_csv"), "ms")
        out["cli.cli_main.ms"] = (per_call_ms("cli.cli_main"), "ms")
        out["secondary.active_share"] = (
            self.trials_with_unused / self.trials_observed if self.trials_observed else 0.0,
            "fraction")
        out["experiments.pool.bytes_per_task"] = (
            self.pool_bytes / pool_tasks if pool_tasks else 0.0, "B")
        return out

