"""Monte Carlo sweeps over antenna counts and SNR, aggregated to CSV rows."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, TrialSeed, derive_stream, draw_channel_set
from .errors import InvalidInputError, RedrawError
from .primary import design_primary, primary_rate
from .secondary import (
    build_precoder,
    interference_covariance,
    optimal_secondary,
    uniform_secondary,
    whitener,
)

# Replacement draws for discarded trials take indices at or above this base so
# they can never collide with regular trial indices.
REPLACEMENT_BASE = 2**31
_MAX_ATTEMPTS = 100

CSV_HEADER = (
    "nt,nr,snr_db,trials_used,discarded_trials,"
    "avg_unused_modes,stderr_unused_modes,"
    "avg_rate_primary,stderr_rate_primary,"
    "avg_rate_secondary_uniform,stderr_rate_secondary_uniform,"
    "avg_rate_secondary_optimal,stderr_rate_secondary_optimal"
)


@dataclass(frozen=True)
class ExperimentGrid:
    """One antenna geometry swept over an SNR grid.

    SNR is the transmit budget over the noise variance, in dB; the sweep
    varies p_max with sigma2 held fixed so the interference noise floor stays
    constant across cells.
    """

    nt: int
    nr: int
    snr_db_list: tuple
    trials: int
    sigma2: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))
        if self.nt < 1:
            raise InvalidInputError("nt must be >= 1")
        if self.nr < self.nt:
            raise InvalidInputError(
                f"unsupported geometry: nr={self.nr} < nt={self.nt} "
                "(need at least as many receive as transmit antennas)")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if len(self.snr_db_list) == 0:
            raise InvalidInputError("snr_db_list must be nonempty")
        if any(b <= a for a, b in zip(self.snr_db_list, self.snr_db_list[1:])):
            raise InvalidInputError("snr_db_list must be strictly increasing")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise InvalidInputError("sigma2 must be positive and finite")
        for snr_db in self.snr_db_list:
            snr_to_power(snr_db, self.sigma2)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single Monte Carlo trial."""

    unused_modes: int
    rate_primary: float
    rate_secondary_uniform: float
    rate_secondary_optimal: float
    discards: int


@dataclass(frozen=True)
class ResultRow:
    """Per-cell averages and standard errors, one CSV data row."""

    nt: int
    nr: int
    snr_db: float
    trials_used: int
    discarded_trials: int
    avg_unused_modes: float
    stderr_unused_modes: float
    avg_rate_primary: float
    stderr_rate_primary: float
    avg_rate_secondary_uniform: float
    stderr_rate_secondary_uniform: float
    avg_rate_secondary_optimal: float
    stderr_rate_secondary_optimal: float


def snr_to_power(snr_db: float, sigma2: float) -> float:
    """Transmit budget corresponding to an SNR point.

    Raises InvalidInputError when the budget is not a positive finite float.
    """
    try:
        p_max = sigma2 * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        p_max = math.inf
    if not (math.isfinite(p_max) and p_max > 0):
        raise InvalidInputError(
            f"SNR {snr_db:g} dB gives transmit budget {p_max:g}, not a positive finite power")
    return p_max


def run_trial(grid: ExperimentGrid, grid_index: int, snr_db: float, trial_index: int,
              channels: ChannelSet | None = None) -> TrialRecord:
    """One seeded trial: draw channels, design both links, record S and rates.

    Trials whose channels fail a rank guard are discarded, counted, and
    replaced by a redraw at ``trial_index + attempt * REPLACEMENT_BASE``, so
    replacements are deterministic and never collide with regular indices.

    ``channels`` is a test seam bypassing the seeded draw; with injected
    channels, rejection errors propagate instead of triggering a redraw.
    """
    p_max = snr_to_power(snr_db, grid.sigma2)
    discards = 0
    for attempt in range(_MAX_ATTEMPTS):
        if channels is None:
            idx = trial_index if attempt == 0 else trial_index + attempt * REPLACEMENT_BASE
            stream = derive_stream(TrialSeed(grid.master_seed, grid_index, idx))
            chans = draw_channel_set(grid.nr, grid.nt, stream)
        else:
            chans = channels
        try:
            primary = design_primary(chans.h11, p_max, grid.sigma2)
            v2_raw, active = build_precoder(chans.h12, primary.svd.u, primary.p1_bar)
            q = interference_covariance(chans.h21, primary.svd.v, primary.p1.powers,
                                        grid.sigma2)
            f2 = whitener(q, grid.sigma2)
            uni = uniform_secondary(v2_raw, active, f2, chans.h22, p_max)
            opt = optimal_secondary(v2_raw, active, f2, chans.h22, p_max)
        except RedrawError as exc:
            if channels is not None:
                raise
            rejection = exc
            discards += 1
            continue
        return TrialRecord(unused_modes=primary.unused_count,
                           rate_primary=primary_rate(primary),
                           rate_secondary_uniform=uni.rate,
                           rate_secondary_optimal=opt.rate,
                           discards=discards)
    raise RedrawError(rejection.reason,
                      f"trial {trial_index} rejected {_MAX_ATTEMPTS} times in a row")


def _run_trial_packed(args) -> TrialRecord:
    grid, grid_index, snr_db, trial_index = args
    return run_trial(grid, grid_index, snr_db, trial_index)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    # single-trial cells report stderr 0 by convention
    if values.size < 2:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def run_grid(grid: ExperimentGrid, workers: int = 1, grid_offset: int = 0) -> list[ResultRow]:
    """All cells of the grid, one ResultRow per SNR point.

    Cell c uses grid_index = grid_offset + c; pass distinct offsets when
    sweeping several geometries under one master seed. Every trial's stream
    depends only on (master_seed, grid_index, trial_index) and aggregation
    runs in trial-index order, so the output is identical for any worker
    count.
    """
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    tasks = [(grid, grid_offset + cell, snr_db, trial)
             for cell, snr_db in enumerate(grid.snr_db_list)
             for trial in range(grid.trials)]
    if workers > 1:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial_packed, tasks, chunksize=chunk))
    else:
        records = [_run_trial_packed(task) for task in tasks]

    rows = []
    for cell, snr_db in enumerate(grid.snr_db_list):
        block = records[cell * grid.trials:(cell + 1) * grid.trials]
        unused = np.array([r.unused_modes for r in block], dtype=float)
        r1 = np.array([r.rate_primary for r in block])
        r2u = np.array([r.rate_secondary_uniform for r in block])
        r2o = np.array([r.rate_secondary_optimal for r in block])
        rows.append(ResultRow(grid.nt, grid.nr, snr_db, len(block),
                              sum(r.discards for r in block),
                              *_mean_stderr(unused), *_mean_stderr(r1),
                              *_mean_stderr(r2u), *_mean_stderr(r2o)))
    return rows


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_csv(rows, destination) -> None:
    """Write result rows as CSV with a fixed header and 9-significant-digit reals."""
    if not rows:
        raise InvalidInputError("no result rows to write")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.nt), str(r.nr), _fmt(r.snr_db),
            str(r.trials_used), str(r.discarded_trials),
            _fmt(r.avg_unused_modes), _fmt(r.stderr_unused_modes),
            _fmt(r.avg_rate_primary), _fmt(r.stderr_rate_primary),
            _fmt(r.avg_rate_secondary_uniform), _fmt(r.stderr_rate_secondary_uniform),
            _fmt(r.avg_rate_secondary_optimal), _fmt(r.stderr_rate_secondary_optimal),
        ]))
    text = "\n".join(lines) + "\n"
    try:
        with open(destination, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write result CSV to {destination}: {exc}") from exc
