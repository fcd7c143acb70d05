"""Monte Carlo sweeps over antenna counts and SNR, aggregated to CSV rows."""

from __future__ import annotations

import collections
import contextlib
import math
import operator
import os
import stat
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .channel import as_indices, draw_trials
from .errors import InvalidInputError, RedrawError
from .primary import design_primary
from .secondary import design_secondary

# Replacement draws for discarded trials take indices at or above this base so
# they can never collide with regular trial indices.
REPLACEMENT_BASE = 2**31
_MAX_ATTEMPTS = 100

# A geometry's trials run cell after cell in stacked passes; a pass holds at
# most this many bytes in any one (trials, nr, nr) complex matrix stack, and
# may span several cells. That gives 1,820 trials per pass at n=3 and 40 at
# n=20, whatever the cell size. Each pass has a fixed cost besides its
# trials, about 2.2 ms at n=3 and 1.5 ms at n=20 on a 2-vCPU VM with
# OpenBLAS, which larger passes spread over more trials. At its peak a pass
# holds 10.1 to 13.7 such stacks per trial (traced at n=3 and n=20 from -20
# to 30 dB), so the pass size also sets its working set: at most about 3.6 MB.
PASS_BYTES = 256 * 1024


@dataclass(frozen=True)
class ExperimentGrid:
    """One antenna geometry swept over an SNR grid.

    SNR is the transmit budget over the unit noise variance, in dB.
    """

    nt: int
    nr: int
    snr_db_list: tuple
    trials: int
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
        if not 0 <= self.master_seed < 2**64:
            raise InvalidInputError(f"master seed must be in [0, 2^64), got {self.master_seed}")
        for snr_db in self.snr_db_list:
            snr_to_power(snr_db)


@dataclass(frozen=True)
class TrialRecords:
    """Outcomes of a stack of Monte Carlo trials, one entry per trial in each field."""

    unused_modes: np.ndarray
    rate_primary: np.ndarray
    rate_secondary_uniform: np.ndarray
    rate_secondary_optimal: np.ndarray
    discards: np.ndarray


@dataclass(frozen=True)
class ResultRow:
    """Per-cell averages and standard errors, one CSV data row, columns in field order."""

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


# The fixed 13-column contract of the CSV.
CSV_HEADER = ",".join(f.name for f in fields(ResultRow))
# A row's values in CSV column order, read without copying them.
_row_values = operator.attrgetter(*CSV_HEADER.split(","))
# The TrialRecords fields that a cell's row averages, in CSV column order.
_AVERAGED = ("unused_modes", "rate_primary", "rate_secondary_uniform",
             "rate_secondary_optimal")


def snr_to_power(snr_db: float) -> float:
    """Transmit budget ``10^(snr_db / 10)`` of an SNR point, in units of the noise variance.

    Raises InvalidInputError when the budget is not a finite float at or
    above the smallest normal one (about -3076.5 dB); subnormal budgets lose
    the relative precision every tolerance downstream is scaled by.
    """
    try:
        p_max = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        p_max = math.inf
    if not (math.isfinite(p_max) and p_max >= np.finfo(float).tiny):
        raise InvalidInputError(f"SNR {snr_db:g} dB gives transmit budget {p_max:g}, "
                                "not a normal positive finite power")
    return p_max


def run_trials(grid: ExperimentGrid, grid_index, snr_db, trial_indices) -> TrialRecords:
    """Seeded trials as one stacked pass: draw channels, design both links, record S and rates.

    ``grid_index`` and ``snr_db`` are one value for the whole stack or one
    per trial, so a pass may span several cells of a grid. Trials whose
    channels fail a guard are discarded, counted, and replaced by a
    redraw at ``trial_index + attempt * REPLACEMENT_BASE`` of the same cell,
    so replacements are deterministic and never collide with regular
    indices. Only the rejected trials are redrawn; every trial's record
    depends on its own stream and SNR alone, not on the other trials of the
    stack. Each trial is designed by ``design_primary``, whose design
    carries the primary rate, and ``design_secondary``; a trial without a
    free mode has nothing to transmit, and ``design_secondary`` gives it
    secondary rates 0. Trial indices are those ``draw_trials`` takes,
    integers in [0, 2^64); InvalidInputError is raised on any other, and
    on a trial to redraw whose replacement index would pass 2^64.
    """
    trials = as_indices(trial_indices)
    grid_index = np.broadcast_to(grid_index, trials.shape)
    levels, level_of = np.unique(np.broadcast_to(snr_db, trials.shape), return_inverse=True)
    p_max = np.array([snr_to_power(level) for level in levels.tolist()])[level_of]
    # uint64 like the trial indices, so a replacement index is an exact uint64 sum.
    discards = np.zeros(trials.size, dtype=np.uint64)
    chans = draw_trials(grid.nr, grid.nt, grid.master_seed, grid_index, trials)
    while True:
        h11, h12, h21, h22 = np.moveaxis(chans, 1, 0)
        try:
            primary = design_primary(h11, p_max)
            uniform, optimal = design_secondary(primary, h12, h21, h22, p_max)
        except RedrawError as exc:
            redo = np.flatnonzero(exc.rejected)
            discards[redo] += 1
            if discards[redo].max() == _MAX_ATTEMPTS:
                worst = redo[np.argmax(discards[redo])]
                raise RedrawError(exc.reason, f"trial {trials[worst]} of cell {grid_index[worst]} "
                                  f"rejected {_MAX_ATTEMPTS} times in a row",
                                  exc.rejected) from None
            replacement = trials[redo] + discards[redo] * REPLACEMENT_BASE
            past = replacement < trials[redo]  # wrapped around 2^64
            if past.any():
                raise InvalidInputError(f"replacement index of trial {trials[redo][past][0]} "
                                        "would pass 2^64")
            chans[redo] = draw_trials(grid.nr, grid.nt, grid.master_seed, grid_index[redo],
                                      replacement)
            continue
        return TrialRecords(unused_modes=primary.unused_count,
                            rate_primary=primary.rate,
                            rate_secondary_uniform=uniform.rate,
                            rate_secondary_optimal=optimal.rate,
                            discards=discards)


def _mean_stderr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of each row of a C-contiguous 2-D array."""
    means = values.mean(axis=-1)
    # single-trial cells report stderr 0 by convention
    if values.shape[-1] < 2:
        return means, np.zeros_like(means)
    # std squares deviations, which underflow for values far below 1 (rates
    # below about -1600 dB). Scaling each row by a power of two first is exact.
    _, exponent = np.frexp(np.abs(values).max(axis=-1, keepdims=True))
    std = np.ldexp(np.ldexp(values, -exponent).std(axis=-1, ddof=1, keepdims=True), exponent)
    return means, std[:, 0] / math.sqrt(values.shape[-1])


def _pass_size(grid: ExperimentGrid) -> int:
    return max(1, PASS_BYTES // (16 * grid.nr * grid.nr))


def _passes(grids, grid_offset: int):
    """Each geometry's trials, cell after cell, cut into passes of ``_pass_size``.

    A task is ``(grid, first, start, stop)``: positions ``start..stop`` of
    the grid's trials in cell-major order, where position ``c * trials + t``
    is trial t of cell c, whose grid index is ``first + c``.
    """
    first = grid_offset
    for grid in grids:
        size, total = _pass_size(grid), grid.trials * len(grid.snr_db_list)
        for start in range(0, total, size):
            yield grid, first, start, min(start + size, total)
        first += len(grid.snr_db_list)


def _run_pass(task) -> TrialRecords:
    grid, first, start, stop = task
    cell, trial = np.divmod(np.arange(start, stop, dtype=np.uint64), np.uint64(grid.trials))
    return run_trials(grid, np.uint64(first) + cell, np.asarray(grid.snr_db_list)[cell], trial)


def _in_order(pool: ProcessPoolExecutor, tasks, window: int):
    """Results of ``tasks`` run by ``pool``, in task order, with at most ``window`` in flight."""
    pending = collections.deque()
    for task in tasks:
        pending.append(pool.submit(_run_pass, task))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _cell_rows(grid: ExperimentGrid, cells) -> list[ResultRow]:
    """Rows of cells given as ``(snr_db, pieces)``, aggregated in one call.

    A cell's ``(records, lo, hi)`` pieces are slices that hold its trials in order.
    """
    values = np.empty((len(cells), len(_AVERAGED), grid.trials))
    rows = []
    for out, (snr_db, pieces) in zip(values, cells):
        discards, at = 0, 0
        for records, lo, hi in pieces:
            for row, name in enumerate(_AVERAGED):
                out[row, at:at + hi - lo] = getattr(records, name)[lo:hi]
            discards += int(records.discards[lo:hi].sum())
            at += hi - lo
        rows.append((grid.nt, grid.nr, snr_db, grid.trials, discards))
    # avg and stderr of each averaged field, alternating, in CSV column order
    means, stderrs = _mean_stderr(values.reshape(-1, grid.trials))
    stats = np.stack((means, stderrs), axis=-1).reshape(len(cells), -1).tolist()
    return [ResultRow(*head, *tail) for head, tail in zip(rows, stats)]


def run_grid(grids, workers: int = 1, grid_offset: int = 0) -> list[ResultRow]:
    """All cells of a sequence of grids, one ResultRow per SNR point, in order.

    Cells are numbered consecutively across the grids, starting at
    ``grid_offset``, and a cell's number is its grid_index. A geometry's
    trials run cell after cell in passes (see ``PASS_BYTES``), and a pass
    may span several cells; with ``workers > 1`` one process pool, of at
    most one process per pass, runs the passes of all geometries. The cells
    a pass completes are aggregated together as soon as it arrives, so
    besides the passes in flight only the records of the one unfinished cell
    are held. Every trial's stream depends only on (master_seed, grid_index,
    trial_index) and each cell aggregates its trials in index order, so the
    output is identical for any worker count.
    """
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    grids = list(grids)
    cells = sum(len(grid.snr_db_list) for grid in grids)
    if not 0 <= grid_offset <= 2**64 - cells:
        raise InvalidInputError(f"grid indices from {grid_offset} for {cells} cells "
                                "must lie in [0, 2^64)")
    # A pool starts all its processes at once; more than one per pass would
    # idle. A geometry has ceil(trials * cells / pass size) passes.
    workers = min(workers, sum(-(-grid.trials * len(grid.snr_db_list) // _pass_size(grid))
                               for grid in grids))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = _in_order(pool, _passes(grids, grid_offset), window=4 * workers)
        else:
            results = map(_run_pass, _passes(grids, grid_offset))
        rows, pieces = [], []
        for (grid, _, start, stop), records in zip(_passes(grids, grid_offset), results):
            # Cut the pass at cell boundaries; a cell is complete at its last trial.
            done, at = [], start
            while at < stop:
                cell = at // grid.trials
                end = min(stop, (cell + 1) * grid.trials)
                pieces.append((records, at - start, end - start))
                if end == (cell + 1) * grid.trials:
                    done.append((grid.snr_db_list[cell], pieces))
                    pieces = []
                at = end
            if done:
                rows.extend(_cell_rows(grid, done))
        return rows


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_csv(rows, destination) -> None:
    """Write result rows as CSV with a fixed header and 9-significant-digit reals.

    Where ``destination`` is absent or a regular file, the CSV is written to
    a temporary file beside it (through any symlink) and renamed over it
    with the old file's permission bits, so it appears whole or not at all.
    Anything else (a device, a pipe, a hard-linked or foreign-owned file, a
    directory that takes no new file) is written in place.
    """
    if not rows:
        raise InvalidInputError("no result rows to write")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(str(value) if isinstance(value, int) else _fmt(value)
                              for value in _row_values(row)))
    text = "\n".join(lines) + "\n"
    try:
        if not _write_replacing(destination, text):
            with open(destination, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write result CSV to {destination}: {exc}") from exc


def check_destination(destination) -> None:
    """Fail early with ``write_csv``'s OSError if ``destination`` is or lacks a directory."""
    target = os.path.realpath(destination)
    if os.path.isdir(target):
        problem = "it is a directory"
    elif not os.path.isdir(os.path.dirname(target)):
        problem = "its directory does not exist"
    else:
        return
    raise OSError(f"cannot write result CSV to {destination}: {problem}")


def _write_replacing(destination, text: str) -> bool:
    """Write ``text`` by renaming a temporary file over ``destination``.

    Returns False, having written nothing, where a rename cannot stand in
    for an in-place write.
    """
    try:
        old = os.stat(destination)
    except FileNotFoundError:
        old = None
    if old is not None and not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1
                                and old.st_uid == os.geteuid()):
        return False
    target = os.path.realpath(destination)
    partial = f"{target}.{os.getpid()}.tmp"
    try:
        fd = os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return False
    try:
        with open(fd, "w", encoding="ascii", newline="") as fh:
            if old is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            fh.write(text)
        os.replace(partial, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)
        raise
    return True
