"""Monte Carlo sweeps over antenna counts and SNR, aggregated to CSV rows."""

import collections
import contextlib
import math
import numbers
import operator
import os
import stat
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import _as_indices, draw_trials
from .errors import InvalidInputError, RedrawError
from .secondary import design_secondary
from .waterfill import positive_budget

# Replacement draws for discarded trials take indices at or above this base, and
# a cell has at most this many trials, so they never collide with regular
# trial indices.
REPLACEMENT_BASE = 2**31
_MAX_ATTEMPTS = 100

# A geometry's trials run cell after cell in stacked passes; a pass holds at
# most this many bytes in any one (trials, nr, nr) complex matrix stack, and
# may span several cells. That gives 1,820 trials per pass at n=3 and 40 at
# n=20, whatever the cell size. Each pass has a fixed cost besides its
# trials, about 2.2 ms at n=3 and 1.5 ms at n=20 on a 2-vCPU VM with
# OpenBLAS, which larger passes spread over more trials. At its peak a pass
# holds 10.1 to 13.8 such stacks per trial (traced at n=3 and n=20 from -20
# to 30 dB), so the pass size also sets its working set: at most about 3.5 MB.
PASS_BYTES = 256 * 1024


@dataclass(frozen=True)
class ExperimentGrid:
    """One antenna geometry swept over an SNR grid.

    SNR is the transmit budget over the unit noise variance, in dB. Checking
    the SNRs derives ``budgets``, the budget of each: no ``__init__``
    argument, out of ``repr`` and ``==``, and ``dataclasses.replace`` redoes it.
    """

    nt: int
    nr: int
    snr_db_list: tuple
    trials: int
    master_seed: int = 0
    budgets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A scalar is no sequence, so it is refused as empty below.
        snrs = tuple(self.snr_db_list) if np.iterable(self.snr_db_list) else ()
        if not all(isinstance(s, numbers.Real) and type(s) is not bool for s in snrs):
            raise InvalidInputError(f"snr_db_list must be real numbers, got {self.snr_db_list!r}")
        object.__setattr__(self, "snr_db_list", tuple(map(float, snrs)))
        # draw_trials' integer rule, so both refuse a field alike.
        for name in ("nt", "nr", "trials", "master_seed"):
            _as_indices(getattr(self, name), name, one=True)
        if self.nt < 1:
            raise InvalidInputError("nt must be >= 1")
        if self.nr < self.nt:
            raise InvalidInputError(
                f"unsupported geometry: nr={self.nr} < nt={self.nt} "
                "(need at least as many receive as transmit antennas)")
        if not 1 <= self.trials <= REPLACEMENT_BASE:
            raise InvalidInputError(f"trials must be in [1, 2^31], got {self.trials}")
        if len(self.snr_db_list) == 0:
            raise InvalidInputError("snr_db_list must be a nonempty sequence")
        if any(b <= a for a, b in zip(self.snr_db_list, self.snr_db_list[1:])):
            raise InvalidInputError("snr_db_list must be strictly increasing")
        object.__setattr__(self, "budgets", np.array(list(map(snr_to_power, self.snr_db_list))))


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


def snr_to_power(snr_db: float) -> float:
    """Transmit budget ``10^(snr_db / 10)`` of an SNR point, in units of the noise variance.

    Raises InvalidInputError, naming the SNR, where ``positive_budget``
    refuses the budget: above about 3082 dB or below about -3076.5 dB.
    """
    try:
        p_max = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        p_max = math.inf
    return float(positive_budget(p_max, (), f"SNR {snr_db:g} dB gives transmit budget {p_max:g}, "
                                            "which"))


def _mean_stderr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error along the last axis, which must be contiguous."""
    means = values.mean(axis=-1)
    # single-trial cells report stderr 0 by convention
    if values.shape[-1] < 2:
        return means, np.zeros_like(means)
    # std squares deviations, which underflow for values far below 1 (rates
    # below about -1600 dB). Scaling each row by a power of two first is exact.
    _, exponent = np.frexp(np.abs(values).max(axis=-1, keepdims=True))
    std = np.ldexp(np.ldexp(values, -exponent).std(axis=-1, ddof=1, keepdims=True), exponent)
    return means, std[..., 0] / math.sqrt(values.shape[-1])


def _pass_size(grid: ExperimentGrid) -> int:
    return max(1, PASS_BYTES // (16 * grid.nr * grid.nr))


def _passes(grids):
    """Each geometry's trials, cell after cell, cut into passes of ``_pass_size``.

    A task is ``(grid, first, start, stop)``: positions ``start..stop`` of
    the grid's trials in cell-major order, where position ``c * trials + t``
    is trial t of cell c, whose grid index is ``first + c``.
    """
    first = 0
    for grid in grids:
        size, total = _pass_size(grid), grid.trials * len(grid.snr_db_list)
        for start in range(0, total, size):
            yield grid, first, start, min(start + size, total)
        first += len(grid.snr_db_list)


def _run_pass(grid: ExperimentGrid, first: int, start: int, stop: int) -> np.ndarray:
    """Records of positions ``start..stop`` of a grid's trials (see ``_passes``) as one array.

    The float64 ``(5, stop - start)`` array has a row per field: the four a
    cell's row averages, in CSV column order (unused modes, primary rate,
    uniform and optimal secondary rates), then the discard counts, exact in
    float64 below 2^53. One ``design_secondary`` call designs both links of
    every trial from its four channels, as ``draw_trials`` stacks them; a
    trial without a free mode has nothing to transmit, and gets secondary
    rates 0. Trials whose channels fail a guard are discarded, counted, and
    replaced by a redraw at ``trial + attempt * REPLACEMENT_BASE`` of the
    same cell, so replacements are deterministic and never collide with
    regular trials. Only the rejected trials are redrawn; every trial's
    record depends on its own stream and its cell's ``grid.budgets`` entry
    alone, not on the other trials of the pass.
    """
    cell, trial = np.divmod(np.arange(start, stop, dtype=np.uint64), np.uint64(grid.trials))
    p_max = grid.budgets[cell]
    # In place, so that the pass holds one index array per trial fewer.
    grid_index = np.add(cell, first, out=cell)
    # uint64 like the trial indices, so a replacement index stays an integer.
    discards = np.zeros(trial.size, dtype=np.uint64)
    chans = draw_trials(grid.nr, grid.nt, grid.master_seed, grid_index, trial)
    while True:
        try:
            primary, uniform, optimal = design_secondary(chans, p_max)
        except RedrawError as exc:
            redo = np.flatnonzero(exc.rejected)
            discards[redo] += 1
            if discards[redo].max() == _MAX_ATTEMPTS:
                worst = redo[np.argmax(discards[redo])]
                raise RedrawError(exc.reason, f"trial {trial[worst]} of cell {grid_index[worst]} "
                                  f"rejected {_MAX_ATTEMPTS} times in a row",
                                  exc.rejected) from None
            chans[redo] = draw_trials(grid.nr, grid.nt, grid.master_seed, grid_index[redo],
                                      trial[redo] + discards[redo] * REPLACEMENT_BASE)
            continue
        return np.stack((primary.unused_count, primary.rate, uniform.rate, optimal.rate,
                         discards), dtype=float)


def _in_order(pool: ProcessPoolExecutor, tasks, window: int):
    """Results of ``tasks`` run by ``pool``, in task order, with at most ``window`` in flight."""
    pending = collections.deque()
    for task in tasks:
        pending.append(pool.submit(_run_pass, *task))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _cell_rows(grid: ExperimentGrid, first: int, values: np.ndarray) -> list[ResultRow]:
    """Rows of the grid's cells from ``first`` on, from their ``_run_pass`` records in one call.

    ``values`` holds whole cells, their trials in cell-major order.
    """
    cells = values.shape[1] // grid.trials
    values = values.reshape(len(values), cells, grid.trials)
    means, stderrs = _mean_stderr(values[:-1])
    # avg and stderr of each averaged field, alternating, in CSV column order
    stats = np.stack((means, stderrs), axis=-1).swapaxes(0, 1).reshape(cells, -1).tolist()
    discards = values[-1].sum(axis=-1).tolist()
    return [ResultRow(grid.nt, grid.nr, grid.snr_db_list[first + cell], grid.trials,
                      int(discards[cell]), *stats[cell]) for cell in range(cells)]


def run_grid(grids, workers: int = 1) -> list[ResultRow]:
    """All cells of a sequence of grids, one ResultRow per SNR point, in order.

    Cells are numbered consecutively across the grids, from 0, and a cell's
    number is its grid_index. A geometry's trials run cell after cell in
    passes (see ``PASS_BYTES``), and a pass may span several cells; with
    ``workers > 1`` one process pool, of at most one process per pass, runs
    the passes of all geometries. The cells a pass completes are aggregated
    together as soon as it arrives, so besides the passes in flight only the
    records of the one unfinished cell are held. Every trial's stream
    depends only on (master_seed, grid_index, trial_index) and each cell
    aggregates its trials in index order, so the output is identical for any
    worker count.
    """
    if _as_indices(workers, "workers", one=True) < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    grids = list(grids)
    # A pool starts all its processes at once; more than one per pass would
    # idle. A geometry has ceil(trials * cells / pass size) passes.
    workers = min(workers, sum(-(-grid.trials * len(grid.snr_db_list) // _pass_size(grid))
                               for grid in grids))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = _in_order(pool, _passes(grids), window=4 * workers)
        else:
            results = (_run_pass(*task) for task in _passes(grids))
        rows, held = [], []
        for (grid, _, start, stop), values in zip(_passes(grids), results):
            # A cell is complete at its last trial; held runs from a cell's first to stop.
            held.append(values)
            end = stop - stop % grid.trials
            if end > start:
                values = np.concatenate(held, axis=1)
                begin = stop - values.shape[1]
                # A copy of the tail, so that the completed block goes once aggregated.
                held = [values[:, end - begin:].copy()]
                rows.extend(_cell_rows(grid, begin // grid.trials, values[:, :end - begin]))
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
