"""Tests for the Monte Carlo sweep machinery, CSV output, and CLI."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oia
import oia.cli as cli
import oia.experiments as experiments
import oia.secondary as secondary
from oia.channel import draw_trials
from oia.cli import cli_main
from oia.errors import InvalidInputError, RedrawError
from oia.experiments import (
    CSV_HEADER,
    REPLACEMENT_BASE,
    ExperimentGrid,
    run_grid,
    snr_to_power,
    write_csv,
)
from oia.secondary import design_secondary

from oracles import column_mean_stderr, rows_numbered_from

WALKTHROUGH_SNR_DB = 10.0 * math.log10(0.5)  # p_max = 0.5
# Bound on a pass's traced peak, in (trials, nr, nr) complex stacks per trial.
PASS_STACKS = 14


def walkthrough_channels():
    """The analytic walkthrough's channels h11, h12, h21, h22 as a stack of one trial."""
    eye = np.eye(2, dtype=complex)
    return np.stack([np.diag([2.0, 1.0]).astype(complex), eye, eye, eye])[None]


def dying_pass(*task):
    """A pass that ends its worker process at once, as a crash in native code would."""
    os._exit(1)


def small_grid(**overrides):
    params = dict(nt=2, nr=2, snr_db_list=(0.0, 6.0), trials=25, master_seed=11)
    params.update(overrides)
    return ExperimentGrid(**params)


class TestGridValidation:
    def test_rejects_more_transmit_than_receive(self):
        with pytest.raises(InvalidInputError, match="geometry"):
            ExperimentGrid(nt=3, nr=2, snr_db_list=(0.0,), trials=1)

    def test_rejects_unsorted_snr(self):
        with pytest.raises(InvalidInputError):
            ExperimentGrid(nt=2, nr=2, snr_db_list=(5.0, 0.0), trials=1)

    def test_rejects_empty_snr(self):
        with pytest.raises(InvalidInputError):
            ExperimentGrid(nt=2, nr=2, snr_db_list=(), trials=1)

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidInputError):
            ExperimentGrid(nt=2, nr=2, snr_db_list=(0.0,), trials=0)

    @pytest.mark.parametrize("field,value", [("trials", 2.5), ("trials", True), ("nt", 2.0),
                                             ("nr", np.float64(3.0)), ("master_seed", 1.5),
                                             ("master_seed", "7")])
    def test_rejects_non_integer_fields_by_name(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer, got "):
            small_grid(**{field: value})

    @pytest.mark.parametrize("snrs", [("a",), 5.0, None, (1j,), [True], "5"],
                             ids=["string-entry", "scalar", "none", "complex", "bool", "string"])
    def test_rejects_non_real_snr_by_name(self, snrs):
        with pytest.raises(InvalidInputError, match="^snr_db_list must be "):
            small_grid(snr_db_list=snrs)

    def test_trials_capped_at_replacement_base(self):
        """Past 2^31 trials, regular trial 2^31 + t would draw trial t's first replacement."""
        assert small_grid(trials=REPLACEMENT_BASE).trials == REPLACEMENT_BASE
        with pytest.raises(InvalidInputError, match=r"^trials must be in \[1, 2\^31\], got "):
            small_grid(trials=REPLACEMENT_BASE + 1)


class TestRunTrial:
    def test_injected_walkthrough(self, monkeypatch):
        monkeypatch.setattr(experiments, "draw_trials", lambda *_: walkthrough_channels())
        grid = small_grid(snr_db_list=(WALKTHROUGH_SNR_DB,), trials=1)
        unused, primary, uniform, optimal, discards = experiments._run_pass(grid, 0, 0, 1)[:, 0]
        assert unused == 1
        assert abs(uniform - math.log2(1.5)) < 1e-9
        assert abs(optimal - math.log2(1.5)) < 1e-9
        assert abs(primary - math.log2(3.0)) < 1e-9
        assert discards == 0

    def test_deterministic_record(self):
        grid = small_grid()
        # trials 3..17 of cell 1
        a = experiments._run_pass(grid, 0, 28, 43)
        b = experiments._run_pass(grid, 0, 28, 43)
        assert np.array_equal(a, b)

    def test_effectively_zero_power(self):
        grid = small_grid(nt=3, nr=3, snr_db_list=(-60.0,), trials=5)
        unused, _, _, optimal, _ = experiments._run_pass(grid, 0, 0, 5)
        assert np.all(unused == 2)
        assert np.all(optimal < 0.05)

    @staticmethod
    def designed_alone(grid, grid_index, trial_index, snr_db):
        """The averaged fields of one trial drawn at ``trial_index`` and designed on its own."""
        chans = draw_trials(grid.nr, grid.nt, grid.master_seed, grid_index, [trial_index])
        primary, uniform, optimal = design_secondary(chans, np.full(1, snr_to_power(snr_db)))
        return np.stack((primary.unused_count, primary.rate, uniform.rate, optimal.rate),
                        dtype=float)[:, 0]

    def test_discarded_trial_redrawn_from_reserved_range(self, monkeypatch):
        grid = small_grid(snr_db_list=(0.0,), trials=6)
        real_draw = experiments.draw_trials
        requested = []

        def rigged_draw(nr, nt, master_seed, grid_index, trial_indices):
            requested.append([int(t) for t in trial_indices])
            chans = real_draw(nr, nt, master_seed, grid_index, trial_indices)
            if len(requested) > 1:
                return chans
            # the first draw gives trial 4 of the stack a singular cross channel h12
            chans[4, 1] = 1.0
            return chans

        monkeypatch.setattr(experiments, "draw_trials", rigged_draw)
        rigged = experiments._run_pass(grid, 0, 0, 6)
        monkeypatch.undo()
        # only the rejected trial is redrawn, from the reserved range
        assert requested == [list(range(6)), [4 + REPLACEMENT_BASE]]
        assert list(rigged[-1]) == [0, 0, 0, 0, 1, 0]
        expected = experiments._run_pass(grid, 0, 0, 6)[:-1]
        expected[:, 4] = self.designed_alone(grid, 0, 4 + REPLACEMENT_BASE, 0.0)
        assert np.array_equal(rigged[:-1], expected)

    def test_parallel_active_columns_redrawn(self, monkeypatch):
        """A trial whose two active precoder columns are parallel fails the gram floor.

        Its first draw is rigged: a direct channel that leaves two modes free
        at -20 dB, and a cross channel that steers them onto near-parallel
        columns. That trial alone is redrawn; the others keep their records.
        """
        grid = small_grid(nt=3, nr=3, snr_db_list=(-20.0,), trials=5)
        h11 = np.diag([10.0, 1.0, 1.0]).astype(complex)
        u1 = np.linalg.svd(h11)[0]
        steer = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1e-7]])
        real_draw = experiments.draw_trials
        requested = []

        def rigged_draw(nr, nt, master_seed, grid_index, trial_indices):
            requested.append([int(t) for t in trial_indices])
            chans = real_draw(nr, nt, master_seed, grid_index, trial_indices)
            if len(requested) == 1:
                chans[2, 0], chans[2, 1] = h11, u1 @ np.linalg.inv(steer)
            return chans

        monkeypatch.setattr(experiments, "draw_trials", rigged_draw)
        rigged = experiments._run_pass(grid, 0, 0, 5)
        monkeypatch.undo()
        assert requested == [list(range(5)), [2 + REPLACEMENT_BASE]]
        assert list(rigged[-1]) == [0, 0, 1, 0, 0]
        expected = experiments._run_pass(grid, 0, 0, 5)[:-1]
        expected[:, 2] = self.designed_alone(grid, 0, 2 + REPLACEMENT_BASE, -20.0)
        assert np.array_equal(rigged[:-1], expected)

    def test_trial_rejected_every_time_gives_up(self, monkeypatch):
        """The give-up names the trial and its cell, since a pass may span cells.

        Only sending trials meet the cross-channel guard, so cell 5's direct
        channel is rigged to leave its weak mode free at 6 dB. Each attempt
        redraws the rejected trials at the next multiple of REPLACEMENT_BASE.
        """
        real_draw = experiments.draw_trials
        requested = []

        def singular_cross_in_cell_5(nr, nt, master_seed, grid_index, trial_indices):
            requested.append([int(t) for t in trial_indices])
            chans = real_draw(nr, nt, master_seed, grid_index, trial_indices)
            cell_5 = np.asarray(grid_index) == 5
            chans[cell_5, 0] = np.diag([1.0, 1e-3])
            chans[cell_5, 1] = 1.0
            return chans

        monkeypatch.setattr(experiments, "draw_trials", singular_cross_in_cell_5)
        with pytest.raises(RedrawError, match="rejected 100 times in a row") as info:
            # trial 24 of cell 4 at 0 dB, trials 0 and 1 of cell 5 at 6 dB
            experiments._run_pass(small_grid(), 4, 24, 27)
        assert info.value.reason == "cross"
        assert info.value.rejected.tolist() == [False, True, True]
        assert str(info.value) == ("cross channel rejected: "
                                   "trial 0 of cell 5 rejected 100 times in a row")
        assert len(requested) == 100
        assert requested[:3] == [[24, 0, 1]] + [[n * REPLACEMENT_BASE, 1 + n * REPLACEMENT_BASE]
                                                for n in (1, 2)]

    def test_trials_without_free_mode_skip_secondary_stages(self, monkeypatch):
        """Only trials with a free mode reach the precoder and a whitening QR; others get rate 0.

        Each active-count group makes one whitening QR, the only ``mode="raw"``
        one, so together they see each sending trial once.
        """
        whitened, precoded = [], []
        real_qr, real_precoder = np.linalg.qr, secondary._precoder
        monkeypatch.setattr(np.linalg, "qr",
                            lambda x, mode="reduced": (mode == "raw" and whitened.append(len(x)))
                            or real_qr(x, mode=mode))
        monkeypatch.setattr(secondary, "_precoder",
                            lambda h12, u1, p1_bar: precoded.append(np.array(p1_bar))
                            or real_precoder(h12, u1, p1_bar))
        grid = small_grid(nt=3, nr=3, snr_db_list=(10.0,), trials=40)
        unused, _, uniform, optimal, _ = experiments._run_pass(grid, 0, 0, 40)
        sends = unused > 0
        assert 0 < np.count_nonzero(sends) < 40
        assert sum(whitened) == np.count_nonzero(sends)
        assert len(whitened) == len(np.unique(unused[sends]))
        assert [len(p1_bar) for p1_bar in precoded] == [np.count_nonzero(sends)]
        assert np.all(np.any(precoded[0] > 0.0, axis=-1))
        assert np.all(uniform[~sends] == 0.0)
        assert np.all(optimal[~sends] == 0.0)
        assert np.all(optimal[sends] > 0.0)
        whitened.clear()
        precoded.clear()
        experiments._run_pass(replace(grid, snr_db_list=(60.0,)), 0, 0, 40)
        assert whitened == [] and precoded == []

    def test_silent_trial_with_singular_cross_channel_kept(self, monkeypatch):
        """The cross-channel guard discards only trials that send.

        Trial 2 gets equal direct modes, which take the whole budget at any
        SNR, and an exactly singular cross channel: it is not redrawn.
        """
        real_draw = experiments.draw_trials

        def rigged_draw(nr, nt, master_seed, grid_index, trial_indices):
            chans = real_draw(nr, nt, master_seed, grid_index, trial_indices)
            chans[np.asarray(trial_indices) == 2, :2] = [np.eye(2), np.ones((2, 2))]
            return chans

        monkeypatch.setattr(experiments, "draw_trials", rigged_draw)
        grid = small_grid(snr_db_list=(10.0,), trials=5)
        unused, primary, uniform, optimal, discards = experiments._run_pass(grid, 0, 0, 5)
        assert discards.tolist() == [0] * 5
        assert unused[2] == 0
        assert uniform[2] == optimal[2] == 0.0
        assert abs(primary[2] - 2.0 * math.log2(6.0)) < 1e-9

    def test_pass_working_set(self):
        """A full pass peaks under PASS_STACKS (trials, nr, nr) complex stacks.

        A pass is sized in bytes of one such stack (``PASS_BYTES``), so this
        bound caps its memory. At n=20 and -20 dB every trial sends, so the
        whitening QRs and both schemes run on the whole pass; at n=3 and
        -20 dB every trial sends too, mostly in two-column groups; at n=3 and
        0 dB some trials do not, and the sending trials' row copies must not
        raise the peak past the same bound. They trace at about 10.86, 13.86
        and 13.23 stacks per trial, the pass's returned records included.
        """
        for n, snr_db, all_send in [(20, -20.0, True), (3, -20.0, True), (3, 0.0, False)]:
            grid = small_grid(nt=n, nr=n, snr_db_list=(snr_db,), trials=1)
            size = experiments._pass_size(grid)
            grid = replace(grid, trials=size)
            experiments._run_pass(grid, 0, 0, size)  # warm-up: first-call allocations
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                unused = experiments._run_pass(grid, 0, 0, size)[0]
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            sends = np.count_nonzero(unused > 0)
            assert sends == size if all_send else 0 < sends < size
            stacks = peak / (16 * grid.nr**2 * size)
            assert stacks < PASS_STACKS, (f"{size}-trial pass at n={n}, {snr_db:g} dB "
                                          f"peaks at {stacks:.2f} stacks per trial")

    @pytest.mark.parametrize("nt,nr", [(3, 3), (9, 9), (20, 20), (3, 5)])
    def test_stacked_records_equal_one_at_a_time(self, nt, nr):
        """Each trial's record is bitwise the same alone or in a stack: the CSV bytes rest on it.

        The stack spans all three cells of the grid, so it mixes SNRs too.
        """
        trials = 12 if nr < 20 else 4
        grid = small_grid(nt=nt, nr=nr, snr_db_list=(-10.0, 5.0, 20.0), trials=trials)
        stacked = experiments._run_pass(grid, 0, 0, 3 * trials)
        for position in range(3 * trials):
            alone = experiments._run_pass(grid, 0, position, position + 1)
            assert np.array_equal(stacked[:, position], alone[:, 0]), position


class TestRunGrid:
    def test_single_trial_row(self):
        grid = small_grid(snr_db_list=(3.0,), trials=1)
        row = run_grid([grid])[0]
        unused, primary = experiments._run_pass(grid, 0, 0, 1)[:2, 0]
        assert row.trials_used == 1
        assert row.avg_rate_primary == primary
        assert row.avg_unused_modes == unused
        assert row.stderr_rate_primary == 0.0
        assert row.stderr_unused_modes == 0.0

    def test_worker_count_does_not_change_results(self, monkeypatch):
        grid = small_grid(trials=40)
        serial = run_grid([grid], workers=1)
        # 12 passes of 7 trials, so the pool starts all 8 workers.
        monkeypatch.setattr(experiments, "PASS_BYTES", 16 * 2 * 2 * 7)
        assert run_grid([grid], workers=8) == serial

    def test_grid_sequence_numbers_cells_consecutively(self):
        first, second = small_grid(trials=5), small_grid(nt=3, nr=4, trials=5)
        separate = run_grid([first]) + rows_numbered_from(second, 2)
        assert run_grid([first, second]) == separate
        assert run_grid([first, second], workers=2) == separate

    def test_one_cell_split_over_workers_matches_serial(self, monkeypatch):
        """A pool task is one pass, so a single cell still spreads over the workers."""
        submitted = []

        class CountingPool(experiments.ProcessPoolExecutor):
            def submit(self, fn, /, *args):
                submitted.append(args)
                return super().submit(fn, *args)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(experiments, "PASS_BYTES", 16 * 3 * 3 * 4)
        grid = small_grid(nt=3, nr=3, snr_db_list=(10.0,), trials=30)
        with_pool = run_grid([grid], workers=2)
        assert len(submitted) == 8  # passes of 4 trials
        monkeypatch.undo()
        assert with_pool == run_grid([grid])

    def test_pool_starts_no_more_processes_than_passes(self, monkeypatch):
        """A pool starts all its processes at once, so it gets one per pass at most."""
        started = []

        class RecordingPool:
            """Runs each task at submit, in this process, and records the pool size."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, /, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        grid = small_grid(nt=3, nr=3, snr_db_list=(10.0,), trials=12)
        serial = run_grid([grid])
        assert run_grid([grid], workers=8) == serial  # one pass: no pool at all
        assert started == []
        monkeypatch.setattr(experiments, "PASS_BYTES", 16 * 3 * 3 * 4)
        assert run_grid([grid], workers=8) == serial
        assert run_grid([grid], workers=2) == serial
        assert started == [3, 2]  # passes of 4 trials

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pass_layout_does_not_change_rows(self, monkeypatch, workers):
        """Passes run a geometry's trials cell after cell; where they are cut changes no row."""
        trials = 9
        grids = [small_grid(nt=3, nr=3, snr_db_list=(-5.0, 5.0, 15.0), trials=trials),
                 small_grid(nt=2, nr=3, snr_db_list=(0.0, 10.0, 20.0), trials=trials)]
        cells = [(grid, snr_db) for grid in grids for snr_db in grid.snr_db_list]
        # Each cell alone, in one pass of its own.
        reference = [row for number, (grid, snr_db) in enumerate(cells)
                     for row in rows_numbered_from(replace(grid, snr_db_list=(snr_db,)), number)]
        default = experiments._pass_size(grids[0])
        for size in (1, 7, trials - 1, trials, trials + 1, default):
            monkeypatch.setattr(experiments, "PASS_BYTES", 16 * 3 * 3 * size)
            passes = list(experiments._passes(grids))
            assert max(stop - start for _, _, start, stop in passes) == min(size, 3 * trials)
            if trials % size:
                assert any(start // trials != (stop - 1) // trials
                           for _, _, start, stop in passes), "no pass straddles a cell"
            assert run_grid(grids, workers=workers) == reference, size

    def test_stderr_scales_with_budget_at_very_low_snr(self):
        """Far below 0 dB rates scale with the budget; their standard errors must not underflow."""
        low, high = (run_grid([small_grid(nt=3, nr=3, snr_db_list=(snr_db,), trials=50)])[0]
                     for snr_db in (-1700.0, -1500.0))
        for name in ("stderr_rate_primary", "stderr_rate_secondary_uniform",
                     "stderr_rate_secondary_optimal"):
            assert getattr(low, name) > 0.0, name
            assert math.isclose(getattr(low, name), getattr(high, name) * 1e-20,
                                rel_tol=1e-9), name

    def test_no_discards_on_gaussian_channels(self):
        rows = run_grid([small_grid(nt=3, nr=3, trials=300)])
        assert all(row.discarded_trials == 0 for row in rows)

    def test_rows_keep_scheme_ordering(self):
        rows = run_grid([small_grid(nt=3, nr=3, trials=150, snr_db_list=(-5.0, 5.0, 15.0))])
        for row in rows:
            assert row.avg_rate_secondary_optimal >= row.avg_rate_secondary_uniform - 1e-9
            assert 0.0 <= row.avg_unused_modes <= 3.0


class TestCellRow:
    """A cell's row is the per-column aggregation of its trials, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 80), st.lists(st.integers(-300, 300), min_size=3, max_size=3),
           st.integers(0, 3), st.integers(0, 80), st.booleans(), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_matches_per_column_oracle(self, trials, exponents, first, tail, zeros, cells, seed):
        """Rates from 1e-303 to 1e300, one to 80 trials, one to four cells in one block.

        One call aggregates the whole cells of a block, each with its own
        trials and rate scales, from the grid's cell ``first`` on. The block
        is cut from a wider array, as ``run_grid`` cuts it from the held
        records with an unfinished cell's trials after it.
        """
        rng = np.random.default_rng(seed)
        snrs = [7.0 + cell for cell in range(first + cells)]
        grid = small_grid(nt=3, nr=4, snr_db_list=snrs, trials=trials)
        columns, expected_rows = [], []
        for cell, snr_db in enumerate(snrs[first:]):
            unused = rng.integers(0, 4, trials)
            rates = [10.0 ** (min(300, max(-300, e + 40 * cell)) + rng.uniform(-3.0, 0.0, trials))
                     for e in exponents]
            if zeros:
                rates[0][rng.random(trials) < 0.5] = 0.0
            discards = rng.integers(0, 3, trials)
            columns.append(np.stack([unused, *rates, discards]))
            expected = [3, 4, snr_db, trials, int(discards.sum())]
            for column in (unused.astype(float), *rates):
                expected.extend(column_mean_stderr(column))
            expected_rows.append(expected)
        held = np.concatenate([*columns, rng.integers(0, 9, (5, tail))], axis=1)
        rows = experiments._cell_rows(grid, first, held[:, :cells * trials])
        assert len(rows) == cells
        for row, expected in zip(rows, expected_rows):
            got = [getattr(row, f.name) for f in fields(row)]
            assert [type(v) for v in got] == [type(v) for v in expected]
            assert np.array(got[5:]).tobytes() == np.array(expected[5:]).tobytes()
            assert got[:5] == expected[:5]


class TestWriteCsv:
    def test_header_and_shape(self, tmp_path):
        out = tmp_path / "rows.csv"
        rows = run_grid([small_grid(snr_db_list=(0.0,), trials=2)])
        write_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert out.read_text().endswith("\n")

    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "digits.csv"
        row = experiments.ResultRow(2, 2, 0.0, 1, 0, 1.0, 0.0,
                                    0.123456789012345, 0.0, 0.0, 0.0, 0.0, 0.0)
        write_csv([row], out)
        assert "0.123456789" in out.read_text()
        assert "0.1234567890" not in out.read_text()

    def test_repeat_runs_byte_identical(self, tmp_path):
        grid = small_grid(trials=15)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_grid([grid]), a)
        write_csv(run_grid([grid]), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_csv([], tmp_path / "empty.csv")

    def test_unwritable_destination(self, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            write_csv(run_grid([small_grid(snr_db_list=(0.0,), trials=1)]), target)

    def test_symlinked_destination_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target.name)
        write_csv(run_grid([small_grid(snr_db_list=(0.0,), trials=1)]), link)
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text().startswith(CSV_HEADER)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_fifo_destination_not_replaced(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        write_csv(run_grid([small_grid(snr_db_list=(0.0,), trials=1)]), fifo)
        reader.join(timeout=30)
        assert received and received[0].startswith(CSV_HEADER)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]

    def test_existing_file_keeps_permission_bits(self, tmp_path):
        out = tmp_path / "r.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        write_csv(run_grid([small_grid(snr_db_list=(0.0,), trials=1)]), out)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text().startswith(CSV_HEADER)

    def test_file_named_like_the_temporary_is_left_alone(self, tmp_path):
        out = tmp_path / "r.csv"
        squatter = tmp_path / f"r.csv.{os.getpid()}.tmp"
        squatter.write_text("not ours\n")
        write_csv(run_grid([small_grid(snr_db_list=(0.0,), trials=1)]), out)
        assert squatter.read_text() == "not ours\n"
        assert out.read_text().startswith(CSV_HEADER)

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A rename that fails removes the temporary file and leaves the old bytes."""
        out = tmp_path / "r.csv"
        out.write_bytes(b"old contents\n")

        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(experiments.os, "replace", failing_replace)
        rows = [experiments.ResultRow(2, 2, 0.0, 1, 0, *[0.0] * 8)]
        with pytest.raises(OSError) as info:
            write_csv(rows, out)
        assert str(info.value).startswith("cannot write result CSV to")
        assert out.read_bytes() == b"old contents\n"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("previous", [None, "previous contents\n"])
    def test_write_failing_midway_leaves_no_partial_file(self, tmp_path, previous):
        """A write cut short by the file-size limit keeps the old file (or none) and exits 1."""
        out = tmp_path / "r.csv"
        if previous is not None:
            out.write_text(previous)
        script = ("import resource, signal, sys\n"
                  "from oia.cli import cli_main\n"
                  "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                  "resource.setrlimit(resource.RLIMIT_FSIZE, (300, 300))\n"
                  "sys.exit(cli_main(sys.argv[1:]))\n")
        src = str(Path(oia.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-B", "-c", script, "run", "--trials", "1", "--snr-db-min", "0",
             "--snr-db-max", "20", "--out", str(out)],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src})
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("oia: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else ["r.csv"])
        if previous is not None:
            assert out.read_text() == previous


def assert_one_line_usage_error(capsys, mentions):
    err = capsys.readouterr().err
    assert err.startswith("oia: ") and err.count("\n") == 1, err
    assert mentions in err


class TestCli:
    def test_run_single_cell(self, tmp_path):
        out = tmp_path / "r.csv"
        code = cli_main(["run", "--nt", "2", "--nr", "2", "--snr-db-min", "0",
                         "--snr-db-max", "0", "--snr-db-step", "1", "--trials", "10",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_unsupported_geometry_exits_2(self, tmp_path, capsys):
        code = cli_main(["run", "--nt", "3", "--nr", "2", "--trials", "1",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "geometry" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        assert cli_main(["run", "--no-such-flag"]) == 2

    def test_missing_subcommand_exits_2(self):
        assert cli_main([]) == 2

    def test_empty_snr_range_exits_2(self, tmp_path):
        code = cli_main(["run", "--snr-db-min", "10", "--snr-db-max", "0",
                         "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unwritable_output_exits_1(self, tmp_path):
        code = cli_main(["run", "--snr-db-min", "0", "--snr-db-max", "0",
                         "--snr-db-step", "1", "--trials", "1",
                         "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("out,problem", [
        (".", "it is a directory"), ("missing/x.csv", "its directory does not exist"),
        ("link.csv", "its directory does not exist"),
    ], ids=["directory", "missing-parent", "dangling-symlink"])
    def test_unwritable_output_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch,
                                                      out, problem):
        """A destination that cannot take the CSV exits 1 before any trial runs."""
        def no_sweep(grids, workers):
            raise AssertionError("the sweep ran before the destination was checked")

        monkeypatch.setattr(cli, "run_grid", no_sweep)
        (tmp_path / "link.csv").symlink_to(tmp_path / "gone" / "x.csv")
        target = tmp_path / out
        assert cli_main(["run", "--trials", "1", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err == f"oia: cannot write result CSV to {target}: {problem}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]

    def test_fig_preset_row_count(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = cli_main(["fig-unused", "--antennas", "2", "3", "--trials", "5",
                         "--snr-db-min", "-10", "--snr-db-max", "10",
                         "--snr-db-step", "10", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + antennas x snr cells

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_exit_2(self, tmp_path, capsys, workers):
        out = tmp_path / "x.csv"
        code = cli_main(["run", "--trials", "1", "--workers", workers, "--out", str(out)])
        assert code == 2
        assert_one_line_usage_error(capsys, "workers")
        assert not out.exists()

    def test_overflowing_snr_exits_2(self, tmp_path, capsys):
        code = cli_main(["run", "--snr-db-min", "4000", "--snr-db-max", "4000",
                         "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert_one_line_usage_error(capsys, "4000 dB")

    def test_subnormal_budget_exits_2(self, tmp_path, capsys):
        """A budget below the smallest normal float would lose the precision tolerances scale by."""
        out = tmp_path / "x.csv"
        code = cli_main(["run", "--snr-db-min", "-3150", "--snr-db-max", "-3150",
                         "--trials", "1", "--out", str(out)])
        assert code == 2
        assert_one_line_usage_error(capsys, "-3150 dB gives transmit budget")
        assert not out.exists()

    @pytest.mark.parametrize("error", [
        RedrawError("gram", "trial 7 rejected 100 times in a row", np.ones(3, dtype=bool)),
        RedrawError("cross", "trial 7 rejected 100 times in a row", np.ones(3, dtype=bool)),
    ], ids=["gram-give-up", "redraw-give-up"])
    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch, error):
        def failing_run_grid(grids, workers):
            raise error

        monkeypatch.setattr(cli, "run_grid", failing_run_grid)
        out = tmp_path / "x.csv"
        assert cli_main(["run", "--trials", "1", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"oia: numerical failure: {error}\n"
        assert not out.exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stub pass reaches the workers only through fork")
    def test_dead_worker_exits_1(self, tmp_path, capfd, monkeypatch):
        """A worker that dies ends the run with one line: no traceback, no CSV, no .tmp."""
        monkeypatch.setattr(experiments, "_run_pass", dying_pass)
        out = tmp_path / "x.csv"
        # 2,000 trials at n=3 take two passes, so the pool gets both workers.
        code = cli_main(["run", "--snr-db-min", "0", "--snr-db-max", "0", "--trials", "2000",
                         "--workers", "2", "--out", str(out)])
        captured = capfd.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("oia: a worker process died: ")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        out = tmp_path / "x.csv"
        code = cli_main(["run", "--trials", "1", "--seed", seed, "--out", str(out)])
        assert code == 2
        assert_one_line_usage_error(capsys, "seed")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--snr-db-max", "1e9", "--snr-db-step", "1e-9"],
        ["run", "--snr-db-min=-1e308", "--snr-db-max", "1e308", "--snr-db-step", "1e-300"],
        ["run", "--trials", "1000000000000"],
        ["run", "--nt", "100000", "--nr", "100000", "--trials", "1",
         "--snr-db-min", "0", "--snr-db-max", "0"],
        ["fig-unused", "--antennas", "2", "100000", "--trials", "1"],
    ], ids=["snr-points", "snr-span-overflow", "trials", "antennas-run", "antennas-fig-unused"])
    def test_oversized_sweep_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        """The sweep size is checked from its arithmetic, before anything is built."""
        def no_sweep(grids, workers):
            raise AssertionError("an oversized sweep reached run_grid")

        monkeypatch.setattr(cli, "run_grid", no_sweep)
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            code = cli_main([*argv, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20, peak
        assert_one_line_usage_error(capsys, "exceeds the limit")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["100000", str(cli.MAX_WORKERS + 1)],
                             ids=["flag", "one-past-the-cap"])
    def test_too_many_workers_exit_2(self, tmp_path, capsys, monkeypatch, workers):
        """The worker count is capped before anything is built; no process starts."""
        def no_sweep(grids, workers):
            raise AssertionError("an oversized pool reached run_grid")

        monkeypatch.setattr(cli, "run_grid", no_sweep)
        out = tmp_path / "x.csv"
        assert cli_main(["run", "--trials", "1", "--workers", workers, "--out", str(out)]) == 2
        assert_one_line_usage_error(capsys, f"exceeds the limit of {cli.MAX_WORKERS}")
        assert not out.exists()

    def test_worker_cap_accepted(self, tmp_path, monkeypatch):
        asked = []
        row = experiments.ResultRow(3, 3, 0.0, 1, 0, *[0.0] * 8)
        monkeypatch.setattr(cli, "run_grid", lambda grids, workers: asked.append(workers) or [row])
        out = tmp_path / "x.csv"
        argv = ["run", "--trials", "1", "--workers", str(cli.MAX_WORKERS), "--out", str(out)]
        assert cli_main(argv) == 0
        assert asked == [cli.MAX_WORKERS]

    def test_workers_default_to_one(self, tmp_path, monkeypatch):
        """Without --workers the sweep is serial, whatever the environment holds."""
        asked = []
        row = experiments.ResultRow(3, 3, 0.0, 1, 0, *[0.0] * 8)
        monkeypatch.setattr(cli, "run_grid", lambda grids, workers: asked.append(workers) or [row])
        monkeypatch.setenv("OIA_WORKERS", "4")
        assert cli_main(["run", "--trials", "1", "--out", str(tmp_path / "x.csv")]) == 0
        assert asked == [1]

    def test_many_trials_over_many_cells_accepted(self, tmp_path, monkeypatch):
        """Only cells and trials per cell are capped, not their product."""
        swept = []
        row = experiments.ResultRow(2, 2, 0.0, 1, 0, *[0.0] * 8)
        monkeypatch.setattr(cli, "run_grid", lambda grids, workers: swept.extend(grids) or [row])
        out = tmp_path / "x.csv"
        assert cli_main(["fig-unused", "--trials", "50000", "--out", str(out)]) == 0
        assert len(swept) == 9 and all(grid.trials == 50000 for grid in swept)

    def test_snr_to_power(self):
        assert abs(snr_to_power(0.0) - 1.0) < 1e-15
        assert abs(snr_to_power(10.0) - 10.0) < 1e-12
        assert abs(snr_to_power(-3.0103) - 0.5) < 5e-5

    def test_noise_variance_is_not_an_option(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli_main(["run", "--sigma2", "1", "--trials", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--sigma2" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", ["50", "300"])
    def test_tall_geometry_at_high_snr(self, tmp_path, snr_db):
        """q's noise-only eigenvalues would round below 1 here; its QR factor never forms q."""
        out = tmp_path / "tall.csv"
        assert cli_main(["run", "--nt", "3", "--nr", "5", "--snr-db-min", snr_db,
                         "--snr-db-max", snr_db, "--trials", "60", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith(f"3,5,{snr_db},60,")

    @pytest.mark.parametrize("nt,nr,snr_db", [
        (3, 3, "-3000"), (3, 5, "-3000"), (3, 3, "-2000"), (3, 5, "-2000"),
        (3, 3, "-200"), (3, 5, "-200"), (3, 3, "3000"),
    ])
    def test_extreme_snr_writes_csv(self, tmp_path, capsys, nt, nr, snr_db):
        """Far outside the default grid a run writes its CSV, silently, at the paper's limits."""
        out = tmp_path / "x.csv"
        assert cli_main(["run", "--nt", str(nt), "--nr", str(nr), "--snr-db-min", snr_db,
                         "--snr-db-max", snr_db, "--trials", "20", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        row = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        # the primary fills all nt modes at high SNR and only its strongest at low SNR
        assert float(row["avg_unused_modes"]) == (nt - 1 if float(snr_db) < 0 else 0)


def _either(valid, invalid):
    """A valid choice three times in four, so that whole valid vectors stay common."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(invalid if k == 3 else valid))


def _flag(name, valid, invalid):
    return _either([[name, value] for value in valid], [[name, value] for value in invalid])


# Small argument vectors, valid and not, over every subcommand. Trials, SNR
# points and antennas stay few, so a vector that passes validation runs a
# sweep of at most a few hundred small trials.
SUBCOMMAND = _either(
    [["run"], ["run", "--nt", "2", "--nr", "3"], ["run", "--nt", "1", "--nr", "1"],
     ["fig-unused", "--antennas", "2", "3"], ["fig-rate", "--antennas", "1"],
     ["fig-compare", "--antennas", "4"]],
    [["run", "--nt", "3", "--nr", "2"], ["run", "--nt", "0"], ["run", "--nr", "1001"],
     ["run", "--nt", "x"], ["fig-compare", "--antennas", "0"], ["fig-unused", "--antennas"],
     ["nope"], []])
SNR_RANGE = _either(
    [("0", "0", "1"), ("-10", "10", "10"), ("-200", "300", "250"), ("5e-324", "5e-324", "1"),
     ("-3000", "-3000", "1"), ("3000", "3000", "1")],
    [("nan", "0", "1"), ("0", "inf", "1"), ("-inf", "0", "1"), ("1e308", "-1e308", "1"),
     ("-1e308", "1e308", "1e-300"), ("0", "40", "1e-13"), ("-3100", "-3100", "1"),
     ("0", "0", "0"), ("0", "0", "-1"), ("10", "0", "1")])
CLI_FLAGS = st.lists(st.one_of(
    _flag("--trials", ["1", "2"], ["0", "-1", "x"]),
    _flag("--seed", ["0", "7", str(2**64 - 1)], ["-1", str(2**64), "seed"]),
    _flag("--workers", ["1"], ["0", "-2", str(cli.MAX_WORKERS + 1), "one"]),
    _either([[]], [["--bogus"], ["stray"], ["--trials"]]),
), max_size=3)
OUT = st.sampled_from(["new", "existing", "directory", "missing-parent", "dangling-symlink"])
BAD_OUT = ("directory", "missing-parent", "dangling-symlink")


def _cli_argv(command, snr, flags):
    low, high, step = snr
    argv = [*command, "--trials", "2", f"--snr-db-min={low}", f"--snr-db-max={high}",
            f"--snr-db-step={step}"]
    return argv + [token for flag in flags for token in flag]


def _out_path(directory: Path, kind: str) -> Path:
    """A fresh ``--out`` target of the given kind in ``directory``."""
    if kind == "existing":
        (directory / "x.csv").write_text("old\n")
    elif kind == "dangling-symlink":
        (directory / "x.csv").symlink_to(directory / "gone" / "x.csv")
    return {"directory": directory, "missing-parent": directory / "missing" / "x.csv"}.get(
        kind, directory / "x.csv")


def _quiet_cli(argv) -> tuple[int, str, str]:
    """``cli_main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_sweep(grids, workers):
    raise AssertionError("a trial ran before --out was checked")


class TestCliContract:
    """Every argument vector ends in an exit code, one ``oia`` line and no leftovers."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(SUBCOMMAND, SNR_RANGE, CLI_FLAGS, OUT)
    def test_exit_code_message_and_no_leftovers(self, command, snr, flags, kind):
        argv = _cli_argv(command, snr, flags)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            out = _out_path(directory, kind)
            code, stdout, stderr = _quiet_cli([*argv, "--out", str(out)])
            leftovers = [p.name for p in directory.rglob("*.tmp")]
            written = out.read_text() if code == 0 else None
        assert code in (0, 1, 2, 3), code
        assert "Traceback" not in stdout + stderr
        assert leftovers == []
        if code == 0:
            assert stderr == "" and written.startswith(CSV_HEADER + "\n")
        else:
            assert stderr.splitlines()[-1].startswith("oia"), stderr

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(SUBCOMMAND, SNR_RANGE, CLI_FLAGS, st.sampled_from(BAD_OUT))
    def test_bad_out_exits_1_before_any_trial(self, command, snr, flags, kind):
        """With ``run_grid`` stubbed to fail, a bad --out turns exit 0 into 1, nothing else."""
        argv = _cli_argv(command, snr, flags)
        row = experiments.ResultRow(1, 1, 0.0, 1, 0, *[0.0] * 8)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            with mock.patch.object(cli, "run_grid", lambda grids, workers: [row]):
                good, _, _ = _quiet_cli([*argv, "--out", str(directory / "good.csv")])
            out = _out_path(directory, kind)
            with mock.patch.object(cli, "run_grid", _no_sweep):
                code, _, stderr = _quiet_cli([*argv, "--out", str(out)])
        assert code == (1 if good == 0 else good)
        if code == 1:
            problem = "it is a directory" if kind == "directory" else "its directory does not exist"
            assert stderr == f"oia: cannot write result CSV to {out}: {problem}\n"


class TestGoldenCsv:
    """SHA-256 of small sweeps, pinned so refactors keep the CSV bytes."""

    REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    # Every sweep recorded in the reference, serially, and fig-unused also on
    # two workers, so the process pool's bytes are checked too.
    SWEEPS = {"run-3x3": ("run --nt 3 --nr 3 --trials 100", 1),
              "run-20x20": ("run --nt 20 --nr 20 --trials 40", 1),
              "run-3x5": ("run --nt 3 --nr 5 --trials 100", 1),
              "fig-unused": ("fig-unused --trials 60", 1),
              "fig-unused-w2": ("fig-unused --trials 60", 2)}

    def test_every_reference_sweep_checked(self):
        sweeps = json.loads(self.REFERENCE.read_text())["sweeps"]
        assert {sweep for sweep, _ in self.SWEEPS.values()} == set(sweeps)

    @pytest.mark.parametrize("name", SWEEPS)
    def test_benchmark_reference_digest(self, tmp_path, name):
        """Every recorded seed of a benchmark sweep has its digest in ``perfbench/reference.json``.

        All 32 seeds are checked, since rounding-level changes to the rates
        move a CSV digit only rarely.
        """
        sweep, workers = self.SWEEPS[name]
        digests = json.loads(self.REFERENCE.read_text())["sweeps"][sweep]
        out = tmp_path / "sweep.csv"
        for seed, digest in digests.items():
            assert cli_main([*sweep.split(), "--seed", seed, "--workers", str(workers),
                             "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, seed

    @pytest.mark.parametrize("argv,digest", [
        (["run", "--nt", "3", "--nr", "5", "--trials", "20", "--seed", "5",
          "--snr-db-min", "-10", "--snr-db-max", "20", "--snr-db-step", "5"],
         "dd9aeb73f2f6134f6bed3093ae2bd5afdbff644a0389634909b10137b21bd99d"),
        (["fig-compare", "--trials", "8", "--seed", "2",
          "--snr-db-min", "-10", "--snr-db-max", "30", "--snr-db-step", "10"],
         "e009b520f0f9c24e7e01bbabf53092e6ee88d75d6e4530c99ce19c2623e5ca5d"),
    ], ids=["run-3x5", "fig-compare"])
    def test_digest(self, tmp_path, argv, digest):
        out = tmp_path / "golden.csv"
        assert cli_main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
