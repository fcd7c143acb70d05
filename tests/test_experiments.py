"""Tests for the Monte Carlo sweep machinery, CSV output, and CLI."""

import concurrent.futures
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oia
import oia.cli as cli
import oia.experiments as experiments
import oia.secondary as secondary
from oia.cli import cli_main
from oia.errors import (
    InternalInvariantError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RedrawError,
)
from oia.experiments import (
    CSV_HEADER,
    REPLACEMENT_BASE,
    ExperimentGrid,
    TrialRecords,
    run_grid,
    run_trials,
    snr_to_power,
    write_csv,
)

WALKTHROUGH_SNR_DB = 10.0 * math.log10(0.5)  # p_max = 0.5
RECORD_FIELDS = [f.name for f in fields(TrialRecords)]


def walkthrough_channels():
    """The analytic walkthrough's channels h11, h12, h21, h22 as a stack of one trial."""
    eye = np.eye(2, dtype=complex)
    return np.stack([np.diag([2.0, 1.0]).astype(complex), eye, eye, eye])[None]


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


class TestRunTrial:
    def test_injected_walkthrough(self, monkeypatch):
        monkeypatch.setattr(experiments, "draw_trials", lambda *_: walkthrough_channels())
        grid = small_grid(snr_db_list=(WALKTHROUGH_SNR_DB,))
        record = run_trials(grid, 0, WALKTHROUGH_SNR_DB, [0])
        assert record.unused_modes[0] == 1
        assert abs(record.rate_secondary_uniform[0] - math.log2(1.5)) < 1e-9
        assert abs(record.rate_secondary_optimal[0] - math.log2(1.5)) < 1e-9
        assert abs(record.rate_primary[0] - math.log2(3.0)) < 1e-9
        assert record.discards[0] == 0

    def test_deterministic_record(self):
        grid = small_grid()
        a = run_trials(grid, 1, 6.0, [17, 3])
        b = run_trials(grid, 1, 6.0, [17, 3])
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_effectively_zero_power(self):
        grid = small_grid(nt=3, nr=3, snr_db_list=(-60.0,))
        record = run_trials(grid, 0, -60.0, range(5))
        assert np.all(record.unused_modes == 2)
        assert np.all(record.rate_secondary_optimal < 0.05)

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
        rigged = run_trials(grid, 0, 0.0, range(6))
        monkeypatch.undo()
        # only the rejected trial is redrawn, from the reserved range
        assert requested == [list(range(6)), [4 + REPLACEMENT_BASE]]
        assert list(rigged.discards) == [0, 0, 0, 0, 1, 0]
        clean = run_trials(grid, 0, 0.0, range(6))
        replacement = run_trials(grid, 0, 0.0, [4 + REPLACEMENT_BASE])
        for name in RECORD_FIELDS[:-1]:
            expected = getattr(clean, name).copy()
            expected[4] = getattr(replacement, name)[0]
            assert np.array_equal(getattr(rigged, name), expected), name

    def test_trial_rejected_every_time_gives_up(self, monkeypatch):
        """The give-up names the trial and its cell, since a pass may span cells."""
        real_draw = experiments.draw_trials

        def singular_cross_in_cell_5(nr, nt, master_seed, grid_index, trial_indices):
            chans = real_draw(nr, nt, master_seed, grid_index, trial_indices)
            chans[np.asarray(grid_index) == 5, 1] = 1.0
            return chans

        monkeypatch.setattr(experiments, "draw_trials", singular_cross_in_cell_5)
        with pytest.raises(RedrawError, match="rejected 100 times in a row") as info:
            run_trials(small_grid(), [4, 5, 5], [0.0, 6.0, 6.0], [2, 0, 1])
        assert info.value.reason == "cross"
        assert info.value.rejected.tolist() == [False, True, True]
        assert str(info.value) == ("cross channel rejected: "
                                   "trial 0 of cell 5 rejected 100 times in a row")

    def test_trials_without_free_mode_skip_secondary_stages(self, monkeypatch):
        """Only trials with a free mode reach the whitener; the others get rate 0."""
        whitened = []
        real_whitener = secondary.whitened_direct
        monkeypatch.setattr(secondary, "whitened_direct",
                            lambda h21, *rest: whitened.append(len(h21))
                            or real_whitener(h21, *rest))
        grid = small_grid(nt=3, nr=3, snr_db_list=(10.0,), trials=40)
        record = run_trials(grid, 0, 10.0, range(40))
        sends = record.unused_modes > 0
        assert 0 < np.count_nonzero(sends) < 40
        assert whitened == [np.count_nonzero(sends)]
        assert np.all(record.rate_secondary_uniform[~sends] == 0.0)
        assert np.all(record.rate_secondary_optimal[~sends] == 0.0)
        assert np.all(record.rate_secondary_optimal[sends] > 0.0)
        whitened.clear()
        run_trials(grid, 0, 60.0, range(40))
        assert whitened == []

    @pytest.mark.parametrize("nt,nr", [(3, 3), (9, 9), (20, 20), (3, 5)])
    def test_stacked_records_equal_one_at_a_time(self, nt, nr):
        """Each trial's record is bitwise the same alone or in a stack: the CSV bytes rest on it."""
        trials = 12 if nr < 20 else 4
        grid = small_grid(nt=nt, nr=nr, snr_db_list=(-10.0, 5.0, 20.0), trials=trials)
        for cell, snr_db in enumerate(grid.snr_db_list):
            stacked = run_trials(grid, cell, snr_db, range(trials))
            for trial in range(trials):
                alone = run_trials(grid, cell, snr_db, [trial])
                for name in RECORD_FIELDS:
                    assert getattr(stacked, name)[trial] == getattr(alone, name)[0], name


class TestRunGrid:
    def test_single_trial_row(self):
        grid = small_grid(snr_db_list=(3.0,), trials=1)
        row = run_grid([grid])[0]
        record = run_trials(grid, 0, 3.0, [0])
        assert row.trials_used == 1
        assert row.avg_rate_primary == record.rate_primary[0]
        assert row.avg_unused_modes == float(record.unused_modes[0])
        assert row.stderr_rate_primary == 0.0
        assert row.stderr_unused_modes == 0.0

    def test_worker_count_does_not_change_results(self, monkeypatch):
        grid = small_grid(trials=40)
        serial = run_grid([grid], workers=1)
        # 12 passes of 7 trials, so the pool starts all 8 workers.
        monkeypatch.setattr(experiments, "PASS_BYTES", 16 * 2 * 2 * 7)
        assert run_grid([grid], workers=8) == serial

    def test_grid_offset_changes_streams(self):
        grid = small_grid(trials=10)
        assert run_grid([grid], grid_offset=0) != run_grid([grid], grid_offset=100)

    def test_grid_offset_up_to_64_bits(self):
        """Grid indices take the 64 bits the seed contract allows, and no more."""
        grid = small_grid(snr_db_list=(0.0, 6.0), trials=3)
        row = run_grid([grid], grid_offset=2**64 - 2)[1]
        record = run_trials(grid, 2**64 - 1, 6.0, range(3))
        assert row.avg_rate_primary == float(record.rate_primary.mean())
        for offset in (-1, 2**64 - 1):
            with pytest.raises(InvalidInputError, match="grid indices"):
                run_grid([grid], grid_offset=offset)

    def test_grid_sequence_numbers_cells_consecutively(self):
        first, second = small_grid(trials=5), small_grid(nt=3, nr=4, trials=5)
        separate = run_grid([first], grid_offset=7) + run_grid([second], grid_offset=9)
        assert run_grid([first, second], grid_offset=7) == separate
        assert run_grid([first, second], workers=2, grid_offset=7) == separate

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
                     for row in run_grid([replace(grid, snr_db_list=(snr_db,))],
                                         grid_offset=3 + number)]
        default = experiments._pass_size(grids[0])
        for size in (1, 7, trials - 1, trials, trials + 1, default):
            monkeypatch.setattr(experiments, "PASS_BYTES", 16 * 3 * 3 * size)
            passes = list(experiments._passes(grids, 3))
            assert max(stop - start for _, _, start, stop in passes) == min(size, 3 * trials)
            if trials % size:
                assert any(start // trials != (stop - 1) // trials
                           for _, _, start, stop in passes), "no pass straddles a cell"
            assert run_grid(grids, workers=workers, grid_offset=3) == reference, size

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

    def test_non_integer_env_workers_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OIA_WORKERS", "abc")
        code = cli_main(["run", "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert_one_line_usage_error(capsys, "OIA_WORKERS")

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
        NotPositiveDefiniteError("eigenvalue 5.0e-01 below floor 1.0e+00"),
        InternalInvariantError("an active precoder column is exactly zero"),
        RedrawError("cross", "trial 7 rejected 100 times in a row", np.ones(3, dtype=bool)),
    ], ids=["not-positive-definite", "internal-invariant", "redraw-give-up"])
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

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_too_many_workers_exit_2(self, tmp_path, capsys, monkeypatch, source):
        """The worker count is capped before anything is built; no process starts."""
        def no_sweep(grids, workers):
            raise AssertionError("an oversized pool reached run_grid")

        monkeypatch.setattr(cli, "run_grid", no_sweep)
        out = tmp_path / "x.csv"
        argv = ["run", "--trials", "1", "--out", str(out)]
        if source == "flag":
            argv += ["--workers", "100000"]
        else:
            monkeypatch.setenv("OIA_WORKERS", "100000")
        assert cli_main(argv) == 2
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


class TestGoldenCsv:
    """SHA-256 of small sweeps, pinned so refactors keep the CSV bytes."""

    @pytest.mark.parametrize("sweep", ["run --nt 3 --nr 3 --trials 100",
                                       "run --nt 20 --nr 20 --trials 40",
                                       "run --nt 3 --nr 5 --trials 100"],
                             ids=["run-3x3", "run-20x20", "run-3x5"])
    def test_benchmark_reference_digest(self, tmp_path, sweep):
        """Seed 0 of each serial benchmark sweep has the digest in ``perfbench/reference.json``."""
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        digest = json.loads(reference.read_text())["sweeps"][sweep]["0"]
        out = tmp_path / "sweep.csv"
        assert cli_main([*sweep.split(), "--seed", "0", "--workers", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
