"""Tests for the Monte Carlo sweep machinery, CSV output, and CLI."""

import hashlib
import math

import numpy as np
import pytest

import oia.experiments as experiments
from oia.channel import ChannelSet
from oia.cli import cli_main
from oia.errors import InvalidInputError
from oia.experiments import (
    CSV_HEADER,
    REPLACEMENT_BASE,
    ExperimentGrid,
    run_grid,
    run_trial,
    snr_to_power,
    write_csv,
)

WALKTHROUGH_SNR_DB = 10.0 * math.log10(0.5)  # p_max = 0.5 at sigma2 = 1


def walkthrough_channels():
    eye = np.eye(2, dtype=complex)
    return ChannelSet(h11=np.diag([2.0, 1.0]).astype(complex), h12=eye, h21=eye, h22=eye)


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
    def test_injected_walkthrough(self):
        grid = small_grid(snr_db_list=(WALKTHROUGH_SNR_DB,))
        record = run_trial(grid, 0, WALKTHROUGH_SNR_DB, 0, channels=walkthrough_channels())
        assert record.unused_modes == 1
        assert abs(record.rate_secondary_uniform - math.log2(1.5)) < 1e-9
        assert abs(record.rate_secondary_optimal - math.log2(1.5)) < 1e-9
        assert abs(record.rate_primary - math.log2(3.0)) < 1e-9
        assert record.discards == 0

    def test_deterministic_record(self):
        grid = small_grid()
        a = run_trial(grid, 1, 6.0, 17)
        b = run_trial(grid, 1, 6.0, 17)
        assert a == b

    def test_effectively_zero_power(self):
        grid = small_grid(nt=3, nr=3, snr_db_list=(-60.0,))
        for trial in range(5):
            record = run_trial(grid, 0, -60.0, trial)
            assert record.unused_modes == 2
            assert record.rate_secondary_optimal < 0.05

    def test_discarded_trial_redrawn_from_reserved_range(self, monkeypatch):
        grid = small_grid(snr_db_list=(0.0,), trials=1)
        real_draw = experiments.draw_channel_set
        seen_indices = []

        def rigged_draw(nr, nt, stream):
            chans = real_draw(nr, nt, stream)
            # first attempt gets a singular cross channel and must be discarded
            if len(seen_indices) == 0:
                seen_indices.append("rigged")
                return ChannelSet(h11=chans.h11, h12=np.ones((nr, nt), dtype=complex),
                                  h21=chans.h21, h22=chans.h22)
            return chans

        monkeypatch.setattr(experiments, "draw_channel_set", rigged_draw)
        record = run_trial(grid, 0, 0.0, 7)
        assert record.discards == 1
        monkeypatch.undo()
        # the replacement is the deterministic reserved-range redraw
        replacement = run_trial(grid, 0, 0.0, 7 + REPLACEMENT_BASE)
        assert record.unused_modes == replacement.unused_modes
        assert record.rate_primary == replacement.rate_primary
        assert record.rate_secondary_optimal == replacement.rate_secondary_optimal


class TestRunGrid:
    def test_single_trial_row(self):
        grid = small_grid(snr_db_list=(3.0,), trials=1)
        row = run_grid(grid)[0]
        record = run_trial(grid, 0, 3.0, 0)
        assert row.trials_used == 1
        assert row.avg_rate_primary == record.rate_primary
        assert row.avg_unused_modes == float(record.unused_modes)
        assert row.stderr_rate_primary == 0.0
        assert row.stderr_unused_modes == 0.0

    def test_worker_count_does_not_change_results(self):
        grid = small_grid(trials=40)
        assert run_grid(grid, workers=1) == run_grid(grid, workers=8)

    def test_grid_offset_changes_streams(self):
        grid = small_grid(trials=10)
        assert run_grid(grid, grid_offset=0) != run_grid(grid, grid_offset=100)

    def test_no_discards_on_gaussian_channels(self):
        rows = run_grid(small_grid(nt=3, nr=3, trials=300))
        assert all(row.discarded_trials == 0 for row in rows)

    def test_rows_keep_scheme_ordering(self):
        rows = run_grid(small_grid(nt=3, nr=3, trials=150, snr_db_list=(-5.0, 5.0, 15.0)))
        for row in rows:
            assert row.avg_rate_secondary_optimal >= row.avg_rate_secondary_uniform - 1e-9
            assert 0.0 <= row.avg_unused_modes <= 3.0


class TestWriteCsv:
    def test_header_and_shape(self, tmp_path):
        out = tmp_path / "rows.csv"
        rows = run_grid(small_grid(snr_db_list=(0.0,), trials=2))
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
        write_csv(run_grid(grid), a)
        write_csv(run_grid(grid), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_csv([], tmp_path / "empty.csv")

    def test_unwritable_destination(self, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            write_csv(run_grid(small_grid(snr_db_list=(0.0,), trials=1)), target)


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

    def test_snr_to_power(self):
        assert abs(snr_to_power(0.0, 1.0) - 1.0) < 1e-15
        assert abs(snr_to_power(10.0, 1.0) - 10.0) < 1e-12
        assert abs(snr_to_power(-3.0103, 2.0) - 1.0) < 1e-4


class TestGoldenCsv:
    """SHA-256 of small sweeps, pinned so refactors keep the CSV bytes."""

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
