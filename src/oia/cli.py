"""Command-line interface producing figure-ready CSV sweeps."""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from .errors import InvalidInputError, OiaError
from .experiments import ExperimentGrid, check_destination, run_grid, write_csv

DEFAULT_SNR_MIN = -20.0
DEFAULT_SNR_MAX = 40.0
DEFAULT_SNR_STEP = 2.0
DEFAULT_TRIALS = 1000
FIG_UNUSED_ANTENNAS = tuple(range(2, 11))
FIG_RATE_ANTENNAS = tuple(range(2, 11))
FIG_COMPARE_ANTENNAS = (3, 20)

# Largest sweep the CLI accepts. Every cell costs a row and a pool task per
# pass, and a cell keeps its per-trial records until it is aggregated: about
# 100 bytes per trial at peak, measured on one n=2 cell of 2*10^5 trials, so
# the per-cell trial cap bounds that memory at about 1 GB. A trial holds about
# 18 n x n complex matrices at once (peak RSS rise of one trial at n=400), so
# the antenna cap bounds one trial's working set at about 0.3 GB per process.
MAX_CELLS = 100_000
MAX_TRIALS_PER_CELL = 10**7
MAX_ANTENNAS = 1000
# A process pool starts all its workers at once, each an interpreter with
# numpy loaded: about 42 MB resident after one n=3 or n=20 pass, so the
# worker cap bounds a pool at about 2.7 GB before any trial's working set.
MAX_WORKERS = 64


def _check_sweep_size(cells, trials_per_cell=1, antennas=1) -> None:
    """Reject an oversized sweep from its counts, before anything of its size is built.

    The counts may be floats, even infinite, as an SNR range gives them;
    ``antennas`` is the largest antenna count of any geometry.
    """
    if not cells <= MAX_CELLS:
        raise InvalidInputError(f"sweep of {cells:.6g} cells exceeds the limit of {MAX_CELLS}")
    if not trials_per_cell <= MAX_TRIALS_PER_CELL:
        raise InvalidInputError(f"{trials_per_cell:.6g} trials per cell exceeds the limit "
                                f"of {MAX_TRIALS_PER_CELL}")
    if not antennas <= MAX_ANTENNAS:
        raise InvalidInputError(f"{antennas} antennas exceeds the limit of {MAX_ANTENNAS}")


def _snr_list(lo: float, hi: float, step: float) -> tuple:
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise InvalidInputError("SNR bounds and step must be finite")
    if step <= 0:
        raise InvalidInputError("SNR step must be positive")
    if hi < lo:
        raise InvalidInputError(f"empty SNR range: min {lo} dB > max {hi} dB")
    span = (hi - lo) / step
    _check_sweep_size(span + 1)
    count = int(math.floor(span + 1e-9)) + 1
    return tuple(lo + k * step for k in range(count))


def _env_workers() -> int:
    text = os.environ.get("OIA_WORKERS", "1")
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"OIA_WORKERS must be an integer, got {text!r}") from None


def _add_common_flags(parser: argparse.ArgumentParser, default_out: str) -> None:
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="Monte Carlo trials per grid cell")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", default=default_out, help="output CSV path")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: OIA_WORKERS or 1)")
    parser.add_argument("--snr-db-min", type=float, default=DEFAULT_SNR_MIN)
    parser.add_argument("--snr-db-max", type=float, default=DEFAULT_SNR_MAX)
    parser.add_argument("--snr-db-step", type=float, default=DEFAULT_SNR_STEP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oia",
        description="Two-link MIMO interference-channel simulator: primary water-filling, "
                    "zero-interference secondary precoding, Monte Carlo rate sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="sweep one antenna geometry over an SNR grid")
    run_parser.add_argument("--nt", type=int, default=3, help="transmit antennas")
    run_parser.add_argument("--nr", type=int, default=3, help="receive antennas (>= nt)")
    _add_common_flags(run_parser, "run.csv")

    presets = [
        ("fig-unused", FIG_UNUSED_ANTENNAS, "fig_unused.csv",
         "average unused-mode count vs antennas and SNR"),
        ("fig-rate", FIG_RATE_ANTENNAS, "fig_rate.csv",
         "secondary optimal rate vs antennas and SNR"),
        ("fig-compare", FIG_COMPARE_ANTENNAS, "fig_compare.csv",
         "primary vs secondary uniform/optimal rates"),
    ]
    for name, antennas, out, help_text in presets:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--antennas", type=int, nargs="+", default=list(antennas),
                       help="square antenna counts to sweep (nt = nr)")
        _add_common_flags(p, out)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        workers = _env_workers() if args.workers is None else args.workers
        if workers > MAX_WORKERS:
            raise InvalidInputError(f"{workers} workers exceeds the limit of {MAX_WORKERS}")
        snr = _snr_list(args.snr_db_min, args.snr_db_max, args.snr_db_step)
        geometries = ([(args.nt, args.nr)] if args.command == "run"
                      else [(count, count) for count in args.antennas])
        _check_sweep_size(len(geometries) * len(snr), args.trials, max(map(max, geometries)))
        grids = [ExperimentGrid(nt=nt, nr=nr, snr_db_list=snr, trials=args.trials,
                                master_seed=args.seed)
                 for nt, nr in geometries]
        check_destination(args.out)
        # One task list, and one pool, for all geometries; geometry g's cell
        # c keeps grid index g * len(snr) + c.
        rows = run_grid(grids, workers=workers)
        write_csv(rows, args.out)
    except InvalidInputError as exc:
        print(f"oia: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"oia: {exc}", file=sys.stderr)
        return 1
    except BrokenProcessPool as exc:
        print(f"oia: a worker process died: {exc}", file=sys.stderr)
        return 1
    except OiaError as exc:
        # A numerical failure inside the sweep: a redraw that kept failing, or
        # a guarantee that should hold by construction did not.
        print(f"oia: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
