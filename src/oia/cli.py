"""Command-line interface producing figure-ready CSV sweeps."""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import InvalidInputError
from .experiments import ExperimentGrid, run_grid, write_csv

DEFAULT_SNR_MIN = -20.0
DEFAULT_SNR_MAX = 40.0
DEFAULT_SNR_STEP = 2.0
DEFAULT_TRIALS = 1000
FIG_UNUSED_ANTENNAS = tuple(range(2, 11))
FIG_RATE_ANTENNAS = tuple(range(2, 11))
FIG_COMPARE_ANTENNAS = (3, 20)


def _snr_list(lo: float, hi: float, step: float) -> tuple:
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise InvalidInputError("SNR bounds and step must be finite")
    if step <= 0:
        raise InvalidInputError("SNR step must be positive")
    if hi < lo:
        raise InvalidInputError(f"empty SNR range: min {lo} dB > max {hi} dB")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
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
    parser.add_argument("--sigma2", type=float, default=1.0, help="noise variance")
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
        snr = _snr_list(args.snr_db_min, args.snr_db_max, args.snr_db_step)
        if args.command == "run":
            grid = ExperimentGrid(nt=args.nt, nr=args.nr, snr_db_list=snr,
                                  trials=args.trials, sigma2=args.sigma2,
                                  master_seed=args.seed)
            rows = run_grid(grid, workers=workers)
        else:
            rows = []
            for index, count in enumerate(args.antennas):
                grid = ExperimentGrid(nt=count, nr=count, snr_db_list=snr,
                                      trials=args.trials, sigma2=args.sigma2,
                                      master_seed=args.seed)
                rows.extend(run_grid(grid, workers=workers,
                                     grid_offset=index * len(snr)))
        write_csv(rows, args.out)
    except InvalidInputError as exc:
        print(f"oia: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"oia: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
