"""Record the CSV digests the benchmark checks its sweeps against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py

Each workload's sweep is run once, serially, for every seed in SEEDS, and
the SHA-256 of its CSV is stored in ``reference.json``. The pool workload
shares the serial sweep's digest, since the CSV must not depend on the worker
count. The digests pin the output of the code they were recorded from; a
sweep whose CSV differs fails the benchmark's check. Recording them again is
only right when a change is meant to alter the CSV.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

from sweep import REFERENCE, WORKLOADS  # noqa: E402

SEEDS = range(32)


def main() -> int:
    from oia.cli import cli_main
    sweeps = {}
    scratch = Path.cwd() / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp) / "sweep.csv"
        for workload in WORKLOADS.values():
            key = workload.sweep_key(workload.trials)
            if key in sweeps:
                continue
            digests = {}
            for seed in SEEDS:
                argv = workload.cli_args(workload.trials, seed, 1, out)
                if cli_main(argv) != 0:
                    print(f"record_reference: sweep failed: {' '.join(argv)}", file=sys.stderr)
                    return 1
                digests[str(seed)] = hashlib.sha256(out.read_bytes()).hexdigest()
            sweeps[key] = digests
            print(f"recorded {key} for {len(digests)} seeds")
    REFERENCE.write_text(json.dumps({"sweeps": sweeps}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
