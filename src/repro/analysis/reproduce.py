"""The ``repro-reproduce`` command line interface.

Usage::

    repro-reproduce --experiment fig11 --quick
    repro-reproduce --experiment all --seed 7 --out results/
    repro-reproduce --experiment fig11 --workers 4
    python -m repro.analysis.reproduce --list

Each experiment prints the same rows/series as the corresponding paper
artifact; ``--out`` additionally writes the text report (and CSV for
figure experiments) to files.  ``--workers N`` runs every sweep on an
N-process pool (byte-identical results): it is the CLI spelling of
``REPRO_SWEEP_WORKERS=N``, set for the duration of :func:`main`.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import List, Optional

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.figures import to_csv
from repro.sim.experiment import WORKERS_ENV


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-reproduce",
        description="Regenerate the paper's tables and figures from the simulator.",
    )
    parser.add_argument(
        "--experiment",
        "-e",
        action="append",
        dest="experiments",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (repeatable); 'all' runs everything",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed (default 0)")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced horizons/sweeps (minutes instead of tens of minutes)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="directory to write reports/CSVs into"
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run sweeps on a process pool of this size (results are "
        "byte-identical to serial execution; default: serial, or "
        "REPRO_SWEEP_WORKERS from the environment)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0
    requested = args.experiments or ["all"]
    if "all" in requested:
        requested = sorted(EXPERIMENTS)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    inherited = os.environ.get(WORKERS_ENV)
    if args.workers:
        os.environ[WORKERS_ENV] = str(args.workers)
    try:
        for experiment_id in requested:
            runner = EXPERIMENTS[experiment_id]
            print(f"=== {experiment_id} (seed={args.seed}, quick={args.quick}) ===")
            report = runner(seed=args.seed, quick=args.quick)
            print(report.text)
            print()
            if args.out is not None:
                (args.out / f"{experiment_id}.txt").write_text(report.text)
                if report.series:
                    (args.out / f"{experiment_id}.csv").write_text(
                        to_csv(report.series, x_label="rate")
                    )
    finally:
        if inherited is None:
            os.environ.pop(WORKERS_ENV, None)
        else:
            os.environ[WORKERS_ENV] = inherited
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
