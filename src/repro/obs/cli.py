"""``repro-obs`` -- post-mortem analysis of exported trace documents.

The subcommands consume the schema-v4 JSON trace documents that
:class:`~repro.obs.ObservationSession` / ``--trace-json`` write.  Each
lives in its own module under :mod:`repro.obs.commands`, whose docstring
says what it prints.

Installed as a console script via ``[project.scripts]``; also runnable
as ``python -m repro.obs.cli``.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.obs.commands import (
    critical_path, diff, export_prom, monitor_report, reconcile, stitch, summarize, top, watch,
)

__all__ = ["build_parser", "main"]

#: The subcommands, in the order ``--help`` lists them.
COMMANDS = (
    summarize, critical_path, top, diff, watch, monitor_report, export_prom, stitch, reconcile,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Analyze exported observability trace documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        command.register(sub).set_defaults(func=command.run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
