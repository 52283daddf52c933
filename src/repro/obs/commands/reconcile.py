"""``repro-obs reconcile`` -- merge per-shard causal event logs (flight
dumps or trace exports, one document per shard) and verify the cluster's
global conservation invariants offline: no double release, no
over-grant, no resource granted by two shards, every aborted or expired
2PC lease fully rolled back; non-zero exit on any violation."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.obs.commands._render import load_trace, print_lines


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "reconcile",
        help="verify global capacity conservation across per-shard event "
        "logs (flight dumps or trace documents, one per shard)",
    )
    parser.add_argument(
        "traces", nargs="+", metavar="TRACE",
        help="one event-carrying JSON document per shard",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    from repro.faults.invariants import reconcile_shard_events

    names = [Path(path).name for path in args.traces]
    labels = [
        name if names.count(name) == 1 else path
        for name, path in zip(names, args.traces)
    ]
    documents = {
        label: load_trace(path) for label, path in zip(labels, args.traces)
    }
    report = reconcile_shard_events(
        {label: doc.events for label, doc in documents.items()},
        partial={label for label, doc in documents.items() if doc.events_dropped},
    )
    print_lines(report.describe().splitlines())
    return 0 if report.ok else 1
