"""``repro-obs export-prom`` -- the document's metrics snapshot in
Prometheus text exposition format."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.commands._render import load_trace
from repro.obs.prom import DEFAULT_PREFIX, snapshot_exposition


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "export-prom", help="Prometheus text exposition of the metrics snapshot"
    )
    parser.add_argument("trace", help="trace JSON document")
    parser.add_argument("-o", "--output", help="write here instead of stdout")
    parser.add_argument(
        "--prefix", default=DEFAULT_PREFIX,
        help=f"metric name prefix (default {DEFAULT_PREFIX!r})",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    doc = load_trace(args.trace)
    if not doc.metrics:
        raise SystemExit(f"repro-obs: {args.trace} carries no metrics snapshot")
    text = snapshot_exposition(doc.metrics, prefix=args.prefix)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0
