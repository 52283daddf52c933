"""``repro-obs top`` -- the top-K contended resources with how each
manifested (plan bottleneck, admission race lost, broker reject)."""

from __future__ import annotations

import argparse

from repro.obs.commands._render import load_trace, print_lines, row_count
from repro.obs.commands.summarize import bottleneck_lines, broker_lines, fault_lines


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser("top", help="top-K contended (bottleneck) resources")
    parser.add_argument("trace", help="trace JSON document")
    parser.add_argument(
        "-k", type=row_count, default=5, help="number of resources to report (default 5)"
    )
    return parser


def run(args: argparse.Namespace) -> int:
    doc = load_trace(args.trace)
    lines = bottleneck_lines(doc, args.k)
    if not lines:
        print_lines(["no bottleneck signals in this trace"])
        return 0
    for section in (broker_lines(doc, limit=args.k), fault_lines(doc)):
        if section:
            lines += [""] + section
    print_lines(lines)
    return 0
