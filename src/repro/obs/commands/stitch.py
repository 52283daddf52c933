"""``repro-obs stitch`` -- merge a client-side and a daemon-side trace
document (e.g. the loadgen's ``--trace-json`` output and a flight-recorder
dump) into one cross-process timeline per request, joined on the
propagated ``trace_id``; ``--require-complete`` exits non-zero when any
client request has no daemon-side telemetry."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.obs import analyze
from repro.obs.commands._render import load_trace, print_lines, raise_line, row_count
from repro.obs.export import table


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "stitch",
        help="merge client- and daemon-side trace documents into one "
        "cross-process timeline per request (joined on trace_id)",
    )
    parser.add_argument("client", help="client-side trace JSON (loadgen --trace-json)")
    parser.add_argument("daemon", help="daemon-side trace JSON (flight-recorder dump or export)")
    parser.add_argument(
        "-o", "--output", help="write the merged stitched-trace/1 JSON document here"
    )
    parser.add_argument(
        "--limit", type=row_count, default=50, metavar="N",
        help="per-request rows to print (default 50)",
    )
    parser.add_argument(
        "--require-complete", action="store_true",
        help="exit 1 when any client request lacks daemon-side telemetry",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    report = analyze.stitch_traces(load_trace(args.client), load_trace(args.daemon))
    if args.output:
        target = Path(args.output)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    total_client = len(report.timelines) + len(report.orphan_client)
    lines = [
        f"stitched {len(report.timelines)}/{total_client} client requests to "
        f"daemon-side telemetry ({len(report.orphan_daemon)} daemon-only traces)"
    ]
    if report.timelines:
        lines += table(
            [("request", "<22"), ("session", "<14"), ("outcome", "<12"),
             ("client_ms", ">10.2f"), ("daemon_ms", ">10.2f"), ("spans", ">6"), ("events", ">7")],
            (
                (t.request_id or t.trace_id[:16], t.session or "-", t.outcome or "-",
                 1e3 * t.client_seconds, 1e3 * t.daemon_seconds,
                 len(t.client_spans) + len(t.daemon_spans), len(t.daemon_events))
                for t in report.timelines[: args.limit]
            ),
        )
        hidden = len(report.timelines) - args.limit
        if hidden > 0:
            lines.append(raise_line("  ", f"{hidden} more", "--limit"))
    for trace_id in report.orphan_client:
        lines.append(f"  ORPHAN client trace {trace_id}: no daemon-side telemetry")
    incomplete = args.require_complete and not report.complete
    if incomplete:
        lines.append(
            f"stitch: INCOMPLETE -- {len(report.orphan_client)} client "
            "request(s) have no daemon-side spans or events"
        )
    print_lines(lines)
    return 1 if incomplete else 0
