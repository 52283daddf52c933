"""``repro-obs summarize`` -- meta, phase timings, session outcomes, event
counts, per-broker rejection rates and the top bottleneck resources."""

from __future__ import annotations

import argparse
from collections import Counter
from typing import List, Optional

from repro.obs import analyze
from repro.obs.commands._render import load_trace, print_lines, row_count
from repro.obs.export import table


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "summarize", help="meta, timings, events, broker and bottleneck overview"
    )
    parser.add_argument("trace", help="trace JSON document")
    parser.add_argument(
        "--top", type=row_count, default=5, metavar="K",
        help="rows in the broker/bottleneck tables (default 5)",
    )
    return parser


def _meta_lines(doc: analyze.TraceDocument) -> List[str]:
    if not doc.meta:
        return []
    return ["run metadata:"] + [f"  {key:<22} {doc.meta[key]}" for key in sorted(doc.meta)]


def _span_lines(doc: analyze.TraceDocument) -> List[str]:
    if not doc.span_totals:
        return []
    ranked = sorted(doc.span_totals.items(), key=lambda item: -item[1].get("total_seconds", 0.0))
    return ["per-phase timings:"] + table(
        [("span", "<22"), ("count", ">7"), ("total_s", ">10.4f")],
        ((name, int(t.get("count", 0)), t.get("total_seconds", 0.0)) for name, t in ranked),
    )


def _event_lines(doc: analyze.TraceDocument) -> List[str]:
    counts = Counter(event.kind for event in doc.events)
    if not counts:
        return []
    lines = ["reservation events:"] + [f"  {kind:<26} {counts[kind]}" for kind in sorted(counts)]
    if doc.events_dropped:
        lines.append(f"  (dropped beyond capacity: {doc.events_dropped})")
    return lines


def broker_lines(doc: analyze.TraceDocument, *, limit: Optional[int] = None) -> List[str]:
    """Per-broker admission rows, highest rejection rate first."""
    timelines = analyze.broker_timelines(doc)
    if not timelines:
        return []
    ranked = sorted(timelines.values(), key=lambda t: (-t.rejection_rate, -t.rejects, t.resource))
    return ["per-broker admission:"] + table(
        [("resource", "<16"), ("grants", ">7"), ("rejects", ">8"), ("rej_rate", ">9.3f"),
         ("peak_util", ">10.3f"), ("first_rej_t", ">12")],
        (
            (t.resource, t.grants, t.rejects, t.rejection_rate, t.peak_utilization,
             "-" if t.first_reject_time is None else f"{t.first_reject_time:.1f}")
            for t in ranked[:limit]
        ),
    )


def fault_lines(doc: analyze.TraceDocument) -> List[str]:
    """The run's fault/recovery story (empty for fault-free traces)."""
    summary = analyze.fault_summary(doc)
    if summary.empty:
        return []
    lines = [f"fault injection ({summary.total_injected} faults fired):"]
    for kind, count in summary.injected.items():
        lines.append(f"  injected {kind:<20} {count}")
    for phase, count in summary.timeouts.items():
        lines.append(f"  timeouts phase={phase:<14} {count}")
    for phase, count in summary.retries.items():
        lines.append(f"  retries  phase={phase:<14} {count}")
    for reason, count in summary.replans.items():
        lines.append(f"  replans  reason={reason:<13} {count}")
    if summary.leases_expired:
        lines.append(f"  orphaned leases reaped       {summary.leases_expired}")
    if summary.unreachable_rejections:
        lines.append(f"  sessions lost to dead hosts  {summary.unreachable_rejections}")
    return lines


def bottleneck_lines(doc: analyze.TraceDocument, k: int) -> List[str]:
    """The top-``k`` bottleneck resources, most severe first."""
    reports = analyze.top_bottlenecks(doc, k)
    if not reports:
        return []
    return [f"top-{len(reports)} bottleneck resources:"] + table(
        [("resource", "<16"), ("score", ">7g"), ("plan_btl", ">9"), ("adm_fail", ">9"),
         ("brk_rej", ">8"), ("mean_psi", ">9.3f")],
        (
            (r.resource, r.score, r.planned_bottleneck, r.admission_failures,
             r.broker_rejects, r.mean_psi)
            for r in reports
        ),
    )


def run(args: argparse.Namespace) -> int:
    doc = load_trace(args.trace)
    title = f"trace summary: {args.trace} (schema v{doc.schema_version})"
    sections = [
        [title, "=" * len(title)],
        _meta_lines(doc),
        _span_lines(doc),
        _event_lines(doc),
        fault_lines(doc),
        broker_lines(doc, limit=args.top),
        bottleneck_lines(doc, args.top),
    ]
    print_lines([line for section in sections if section for line in section + [""]][:-1])
    return 0
