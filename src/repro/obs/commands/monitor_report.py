"""``repro-obs monitor-report`` -- the monitoring digest: per-broker
estimators, drift/renegotiation counts, causal drift->renegotiation
pairs."""

from __future__ import annotations

import argparse

from repro.obs import analyze
from repro.obs.commands._render import load_trace, positive, print_lines, raise_line, row_count
from repro.obs.commands.watch import monitor_events
from repro.obs.export import table

#: The monitor's headline numbers, in the order they print.
_HEADLINE = (
    "events_seen", "drift_detected", "sessions_tracked", "rejection_rate", "qos_ewma", "psi_ewma",
)


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "monitor-report",
        help="monitoring-plane summary: estimators, adaptation outcomes, "
        "and drift->renegotiation causal chains",
    )
    parser.add_argument("trace", help="trace JSON document")
    parser.add_argument(
        "--threshold", type=positive, metavar="FRAC",
        help="replay detection offline with this drift threshold instead of "
        "using the recorded monitoring section",
    )
    parser.add_argument(
        "--pairs", type=row_count, default=10,
        help="causal drift->renegotiation pairs to list (default 10)",
    )
    return parser


def _text(value, fmt: str = ".4g") -> str:
    return "-" if value is None else format(value, fmt)


def run(args: argparse.Namespace) -> int:
    doc = load_trace(args.trace)
    monitoring = doc.monitoring
    source = "recorded by the run's live monitor"
    if not monitoring:
        if not doc.events:
            print_lines(
                ["no monitoring section and no event log in this trace; nothing to report"]
            )
            return 0
        _events, _replayed, monitor = monitor_events(doc, args.threshold)
        monitoring = monitor.report() if monitor is not None else {}
        source = "replayed offline over the recorded event log"
    title = f"monitoring report: {args.trace} ({source})"
    lines = [title, "=" * len(title), ""]
    for key in _HEADLINE:
        if key in monitoring:
            value = monitoring[key]
            text = _text(value) if value is None or isinstance(value, float) else str(value)
            lines.append(f"  {key:<22} {text}")
    adaptation = monitoring.get("adaptation")
    if isinstance(adaptation, dict):
        lines += ["", "adaptation loop:"]
        lines.append(f"  triggered              {adaptation.get('triggered', 0)}")
        for outcome, count in sorted((adaptation.get("outcomes") or {}).items()):
            lines.append(f"  outcome {outcome:<14} {count}")
        lines.append(f"  sessions renegotiated  {adaptation.get('sessions_renegotiated', 0)}")
        lines.append(f"  sessions dropped       {adaptation.get('sessions_dropped', 0)}")
    brokers = monitoring.get("brokers")
    if isinstance(brokers, dict) and brokers:
        lines += ["", "per-broker estimators:"] + table(
            [("resource", "<16"), ("ewma_avail", ">11"), ("alpha", ">7"), ("psi", ">7"),
             ("rej_rate", ">9"), ("updates", ">8")],
            (
                (resource, *(_text(digest.get(key)) for key in
                             ("ewma_available", "alpha", "psi", "rejection_rate")),
                 digest.get("updates", 0))
                for resource, digest in sorted(brokers.items())
            ),
        )
    summary = analyze.adaptation_summary(doc)
    if not summary.empty:
        lines += [
            "", "causal chains (from the event log):",
            f"  drift detections       {summary.total_drifts}",
            f"  renegotiations         {summary.total_renegotiations}",
            f"  causally paired        {len(summary.causal_pairs)}",
        ]
        if summary.unmatched_renegotiations:
            lines.append(f"  unmatched              {summary.unmatched_renegotiations}")
        for session, trigger_seq, reneg_seq in summary.causal_pairs[: args.pairs]:
            lines.append(
                f"    {session}: trigger seq {trigger_seq} -> renegotiated seq {reneg_seq}"
            )
        hidden = len(summary.causal_pairs) - args.pairs
        if hidden > 0:
            lines.append(raise_line("    ", f"{hidden} more", "--pairs"))
    print_lines(lines)
    return 0
