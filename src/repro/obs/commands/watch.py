"""``repro-obs watch`` -- the monitoring-plane timeline of a trace (broker
digests, drift detections, renegotiations), replaying the online monitor
over the event log when the run had none live."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.obs import analyze
from repro.obs.commands._render import line_limit, load_trace, positive, print_lines, raise_line


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "watch",
        help="chronological timeline of monitoring-plane events "
        "(broker digests, drift, renegotiations)",
    )
    parser.add_argument("trace", help="trace JSON document")
    parser.add_argument("--kind", help="show only this event kind (e.g. session.drift)")
    parser.add_argument(
        "--threshold", type=positive, metavar="FRAC",
        help="replay detection offline with this drift threshold instead of "
        "using the recorded monitor events",
    )
    parser.add_argument(
        "--limit", type=line_limit, default=200,
        help="maximum timeline lines to print (default 200; 0 = unlimited)",
    )
    return parser


def monitor_events(doc: analyze.TraceDocument, threshold: Optional[float]):
    """The trace's monitoring events, replaying the monitor if needed.

    A trace recorded with a live monitor already carries the plane's
    events; otherwise (or when ``threshold`` overrides the detection
    configuration) the :class:`~repro.obs.monitor.OnlineMonitor` is
    replayed offline over the recorded event log.  Returns
    ``(events, replayed, monitor)`` -- ``monitor`` is None when the
    recording's own events were used.
    """
    from repro.obs.monitor import MONITOR_EVENT_KINDS, MonitorConfig, replay_events

    recorded = [e for e in doc.events if e.kind in MONITOR_EVENT_KINDS]
    if recorded and threshold is None:
        return recorded, False, None
    config = (
        MonitorConfig(adapt=False)
        if threshold is None
        else MonitorConfig(drift_threshold=threshold, adapt=False)
    )
    monitor, log = replay_events(doc.events, config)
    return list(log), True, monitor


def run(args: argparse.Namespace) -> int:
    doc = load_trace(args.trace)
    if not doc.events:
        print_lines(["no event log in this trace"])
        return 0
    events, replayed, _monitor = monitor_events(doc, args.threshold)
    header = (
        "monitoring timeline (replayed offline over the recorded event log):"
        if replayed
        else "monitoring timeline (recorded by the run's live monitor):"
    )
    lines = [header]
    shown = 0
    for event in events:
        if args.kind and event.kind != args.kind:
            continue
        when = "-" if event.time is None else f"{event.time:.2f}"
        attributes = event.attributes
        if event.kind == "session.drift":
            detail = (
                f"planned={attributes.get('planned', 0.0):.6g} "
                f"observed={attributes.get('observed', 0.0):.6g} "
                f"({attributes.get('direction', '?')}, "
                f"{float(attributes.get('relative', 0.0)):+.1%})"
            )
        elif event.kind == "session.renegotiated":
            detail = (
                f"trigger={attributes.get('trigger')} outcome={attributes.get('outcome')} "
                f"level {attributes.get('previous_level')} -> {attributes.get('new_level')}"
            )
        elif event.kind == "broker.observed":
            ewma = attributes.get("ewma_available")
            detail = (
                f"ewma_avail={'-' if ewma is None else format(float(ewma), '.6g')} "
                f"alpha={float(attributes.get('alpha', 1.0)):.3f} "
                f"rej_rate={float(attributes.get('rejection_rate', 0.0)):.3f}"
            )
        else:
            detail = ""
        lines.append(
            f"  t={when:>9} {event.kind:<22} "
            f"{event.session or event.resource or '-':<14} {detail}"
        )
        shown += 1
        if args.limit and shown >= args.limit:
            lines.append(raise_line("  ", f"truncated at {args.limit} lines", "--limit"))
            break
    if shown == 0:
        lines.append("  (no monitoring events)")
    print_lines(lines)
    return 0
