"""``repro-obs`` -- post-mortem analysis of exported trace documents.

Subcommands (all consume the schema-v4 JSON trace documents that
:class:`~repro.obs.ObservationSession` / ``--trace-json`` write):

* ``summarize``     -- meta, phase timings, session outcomes, event
  counts, per-broker rejection rates and the top bottleneck resources;
* ``critical-path`` -- per-session phase self-time breakdown, slowest
  establishment attempts first;
* ``top``           -- the top-K contended resources with how each
  manifested (plan bottleneck, admission race lost, broker reject);
* ``diff``          -- numeric deltas between two documents (trace or
  benchmark ledger); ``--gate`` turns out-of-tolerance deltas into a
  non-zero exit for CI regression gating (timing comparisons are keyed
  on the ledgers' runner fingerprints: different machines never
  hard-compare wall-clock leaves);
* ``watch``         -- the monitoring-plane timeline of a trace
  (broker digests, drift detections, renegotiations), replaying the
  online monitor over the event log when the run had none live;
* ``monitor-report``-- the monitoring digest (per-broker estimators,
  drift/renegotiation counts, causal drift->renegotiation pairs);
* ``export-prom``   -- the document's metrics snapshot in Prometheus
  text exposition format;
* ``stitch``        -- merge a client-side and a daemon-side trace
  document (e.g. the loadgen's ``--trace-json`` output and a flight-
  recorder dump) into one cross-process timeline per request, joined on
  the propagated ``trace_id``; ``--require-complete`` exits non-zero
  when any client request has no daemon-side telemetry;
* ``reconcile``     -- merge per-shard causal event logs (flight dumps
  or trace exports, one document per shard) and verify the cluster's
  global conservation invariants offline: no double release, no
  over-grant, no resource granted by two shards, every aborted or
  expired 2PC lease fully rolled back; non-zero exit on any violation;
* ``dashboard``     -- the one *live* subcommand: scrape every given
  shard/router ``host:port`` on an interval into a
  :class:`~repro.obs.telemetry.TimeSeriesStore`, evaluate burn-rate
  SLOs (:mod:`repro.obs.burn`), and render per-shard admission rates,
  merged p50/p99 phase latencies, lease counters, error-budget
  remaining and firing alerts as an ANSI terminal view;
  ``--snapshot-json`` writes a machine-readable final state (the CI
  smoke's artifact) including every ``slo.*`` event the run emitted.

Installed as a console script via ``[project.scripts]``; also runnable
as ``python -m repro.obs.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.obs import analyze
from repro.obs.prom import DEFAULT_PREFIX, snapshot_exposition

__all__ = ["build_parser", "main"]


def _load_document(path: str) -> dict:
    """Any JSON object document (trace or ledger); exits 2 on garbage."""
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SystemExit(f"repro-obs: no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"repro-obs: {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise SystemExit(f"repro-obs: {path} is not a JSON object document")
    return payload


def _load_trace(path: str) -> analyze.TraceDocument:
    try:
        return analyze.TraceDocument.from_dict(_load_document(path))
    except analyze.TraceFormatError as exc:
        raise SystemExit(f"repro-obs: {path}: {exc}")


def _print(lines: Sequence[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


# -- summarize -----------------------------------------------------------------


def _meta_lines(doc: analyze.TraceDocument) -> List[str]:
    if not doc.meta:
        return []
    lines = ["run metadata:"]
    for key in sorted(doc.meta):
        lines.append(f"  {key:<22} {doc.meta[key]}")
    return lines


def _span_lines(doc: analyze.TraceDocument) -> List[str]:
    if not doc.span_totals:
        return []
    lines = ["per-phase timings:", f"  {'span':<22} {'count':>7} {'total_s':>10}"]
    for name, totals in sorted(
        doc.span_totals.items(), key=lambda item: -item[1].get("total_seconds", 0.0)
    ):
        lines.append(
            f"  {name:<22} {int(totals.get('count', 0)):>7} "
            f"{totals.get('total_seconds', 0.0):>10.4f}"
        )
    return lines


def _event_lines(doc: analyze.TraceDocument) -> List[str]:
    counts = {}
    for event in doc.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    if not counts:
        return []
    lines = ["reservation events:"]
    for kind in sorted(counts):
        lines.append(f"  {kind:<26} {counts[kind]}")
    if doc.events_dropped:
        lines.append(f"  (dropped beyond capacity: {doc.events_dropped})")
    return lines


def _broker_lines(doc: analyze.TraceDocument, *, limit: Optional[int] = None) -> List[str]:
    timelines = analyze.broker_timelines(doc)
    if not timelines:
        return []
    ranked = sorted(
        timelines.values(), key=lambda t: (-t.rejection_rate, -t.rejects, t.resource)
    )
    if limit is not None:
        ranked = ranked[:limit]
    lines = [
        "per-broker admission:",
        f"  {'resource':<16} {'grants':>7} {'rejects':>8} {'rej_rate':>9} "
        f"{'peak_util':>10} {'first_rej_t':>12}",
    ]
    for timeline in ranked:
        first = (
            f"{timeline.first_reject_time:.1f}"
            if timeline.first_reject_time is not None
            else "-"
        )
        lines.append(
            f"  {timeline.resource:<16} {timeline.grants:>7} {timeline.rejects:>8} "
            f"{timeline.rejection_rate:>9.3f} {timeline.peak_utilization:>10.3f} "
            f"{first:>12}"
        )
    return lines


def _fault_lines(doc: analyze.TraceDocument) -> List[str]:
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


def _bottleneck_lines(doc: analyze.TraceDocument, k: int) -> List[str]:
    reports = analyze.top_bottlenecks(doc, k)
    if not reports:
        return []
    lines = [
        f"top-{len(reports)} bottleneck resources:",
        f"  {'resource':<16} {'score':>7} {'plan_btl':>9} {'adm_fail':>9} "
        f"{'brk_rej':>8} {'mean_psi':>9}",
    ]
    for report in reports:
        lines.append(
            f"  {report.resource:<16} {report.score:>7g} {report.planned_bottleneck:>9} "
            f"{report.admission_failures:>9} {report.broker_rejects:>8} "
            f"{report.mean_psi:>9.3f}"
        )
    return lines


def _cmd_summarize(args: argparse.Namespace) -> int:
    doc = _load_trace(args.trace)
    title = f"trace summary: {args.trace} (schema v{doc.schema_version})"
    sections = [
        [title, "=" * len(title)],
        _meta_lines(doc),
        _span_lines(doc),
        _event_lines(doc),
        _fault_lines(doc),
        _broker_lines(doc, limit=args.top),
        _bottleneck_lines(doc, args.top),
    ]
    _print([line for section in sections if section for line in section + [""]][:-1])
    return 0


# -- critical-path -------------------------------------------------------------


def _cmd_critical_path(args: argparse.Namespace) -> int:
    doc = _load_trace(args.trace)
    breakdowns = analyze.critical_path(doc, session=args.session, limit=args.limit)
    if not breakdowns:
        if args.session:
            raise SystemExit(
                f"repro-obs: no establish span for session {args.session!r} in {args.trace}"
            )
        _print(["no establish spans in this trace"])
        return 0
    lines: List[str] = []
    for breakdown in breakdowns:
        lines.append(
            f"session {breakdown.session} ({breakdown.service or '?'}, "
            f"{breakdown.outcome or '?'}): {1e6 * breakdown.total_seconds:.1f} us total, "
            f"critical phase: {breakdown.critical_phase}"
        )
        for name, seconds in sorted(
            breakdown.phase_seconds.items(), key=lambda item: -item[1]
        ):
            share = seconds / breakdown.total_seconds if breakdown.total_seconds else 0.0
            lines.append(f"    {name:<22} {1e6 * seconds:>10.1f} us  {share:>6.1%}")
    totals = analyze.phase_totals(breakdowns)
    if totals:
        lines.append("")
        lines.append(f"aggregate self time over {len(breakdowns)} sessions:")
        for name, seconds in totals.items():
            lines.append(f"    {name:<22} {seconds:>10.4f} s")
    _print(lines)
    return 0


# -- top -----------------------------------------------------------------------


def _cmd_top(args: argparse.Namespace) -> int:
    doc = _load_trace(args.trace)
    lines = _bottleneck_lines(doc, args.k)
    if not lines:
        _print(["no bottleneck signals in this trace"])
        return 0
    broker = _broker_lines(doc, limit=args.k)
    if broker:
        lines += [""] + broker
    faults = _fault_lines(doc)
    if faults:
        lines += [""] + faults
    _print(lines)
    return 0


# -- diff ----------------------------------------------------------------------


def _format_side(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:g}"


def _runner_fingerprint(document: dict) -> Optional[str]:
    """The ledger's runner fingerprint (None for older/trace documents)."""
    runner = document.get("runner")
    if isinstance(runner, dict):
        fingerprint = runner.get("fingerprint")
        return str(fingerprint) if fingerprint else None
    return None


def _timing_baseline_for(document: dict, fingerprint: Optional[str]) -> Optional[dict]:
    """The document's recorded timing baseline for a runner fingerprint."""
    if not fingerprint:
        return None
    baselines = document.get("timing_baselines")
    if isinstance(baselines, dict):
        recorded = baselines.get(fingerprint)
        if isinstance(recorded, dict):
            return recorded
    return None


def _rekey_timing_entries(
    entries, recorded: dict
) -> Tuple[list, int]:
    """Substitute a runner's recorded timing baseline as the base side.

    Timing leaves with a recorded per-fingerprint value compare against
    *that* value (hard gate); timing leaves without one are dropped --
    there is nothing measured on this hardware to hold them to.
    Structural leaves pass through untouched.
    """
    rekeyed = []
    substituted = 0
    for entry in entries:
        if not analyze.is_timing_path(entry.path):
            rekeyed.append(entry)
            continue
        if entry.path in recorded:
            rekeyed.append(
                analyze.DiffEntry(entry.path, float(recorded[entry.path]), entry.new)
            )
            substituted += 1
    return rekeyed, substituted


def _cmd_diff(args: argparse.Namespace) -> int:
    base = _load_document(args.base)
    new = _load_document(args.new)
    entries = analyze.diff_documents(base, new)
    if args.changed_only:
        entries = [e for e in entries if e.base != e.new]
    lines = [f"  {'path':<48} {'base':>12} {'new':>12} {'delta':>12}"]
    for entry in entries:
        delta = entry.delta
        lines.append(
            f"  {entry.path:<48} {_format_side(entry.base):>12} "
            f"{_format_side(entry.new):>12} "
            f"{'-' if delta is None else format(delta, '+g'):>12}"
        )
    _print(lines)
    if not args.gate:
        return 0
    ignore_timing = args.ignore_timing
    gated = entries
    if not ignore_timing:
        # Timing comparisons are keyed on the runner fingerprint.  Same
        # fingerprint: wall clocks gate hard at --timing-tolerance.
        # Different fingerprints: the baseline may still *record* a
        # timing baseline for the new runner's fingerprint
        # (``timing_baselines``), and those leaves gate hard against it;
        # without a recorded baseline the wall-clock deltas are
        # meaningless and drop out of the gate.  Documents where
        # *neither* side records a runner (traces, pre-fingerprint
        # ledgers) keep the historical behavior: timings gate unless
        # --ignore-timing says otherwise.
        base_runner = _runner_fingerprint(base)
        new_runner = _runner_fingerprint(new)
        if (base_runner or new_runner) and base_runner != new_runner:
            recorded = _timing_baseline_for(base, new_runner)
            if recorded is None:
                ignore_timing = True
                _print(
                    [
                        "gate: runner fingerprints differ "
                        f"({base_runner or 'unrecorded'} vs {new_runner or 'unrecorded'}) "
                        "and the baseline records no timing baseline for "
                        f"{new_runner or 'this runner'}; "
                        "timing leaves excluded from the gate"
                    ]
                )
            else:
                gated, substituted = _rekey_timing_entries(entries, recorded)
                _print(
                    [
                        "gate: runner fingerprints differ; "
                        f"{substituted} timing leaves gated against the baseline "
                        f"recorded for {new_runner}"
                    ]
                )
    regressions = analyze.gate_diff(
        gated,
        tolerance=args.tolerance,
        ignore_timing=ignore_timing,
        timing_tolerance=None if ignore_timing else args.timing_tolerance,
    )
    if not regressions:
        _print([f"gate: OK ({len(gated)} leaves within +-{args.tolerance:.0%})"])
        return 0
    _print([f"gate: {len(regressions)} leaves outside the +-{args.tolerance:.0%} band:"])
    for entry in regressions:
        relative = entry.relative
        detail = "present on one side only" if relative is None else f"{relative:+.1%}"
        _print([f"  {entry.path}: {_format_side(entry.base)} -> "
                f"{_format_side(entry.new)} ({detail})"])
    return 1


# -- watch / monitor-report (online monitoring plane) --------------------------


def _monitor_events(doc: analyze.TraceDocument, threshold: Optional[float]):
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


def _cmd_watch(args: argparse.Namespace) -> int:
    doc = _load_trace(args.trace)
    if not doc.events:
        _print(["no event log in this trace"])
        return 0
    events, replayed, _monitor = _monitor_events(doc, args.threshold)
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
            lines.append(f"  ... (truncated at {args.limit} lines; raise --limit)")
            break
    if shown == 0:
        lines.append("  (no monitoring events)")
    _print(lines)
    return 0


def _cmd_monitor_report(args: argparse.Namespace) -> int:
    doc = _load_trace(args.trace)
    lines: List[str] = []
    monitoring = doc.monitoring
    source = "recorded by the run's live monitor"
    if not monitoring:
        if not doc.events:
            _print(
                [
                    "no monitoring section and no event log in this trace; "
                    "nothing to report"
                ]
            )
            return 0
        _events, _replayed, monitor = _monitor_events(doc, args.threshold)
        monitoring = monitor.report() if monitor is not None else {}
        source = "replayed offline over the recorded event log"
    title = f"monitoring report: {args.trace} ({source})"
    lines += [title, "=" * len(title), ""]
    for key in (
        "events_seen",
        "drift_detected",
        "sessions_tracked",
        "rejection_rate",
        "qos_ewma",
        "psi_ewma",
    ):
        if key in monitoring:
            value = monitoring[key]
            text = "-" if value is None else (
                f"{value:.4g}" if isinstance(value, float) else str(value)
            )
            lines.append(f"  {key:<22} {text}")
    adaptation = monitoring.get("adaptation")
    if isinstance(adaptation, dict):
        lines += ["", "adaptation loop:"]
        lines.append(f"  triggered              {adaptation.get('triggered', 0)}")
        for outcome, count in sorted((adaptation.get("outcomes") or {}).items()):
            lines.append(f"  outcome {outcome:<14} {count}")
        lines.append(
            f"  sessions renegotiated  {adaptation.get('sessions_renegotiated', 0)}"
        )
        lines.append(f"  sessions dropped       {adaptation.get('sessions_dropped', 0)}")
    brokers = monitoring.get("brokers")
    if isinstance(brokers, dict) and brokers:
        lines += [
            "",
            "per-broker estimators:",
            f"  {'resource':<16} {'ewma_avail':>11} {'alpha':>7} {'psi':>7} "
            f"{'rej_rate':>9} {'updates':>8}",
        ]
        for resource in sorted(brokers):
            digest = brokers[resource]

            def cell(key, fmt="{:.4g}"):
                value = digest.get(key)
                return "-" if value is None else fmt.format(value)

            lines.append(
                f"  {resource:<16} {cell('ewma_available'):>11} {cell('alpha'):>7} "
                f"{cell('psi'):>7} {cell('rejection_rate'):>9} "
                f"{digest.get('updates', 0):>8}"
            )
    summary = analyze.adaptation_summary(doc)
    if not summary.empty:
        lines += ["", "causal chains (from the event log):"]
        lines.append(f"  drift detections       {summary.total_drifts}")
        lines.append(f"  renegotiations         {summary.total_renegotiations}")
        lines.append(f"  causally paired        {len(summary.causal_pairs)}")
        if summary.unmatched_renegotiations:
            lines.append(
                f"  unmatched              {summary.unmatched_renegotiations}"
            )
        for session, trigger_seq, reneg_seq in summary.causal_pairs[: args.pairs]:
            lines.append(
                f"    {session}: trigger seq {trigger_seq} -> renegotiated seq {reneg_seq}"
            )
        if len(summary.causal_pairs) > args.pairs:
            lines.append(
                f"    ... ({len(summary.causal_pairs) - args.pairs} more; raise --pairs)"
            )
    _print(lines)
    return 0


# -- export-prom ---------------------------------------------------------------


def _cmd_export_prom(args: argparse.Namespace) -> int:
    doc = _load_trace(args.trace)
    if not doc.metrics:
        raise SystemExit(f"repro-obs: {args.trace} carries no metrics snapshot")
    text = snapshot_exposition(doc.metrics, prefix=args.prefix)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# -- stitch --------------------------------------------------------------------


def _cmd_stitch(args: argparse.Namespace) -> int:
    client = _load_trace(args.client)
    daemon = _load_trace(args.daemon)
    report = analyze.stitch_traces(client, daemon)
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
        lines.append(
            f"  {'request':<22} {'session':<14} {'outcome':<12} "
            f"{'client_ms':>10} {'daemon_ms':>10} {'spans':>6} {'events':>7}"
        )
        shown = report.timelines if args.limit is None else report.timelines[: args.limit]
        for timeline in shown:
            lines.append(
                f"  {(timeline.request_id or timeline.trace_id[:16]):<22} "
                f"{(timeline.session or '-'):<14} {(timeline.outcome or '-'):<12} "
                f"{1e3 * timeline.client_seconds:>10.2f} "
                f"{1e3 * timeline.daemon_seconds:>10.2f} "
                f"{len(timeline.client_spans) + len(timeline.daemon_spans):>6} "
                f"{len(timeline.daemon_events):>7}"
            )
        if args.limit is not None and len(report.timelines) > args.limit:
            lines.append(
                f"  ... ({len(report.timelines) - args.limit} more; raise --limit)"
            )
    for trace_id in report.orphan_client:
        lines.append(f"  ORPHAN client trace {trace_id}: no daemon-side telemetry")
    _print(lines)
    if args.require_complete and not report.complete:
        _print(
            [
                f"stitch: INCOMPLETE -- {len(report.orphan_client)} client "
                "request(s) have no daemon-side spans or events"
            ]
        )
        return 1
    return 0


# -- reconcile -----------------------------------------------------------------


def _cmd_reconcile(args: argparse.Namespace) -> int:
    from repro.faults.invariants import reconcile_shard_events

    names = [Path(path).name for path in args.traces]
    labels = [
        name if names.count(name) == 1 else path
        for name, path in zip(names, args.traces)
    ]
    documents = {
        label: _load_trace(path) for label, path in zip(labels, args.traces)
    }
    report = reconcile_shard_events(
        {label: doc.events for label, doc in documents.items()},
        partial={label for label, doc in documents.items() if doc.events_dropped},
    )
    _print(report.describe().splitlines())
    return 0 if report.ok else 1


# -- dashboard (live cluster telemetry) ----------------------------------------


def _parse_target(text: str) -> Tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(
            f"repro-obs: malformed target {text!r}; expected HOST:PORT"
        )
    return host, int(port_text)


def _load_burn_slos(args: argparse.Namespace) -> list:
    from repro.obs.burn import default_cluster_slos
    from repro.obs.slo import BurnRateSLO

    if not args.slo_config:
        return default_cluster_slos(
            short_window=args.short_window,
            long_window=args.long_window,
            budget_window=args.budget_window,
        )
    try:
        payload = json.loads(Path(args.slo_config).read_text())
    except FileNotFoundError:
        raise SystemExit(f"repro-obs: no such file: {args.slo_config}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"repro-obs: {args.slo_config} is not valid JSON: {exc}")
    entries = payload.get("slos") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise SystemExit(
            f"repro-obs: {args.slo_config} must be a JSON list of SLO "
            'objects (or {"slos": [...]})'
        )
    try:
        return [BurnRateSLO.from_dict(entry) for entry in entries]
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"repro-obs: {args.slo_config}: {exc}")


def _quantile_cell(histogram, q: float) -> str:
    if histogram is None or histogram.count <= 0:
        return "-"
    return f"{1e3 * histogram.quantile(q):.1f}"


def _dashboard_lines(store, statuses, log, result, sweep: int,
                     window: float) -> List[str]:
    now = result.ts
    total = result.reachable + result.unreachable
    lines = [
        f"cluster telemetry  sweep {sweep}  "
        f"{result.reachable}/{total} targets up  "
        f"(rates over the last {window:g}s)",
        "",
        f"  {'target':<22} {'role':<15} {'shard':<11} {'up':>3} "
        f"{'admit/s':>8} {'rej/s':>7} {'sess':>6} {'leases':>7} "
        f"{'p50ms':>7} {'p99ms':>7}",
    ]
    for meta in sorted(store.targets(), key=lambda m: (m.role, m.target)):
        if meta.role == "cluster-router":
            admit = store.counter_rate(
                ['repro_cluster_admissions_total{verdict="established"}'],
                window=window, now=now, target=meta.target,
            )
            reject = store.counter_rate(
                ['repro_cluster_admissions_total{verdict="rejected_merit"}',
                 'repro_cluster_admissions_total{verdict="rejected_infra"}'],
                window=window, now=now, target=meta.target,
            )
            sessions = store.latest(meta.target, "repro_cluster_active_sessions")
            leases = None
            phases = None
        else:
            admit = store.counter_rate(
                ['repro_daemon_sessions_total{outcome="established"}'],
                window=window, now=now, target=meta.target,
            )
            reject = store.counter_rate(
                ['repro_daemon_sessions_total{outcome="rejected"}'],
                window=window, now=now, target=meta.target,
            )
            sessions = store.latest(meta.target, "repro_daemon_active_sessions")
            leases = store.latest(
                meta.target,
                'repro_daemon_lease_operations_total{op="committed"}',
            )
            phases = store.histogram_window(
                "repro_daemon_admission_phase_seconds", window=window,
                now=now, target=meta.target, labels={"phase": "plan"},
            )
        lines.append(
            f"  {meta.target:<22} {meta.role or '?':<15} "
            f"{meta.shard or '-':<11} {'1' if meta.up else '0':>3} "
            f"{admit:>8.2f} {reject:>7.2f} "
            f"{'-' if sessions is None else format(int(sessions), 'd'):>6} "
            f"{'-' if leases is None else format(int(leases), 'd'):>7} "
            f"{_quantile_cell(phases, 0.50):>7} "
            f"{_quantile_cell(phases, 0.99):>7}"
        )
    lines += [
        "",
        f"  {'slo':<26} {'kind':<13} {'state':<8} {'burn_s':>8} "
        f"{'burn_l':>8} {'thresh':>7} {'budget':>8}",
    ]
    for status in statuses:
        lines.append(
            f"  {status.slo:<26} {status.kind:<13} {status.state:<8} "
            f"{status.burn_short:>8.2f} {status.burn_long:>8.2f} "
            f"{status.threshold:>7.1f} {status.budget_remaining:>7.0%}"
        )
    alerts = [e for e in log if e.kind.startswith("slo.")]
    if alerts:
        lines += ["", "alerts:"]
        for event in alerts[-6:]:
            attributes = event.attributes
            detail = " ".join(
                f"{key}={attributes[key]}"
                for key in ("state", "burn_short", "burn_long",
                            "budget_remaining")
                if key in attributes
            )
            lines.append(
                f"  [{event.wall:>7.1f}s] {event.kind:<22} "
                f"{attributes.get('slo', '-'):<26} {detail}"
            )
    unreachable = [m for m in store.targets() if not m.up]
    if unreachable:
        lines += [""] + [
            f"  DOWN {meta.target}: {meta.last_error or 'unreachable'} "
            f"(x{meta.consecutive_failures})"
            for meta in unreachable
        ]
    return lines


def _dashboard_snapshot(store, engine, log, sweeps: int,
                        interval: float) -> dict:
    return {
        "schema": "telemetry-dashboard/1",
        "sweeps": sweeps,
        "interval": interval,
        "targets": [
            {
                "target": meta.target,
                "role": meta.role,
                "shard": meta.shard,
                "up": meta.up,
                "consecutive_failures": meta.consecutive_failures,
                "last_error": meta.last_error,
            }
            for meta in store.targets()
        ],
        "slos": [status.to_dict() for status in engine.last_statuses],
        "min_budget": {
            slo.name: engine.min_budget(slo.name) for slo in engine.slos
        },
        "firing": engine.firing(),
        "events": log.to_dicts(),
        "event_counts": {kind: log.count(kind) for kind in log.kinds()},
    }


def _cmd_dashboard(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import events as _events
    from repro.obs.burn import BurnRateEngine
    from repro.obs.telemetry import TelemetryScraper, TimeSeriesStore

    targets = [_parse_target(text) for text in args.targets]
    slos = _load_burn_slos(args)
    window = max(slo.long_window for slo in slos) if slos else 20.0
    store = TimeSeriesStore()
    log = _events.EventLog()
    engine = BurnRateEngine(slos, store, event_log=log)
    scraper = TelemetryScraper(targets, store, interval=args.interval)
    sweeps = {"count": 0}

    def on_scrape(result) -> None:
        sweeps["count"] += 1
        statuses = engine.evaluate(result.ts)
        if args.quiet:
            return
        frame = _dashboard_lines(
            store, statuses, log, result, sweeps["count"], window
        )
        if not args.no_ansi:
            sys.stdout.write("\x1b[2J\x1b[H")
        sys.stdout.write("\n".join(frame) + "\n")
        sys.stdout.flush()

    async def _run() -> None:
        # SIGTERM/SIGINT stop the sweep loop cleanly so the snapshot
        # below is still written -- CI backgrounds the dashboard and
        # kill -TERMs it once the scenario (and its recovery) is over.
        import signal

        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):
                pass
        run_task = asyncio.create_task(
            scraper.run(iterations=args.iterations, on_scrape=on_scrape)
        )
        stop_task = asyncio.create_task(stop.wait())
        done, pending = await asyncio.wait(
            {run_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        if run_task in done:
            await run_task
        await scraper.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    if args.snapshot_json:
        document = _dashboard_snapshot(
            store, engine, log, sweeps["count"], args.interval
        )
        target = Path(args.snapshot_json)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        _print([f"dashboard snapshot written to {args.snapshot_json}"])
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Analyze exported observability trace documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize", help="meta, timings, events, broker and bottleneck overview"
    )
    summarize.add_argument("trace", help="trace JSON document")
    summarize.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="rows in the broker/bottleneck tables (default 5)",
    )
    summarize.set_defaults(func=_cmd_summarize)

    critical = sub.add_parser(
        "critical-path", help="per-session phase self-time breakdown"
    )
    critical.add_argument("trace", help="trace JSON document")
    critical.add_argument(
        "--session", default=None, help="restrict to one session id"
    )
    critical.add_argument(
        "--limit", type=int, default=10, metavar="N",
        help="keep only the N slowest sessions (default 10)",
    )
    critical.set_defaults(func=_cmd_critical_path)

    top = sub.add_parser("top", help="top-K contended (bottleneck) resources")
    top.add_argument("trace", help="trace JSON document")
    top.add_argument(
        "-k", type=int, default=5, help="number of resources to report (default 5)"
    )
    top.set_defaults(func=_cmd_top)

    diff = sub.add_parser(
        "diff", help="numeric deltas between two trace/ledger documents"
    )
    diff.add_argument("base", help="baseline JSON document")
    diff.add_argument("new", help="new JSON document")
    diff.add_argument(
        "--changed-only", action="store_true", help="hide identical leaves"
    )
    diff.add_argument(
        "--gate", action="store_true",
        help="exit 1 when any leaf falls outside the tolerance band",
    )
    diff.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRAC",
        help="symmetric relative band for --gate (default 0.25 = +-25%%)",
    )
    diff.add_argument(
        "--timing-tolerance", type=float, default=0.5, metavar="FRAC",
        help="runner-keyed relative band for wall-clock leaves (paths "
        "containing " + ", ".join(analyze.TIMING_FRAGMENTS) + "); applied "
        "when both ledgers share a runner fingerprint, or against the "
        "baseline's recorded timing_baselines entry for the new runner "
        "(default 0.5 = +-50%%)",
    )
    diff.add_argument(
        "--ignore-timing", action="store_true",
        help="exclude wall-clock leaves (paths containing "
        + ", ".join(analyze.TIMING_FRAGMENTS)
        + ") from the gate",
    )
    diff.set_defaults(func=_cmd_diff)

    watch = sub.add_parser(
        "watch",
        help="chronological timeline of monitoring-plane events "
        "(broker digests, drift, renegotiations)",
    )
    watch.add_argument("trace", help="trace JSON document")
    watch.add_argument(
        "--kind", default=None,
        help="show only this event kind (e.g. session.drift)",
    )
    watch.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="replay detection offline with this drift threshold instead of "
        "using the recorded monitor events",
    )
    watch.add_argument(
        "--limit", type=int, default=200,
        help="maximum timeline lines to print (default 200; 0 = unlimited)",
    )
    watch.set_defaults(func=_cmd_watch)

    monitor_report = sub.add_parser(
        "monitor-report",
        help="monitoring-plane summary: estimators, adaptation outcomes, "
        "and drift->renegotiation causal chains",
    )
    monitor_report.add_argument("trace", help="trace JSON document")
    monitor_report.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="replay detection offline with this drift threshold instead of "
        "using the recorded monitoring section",
    )
    monitor_report.add_argument(
        "--pairs", type=int, default=10,
        help="causal drift->renegotiation pairs to list (default 10)",
    )
    monitor_report.set_defaults(func=_cmd_monitor_report)

    prom = sub.add_parser(
        "export-prom", help="Prometheus text exposition of the metrics snapshot"
    )
    prom.add_argument("trace", help="trace JSON document")
    prom.add_argument(
        "-o", "--output", default=None, help="write here instead of stdout"
    )
    prom.add_argument(
        "--prefix", default=DEFAULT_PREFIX,
        help=f"metric name prefix (default {DEFAULT_PREFIX!r})",
    )
    prom.set_defaults(func=_cmd_export_prom)

    stitch = sub.add_parser(
        "stitch",
        help="merge client- and daemon-side trace documents into one "
        "cross-process timeline per request (joined on trace_id)",
    )
    stitch.add_argument("client", help="client-side trace JSON (loadgen --trace-json)")
    stitch.add_argument(
        "daemon", help="daemon-side trace JSON (flight-recorder dump or export)"
    )
    stitch.add_argument(
        "-o", "--output", default=None,
        help="write the merged stitched-trace/1 JSON document here",
    )
    stitch.add_argument(
        "--limit", type=int, default=50, metavar="N",
        help="per-request rows to print (default 50)",
    )
    stitch.add_argument(
        "--require-complete", action="store_true",
        help="exit 1 when any client request lacks daemon-side telemetry",
    )
    stitch.set_defaults(func=_cmd_stitch)

    reconcile = sub.add_parser(
        "reconcile",
        help="verify global capacity conservation across per-shard event "
        "logs (flight dumps or trace documents, one per shard)",
    )
    reconcile.add_argument(
        "traces", nargs="+", metavar="TRACE",
        help="one event-carrying JSON document per shard",
    )
    reconcile.set_defaults(func=_cmd_reconcile)

    dashboard = sub.add_parser(
        "dashboard",
        help="live cluster telemetry: scrape shard/router /metrics on an "
        "interval, evaluate burn-rate SLOs, render admission rates, "
        "phase latencies and alerts",
    )
    dashboard.add_argument(
        "targets", nargs="+", metavar="HOST:PORT",
        help="shard daemons and/or the cluster router to scrape",
    )
    dashboard.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="scrape interval (default 1.0)",
    )
    dashboard.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N sweeps (default: run until interrupted)",
    )
    dashboard.add_argument(
        "--snapshot-json", default=None, metavar="PATH",
        help="on exit, write the final dashboard state -- targets, SLO "
        "statuses, budget low-water marks, every slo.* event -- as JSON "
        "(the CI artifact)",
    )
    dashboard.add_argument(
        "--slo-config", default=None, metavar="PATH",
        help="JSON list of BurnRateSLO objects replacing the built-in "
        "cluster SLOs (see docs/observability.md for the schema)",
    )
    dashboard.add_argument(
        "--short-window", type=float, default=6.0, metavar="SECONDS",
        help="short burn window for the built-in SLOs (default 6)",
    )
    dashboard.add_argument(
        "--long-window", type=float, default=20.0, metavar="SECONDS",
        help="long burn window for the built-in SLOs (default 20)",
    )
    dashboard.add_argument(
        "--budget-window", type=float, default=30.0, metavar="SECONDS",
        help="rolling error-budget window for the built-in SLOs (default 30)",
    )
    dashboard.add_argument(
        "--no-ansi", action="store_true",
        help="append frames as plain text instead of clearing the screen",
    )
    dashboard.add_argument(
        "--quiet", action="store_true",
        help="render no frames (useful with --snapshot-json in CI)",
    )
    dashboard.set_defaults(func=_cmd_dashboard)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
