"""Trace analysis: answer "why" questions from an exported trace document.

Loads the JSON trace documents written by :func:`repro.obs.export
.write_trace_json` (schema v4, with request-scoped ``trace_id``/
``request_id`` stamps on spans and events) and computes:

* :func:`critical_path` -- per-session wall-time breakdown by phase
  *self time* (time in a span minus its children), the "where did this
  session's establishment latency go" view;
* :func:`broker_timelines` -- per-resource grant/reject/release counts
  and a utilization timeline over the simulation clock, reconstructed
  from ``broker.*`` events;
* :func:`top_bottlenecks` -- the top-K contended resources, scored from
  how often each was a plan's psi bottleneck, lost a phase-3 admission
  race, or rejected a broker request;
* :func:`diff_documents` / :func:`gate_documents` -- numeric deltas
  between two documents (trace or benchmark-ledger JSON) and the gate
  over them, the engine behind ``repro-obs diff`` and the CI benchmark
  regression gate;
* :func:`stitch_traces` -- merge a *client-side* trace document (from
  the load generator or any traced ``ServiceClient`` caller) with a
  *daemon-side* one (a flight-recorder dump, or the daemon's exported
  trace) into one cross-process timeline per request, joined on the
  propagated ``trace_id`` -- the engine behind ``repro-obs stitch``.

Everything here consumes plain loaded JSON -- no live tracer or registry
is needed, so post-mortem analysis works on any exported artifact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.events import ReservationEvent
from repro.obs.export import TRACE_SCHEMA_VERSION

__all__ = [
    "AdaptationSummary",
    "BottleneckReport",
    "BrokerTimeline",
    "DiffEntry",
    "FaultSummary",
    "Gate",
    "RequestTimeline",
    "SessionBreakdown",
    "StitchReport",
    "TraceDocument",
    "TraceFormatError",
    "adaptation_summary",
    "broker_timelines",
    "critical_path",
    "diff_documents",
    "fault_summary",
    "gate_diff",
    "gate_documents",
    "is_timing_path",
    "load_trace",
    "stitch_traces",
    "top_bottlenecks",
]

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """The document is not a loadable trace/ledger JSON."""


@dataclass
class TraceDocument:
    """One loaded trace document.

    Optional sections a document omits load empty: no event log gives
    ``events == []``, no online monitoring plane ``monitoring == {}``.
    """

    schema_version: int
    meta: Dict[str, object] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    span_totals: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, dict] = field(default_factory=dict)
    events: List[ReservationEvent] = field(default_factory=list)
    events_dropped: int = 0
    monitoring: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceDocument":
        """Load a JSON document of schema :data:`TRACE_SCHEMA_VERSION`.

        Raises :class:`TraceFormatError` for anything else, including a
        v4 document whose sections have the wrong shape.
        """
        if not isinstance(payload, dict) or "schema_version" not in payload:
            raise TraceFormatError(
                "not a trace document: missing the 'schema_version' field"
            )
        version = payload["schema_version"]
        if type(version) is not int or version != TRACE_SCHEMA_VERSION:
            raise TraceFormatError(
                f"unsupported trace schema version {version!r}; "
                f"this build reads version {TRACE_SCHEMA_VERSION}"
            )
        try:
            return cls(
                schema_version=version,
                meta=dict(payload.get("meta", {})),
                spans=list(payload.get("spans", [])),
                span_totals={
                    name: dict(totals)
                    for name, totals in payload.get("span_totals", {}).items()
                },
                metrics=dict(payload.get("metrics", {})),
                events=[
                    ReservationEvent.from_dict(event)
                    for event in payload.get("events", [])
                ],
                events_dropped=int(payload.get("events_dropped", 0)),
                monitoring=dict(payload.get("monitoring", {})),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"malformed trace document: {type(exc).__name__}: {exc}"
            ) from exc

    def counters(self) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` view of the counters."""
        return {
            key: float(entry["value"])
            for key, entry in self.metrics.get("counters", {}).items()
        }

    def counter_total(self, name: str) -> float:
        """Sum of a counter over every label combination."""
        total = 0.0
        for key, value in self.counters().items():
            if key == name or key.startswith(name + "{"):
                total += value
        return total


def load_trace(path: PathLike) -> TraceDocument:
    """Load a trace JSON file (see :meth:`TraceDocument.from_dict`)."""
    payload = json.loads(Path(path).read_text())
    return TraceDocument.from_dict(payload)


# -- critical path -------------------------------------------------------------


@dataclass
class SessionBreakdown:
    """Where one session-establishment attempt spent its wall time."""

    session: str
    service: str
    outcome: str
    start: float
    total_seconds: float
    #: span name -> summed *self time* (duration minus children) within
    #: this session's establish tree, seconds.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def critical_phase(self) -> str:
        """The phase with the largest self time ("" when empty)."""
        if not self.phase_seconds:
            return ""
        return max(self.phase_seconds.items(), key=lambda item: (item[1], item[0]))[0]


def critical_path(
    doc: TraceDocument,
    *,
    session: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[SessionBreakdown]:
    """Per-session phase breakdowns, slowest establishment first.

    Every ``establish`` span roots one session attempt; each span in its
    subtree contributes its *self time* (duration minus direct children)
    under its own name, the root's overhead included under
    ``establish``.  ``session`` restricts to one session id; ``limit``
    keeps only the N slowest.
    """
    children: Dict[int, List[dict]] = {}
    for record in doc.spans:
        parent = record.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(record)

    breakdowns: List[SessionBreakdown] = []
    for record in doc.spans:
        if record["name"] != "establish":
            continue
        attributes = record.get("attributes", {})
        session_id = str(attributes.get("session", f"span-{record['index']}"))
        if session is not None and session_id != session:
            continue
        phase_seconds: Dict[str, float] = {}
        stack = [record]
        while stack:
            current = stack.pop()
            kids = children.get(current["index"], [])
            self_time = current["duration"] - sum(k["duration"] for k in kids)
            phase_seconds[current["name"]] = phase_seconds.get(
                current["name"], 0.0
            ) + max(self_time, 0.0)
            stack.extend(kids)
        breakdowns.append(
            SessionBreakdown(
                session=session_id,
                service=str(attributes.get("service", "")),
                outcome=str(attributes.get("outcome", "")),
                start=float(record.get("start", 0.0)),
                total_seconds=float(record["duration"]),
                phase_seconds=phase_seconds,
            )
        )
    breakdowns.sort(key=lambda b: (-b.total_seconds, b.session))
    if limit is not None:
        breakdowns = breakdowns[:limit]
    return breakdowns


def phase_totals(breakdowns: Sequence[SessionBreakdown]) -> Dict[str, float]:
    """Summed self time per phase over a set of session breakdowns."""
    totals: Dict[str, float] = {}
    for breakdown in breakdowns:
        for name, seconds in breakdown.phase_seconds.items():
            totals[name] = totals.get(name, 0.0) + seconds
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


# -- broker timelines ----------------------------------------------------------


@dataclass
class BrokerTimeline:
    """One resource's admission story over the simulation clock."""

    resource: str
    grants: int = 0
    rejects: int = 0
    releases: int = 0
    probes: int = 0
    peak_utilization: float = 0.0
    first_reject_time: Optional[float] = None
    #: (sim time, utilization) after each granting/releasing event.
    utilization_points: List[Tuple[float, float]] = field(default_factory=list)
    #: (sim time, requested, available) of each rejection.
    reject_points: List[Tuple[float, float, float]] = field(default_factory=list)

    @property
    def attempts(self) -> int:
        """Reservation attempts seen (grants + rejects)."""
        return self.grants + self.rejects

    @property
    def rejection_rate(self) -> float:
        """Fraction of reservation attempts rejected (0 when none)."""
        return self.rejects / self.attempts if self.attempts else 0.0


def broker_timelines(doc: TraceDocument) -> Dict[str, BrokerTimeline]:
    """Per-resource utilization/rejection timelines from ``broker.*`` events.

    Returns an empty mapping for a document without an event log.
    """
    timelines: Dict[str, BrokerTimeline] = {}
    ordered = sorted(
        (e for e in doc.events if e.kind.startswith("broker.") and e.resource),
        key=lambda e: (e.time if e.time is not None else math.inf, e.seq),
    )
    for event in ordered:
        timeline = timelines.get(event.resource)
        if timeline is None:
            timeline = timelines[event.resource] = BrokerTimeline(event.resource)
        attributes = event.attributes
        if event.kind == "broker.probe":
            timeline.probes += 1
            continue
        utilization = attributes.get("utilization")
        if event.kind == "broker.grant":
            timeline.grants += 1
        elif event.kind == "broker.release":
            timeline.releases += 1
        elif event.kind == "broker.reject":
            timeline.rejects += 1
            if timeline.first_reject_time is None:
                timeline.first_reject_time = event.time
            timeline.reject_points.append(
                (
                    event.time if event.time is not None else math.nan,
                    float(attributes.get("requested", 0.0)),
                    float(attributes.get("available", 0.0)),
                )
            )
            continue
        if utilization is not None and event.time is not None:
            utilization = float(utilization)
            timeline.utilization_points.append((event.time, utilization))
            timeline.peak_utilization = max(timeline.peak_utilization, utilization)
    return dict(sorted(timelines.items()))


# -- bottleneck ranking --------------------------------------------------------


@dataclass
class BottleneckReport:
    """How often (and how) one resource constrained the system."""

    resource: str
    #: Times a computed plan's psi bottleneck was this resource.
    planned_bottleneck: int = 0
    #: Phase-3 admission races lost on this resource (whole-session kills).
    admission_failures: int = 0
    #: Raw broker-level rejections.
    broker_rejects: int = 0
    #: Mean psi of the plans bottlenecked on this resource.
    mean_psi: float = 0.0
    _psi_sum: float = 0.0

    @property
    def score(self) -> float:
        """Severity: session kills weigh double plan-time pressure."""
        return (
            self.planned_bottleneck
            + 2.0 * self.admission_failures
            + 2.0 * self.broker_rejects
        )


def top_bottlenecks(doc: TraceDocument, k: int = 5) -> List[BottleneckReport]:
    """The top-``k`` contended resources, most severe first.

    Scored from the causal event log: every ``session.planned`` (and
    ``session.admitted``) names the plan's psi bottleneck; every
    ``session.rejected(reason=admission_failed)`` names the resource
    that lost the phase-3 race; every ``broker.reject`` is a raw
    admission refusal.  A document without an event log yields an empty
    list.
    """
    reports: Dict[str, BottleneckReport] = {}

    def report_for(resource: str) -> BottleneckReport:
        report = reports.get(resource)
        if report is None:
            report = reports[resource] = BottleneckReport(resource)
        return report

    for event in doc.events:
        if event.kind == "session.planned":
            bottleneck = event.attributes.get("bottleneck")
            if bottleneck:
                report = report_for(str(bottleneck))
                report.planned_bottleneck += 1
                report._psi_sum += float(event.attributes.get("psi", 0.0))
        elif event.kind == "session.rejected":
            if event.attributes.get("reason") == "admission_failed" and event.resource:
                report_for(event.resource).admission_failures += 1
        elif event.kind == "broker.reject" and event.resource:
            report_for(event.resource).broker_rejects += 1
    for report in reports.values():
        if report.planned_bottleneck:
            report.mean_psi = report._psi_sum / report.planned_bottleneck
    ranked = sorted(reports.values(), key=lambda r: (-r.score, r.resource))
    return ranked[: max(k, 0)]


# -- fault-injection summary ---------------------------------------------------


@dataclass
class FaultSummary:
    """The fault/recovery story of one run, from its ``fault.*``,
    ``segment.*``, ``session.replanned`` and ``lease.expired`` events."""

    #: fault kind -> number of injected faults that fired.
    injected: Dict[str, int] = field(default_factory=dict)
    #: protocol phase -> timeouts the coordinator saw there.
    timeouts: Dict[str, int] = field(default_factory=dict)
    #: protocol phase -> bounded retries spent there.
    retries: Dict[str, int] = field(default_factory=dict)
    #: re-plan reason -> count (``admission_failed`` / ``host_unreachable``).
    replans: Dict[str, int] = field(default_factory=dict)
    #: orphaned leases the reaper reclaimed.
    leases_expired: int = 0
    #: sessions rejected because a host stayed unreachable.
    unreachable_rejections: int = 0

    @property
    def total_injected(self) -> int:
        """All injected faults, over every kind."""
        return sum(self.injected.values())

    @property
    def empty(self) -> bool:
        """True when the run saw no fault activity at all."""
        return (
            not self.injected
            and not self.timeouts
            and not self.retries
            and not self.replans
            and self.leases_expired == 0
        )


def fault_summary(doc: TraceDocument) -> FaultSummary:
    """Aggregate the fault-injection and recovery events of a document.

    Returns an all-zero summary for fault-free (or event-less)
    documents, so callers can unconditionally ask and print only when
    non-empty.
    """
    summary = FaultSummary()
    for event in doc.events:
        if event.kind == "fault.injected":
            kind = str(event.attributes.get("fault", "unknown"))
            summary.injected[kind] = summary.injected.get(kind, 0) + 1
        elif event.kind == "segment.timeout":
            phase = str(event.attributes.get("phase", "unknown"))
            summary.timeouts[phase] = summary.timeouts.get(phase, 0) + 1
        elif event.kind == "segment.retry":
            phase = str(event.attributes.get("phase", "unknown"))
            summary.retries[phase] = summary.retries.get(phase, 0) + 1
        elif event.kind == "session.replanned":
            reason = str(event.attributes.get("reason", "unknown"))
            summary.replans[reason] = summary.replans.get(reason, 0) + 1
        elif event.kind == "lease.expired":
            summary.leases_expired += 1
        elif (
            event.kind == "session.rejected"
            and event.attributes.get("reason") == "host_unreachable"
        ):
            summary.unreachable_rejections += 1
    summary.injected = dict(sorted(summary.injected.items()))
    summary.timeouts = dict(sorted(summary.timeouts.items()))
    summary.retries = dict(sorted(summary.retries.items()))
    summary.replans = dict(sorted(summary.replans.items()))
    return summary


# -- adaptation (monitoring-plane) summary -------------------------------------


@dataclass
class AdaptationSummary:
    """The §5 adaptation story of one run, from its monitoring events
    (``broker.observed``, ``session.drift``, ``session.renegotiated``)."""

    #: per-broker ``broker.observed`` digests seen.
    observations: int = 0
    #: resource -> drift detections against it.
    drifts: Dict[str, int] = field(default_factory=dict)
    #: renegotiation outcome -> count (upgraded/downgraded/unchanged/...).
    renegotiations: Dict[str, int] = field(default_factory=dict)
    #: (session, trigger seq, renegotiation seq) causal pairs -- every
    #: renegotiation matched to the latest prior drift that names the
    #: same session.
    causal_pairs: List[Tuple[str, int, int]] = field(default_factory=list)
    #: renegotiations with no prior drift on their session.
    unmatched_renegotiations: int = 0

    @property
    def total_drifts(self) -> int:
        """All drift detections, over every resource."""
        return sum(self.drifts.values())

    @property
    def total_renegotiations(self) -> int:
        """All renegotiations, over every outcome."""
        return sum(self.renegotiations.values())

    @property
    def empty(self) -> bool:
        """True when the run saw no monitoring-plane activity at all."""
        return (
            self.observations == 0
            and not self.drifts
            and not self.renegotiations
        )


def adaptation_summary(doc: TraceDocument) -> AdaptationSummary:
    """Aggregate the online monitoring-plane events of a document.

    Every ``session.renegotiated`` is causally matched (by session id)
    to the latest earlier ``session.drift`` that triggered it; unmatched
    renegotiations are counted separately so the drift -> renegotiation
    chain is auditable.  Returns an all-zero summary for documents
    without monitoring events.
    """
    summary = AdaptationSummary()
    last_trigger_seq: Dict[str, int] = {}
    for event in doc.events:
        if event.kind == "broker.observed":
            summary.observations += 1
        elif event.kind == "session.drift":
            resource = event.resource or "unknown"
            summary.drifts[resource] = summary.drifts.get(resource, 0) + 1
            if event.session:
                last_trigger_seq[event.session] = event.seq
        elif event.kind == "session.renegotiated":
            outcome = str(event.attributes.get("outcome", "unknown"))
            summary.renegotiations[outcome] = (
                summary.renegotiations.get(outcome, 0) + 1
            )
            trigger = last_trigger_seq.get(event.session or "")
            if trigger is None:
                summary.unmatched_renegotiations += 1
            else:
                summary.causal_pairs.append((event.session, trigger, event.seq))
    summary.drifts = dict(sorted(summary.drifts.items()))
    summary.renegotiations = dict(sorted(summary.renegotiations.items()))
    return summary


# -- cross-process stitching ---------------------------------------------------


@dataclass
class RequestTimeline:
    """One request's story across the service boundary.

    Joined on the propagated ``trace_id``: the client-side spans are the
    caller's view (connect + round trip), the daemon-side spans and
    causal events are what that request made the service do.  Spans are
    plain span dicts (schema v4 shape), oldest first.
    """

    trace_id: str
    request_id: Optional[str] = None
    session: Optional[str] = None
    client_spans: List[dict] = field(default_factory=list)
    daemon_spans: List[dict] = field(default_factory=list)
    daemon_events: List[ReservationEvent] = field(default_factory=list)

    @property
    def client_seconds(self) -> float:
        """The caller-observed wall time: its longest span's duration."""
        return max((float(s.get("duration", 0.0)) for s in self.client_spans), default=0.0)

    @property
    def daemon_seconds(self) -> float:
        """The daemon-observed wall time: its longest span's duration."""
        return max((float(s.get("duration", 0.0)) for s in self.daemon_spans), default=0.0)

    @property
    def outcome(self) -> str:
        """The request's session outcome from its causal events ("" when
        the events carry no ``session.*`` verdict)."""
        for event in reversed(self.daemon_events):
            if event.kind.startswith("session."):
                return event.kind.split(".", 1)[1]
        return ""

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Daemon-side summed duration per span name."""
        totals: Dict[str, float] = {}
        for record in self.daemon_spans:
            name = str(record.get("name", ""))
            totals[name] = totals.get(name, 0.0) + float(record.get("duration", 0.0))
        return totals

    def to_dict(self) -> dict:
        """JSON-compatible representation (the stitched document's shape)."""
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "session": self.session,
            "outcome": self.outcome,
            "client_seconds": self.client_seconds,
            "daemon_seconds": self.daemon_seconds,
            "client_spans": list(self.client_spans),
            "daemon_spans": list(self.daemon_spans),
            "daemon_events": [event.to_dict() for event in self.daemon_events],
        }


@dataclass
class StitchReport:
    """The result of merging a client and a daemon trace document."""

    #: One timeline per linked trace_id, in client send order.
    timelines: List[RequestTimeline] = field(default_factory=list)
    #: Client-side trace_ids with no daemon-side span or event -- the
    #: request never reached (or never finished inside) the daemon's
    #: telemetry window.
    orphan_client: List[str] = field(default_factory=list)
    #: Daemon-side trace_ids with no client-side span -- telemetry from
    #: callers outside the client document (or an untraced caller).
    orphan_daemon: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every client request linked to daemon-side telemetry."""
        return not self.orphan_client

    def to_dict(self) -> dict:
        """JSON-compatible stitched document."""
        return {
            "schema": "stitched-trace/1",
            "requests": [timeline.to_dict() for timeline in self.timelines],
            "orphan_client": list(self.orphan_client),
            "orphan_daemon": list(self.orphan_daemon),
            "complete": self.complete,
        }


def stitch_traces(client: TraceDocument, daemon: TraceDocument) -> StitchReport:
    """Merge client- and daemon-side documents into per-request timelines.

    Every span of the client document stamped with a ``trace_id`` opens
    (or extends) that trace's timeline; the daemon document contributes
    its stamped spans and causal events to the same key.  Client traces
    with no daemon-side telemetry land in ``orphan_client`` (the
    acceptance gate of the CI smoke run), daemon traces with no client
    side in ``orphan_daemon``.  Un-stamped records on either side are
    ignored -- they belong to no request.
    """
    timelines: Dict[str, RequestTimeline] = {}
    client_order: List[str] = []

    def timeline_for(trace_id: str) -> RequestTimeline:
        timeline = timelines.get(trace_id)
        if timeline is None:
            timeline = timelines[trace_id] = RequestTimeline(trace_id)
        return timeline

    for record in client.spans:
        trace_id = record.get("trace_id")
        if not trace_id:
            continue
        if trace_id not in timelines:
            client_order.append(trace_id)
        timeline = timeline_for(trace_id)
        timeline.client_spans.append(record)
        if timeline.request_id is None:
            timeline.request_id = record.get("request_id")
        session = record.get("attributes", {}).get("session")
        if timeline.session is None and session is not None:
            timeline.session = str(session)

    daemon_side = set()
    for record in daemon.spans:
        trace_id = record.get("trace_id")
        if not trace_id:
            continue
        daemon_side.add(trace_id)
        timeline = timeline_for(trace_id)
        timeline.daemon_spans.append(record)
        if timeline.request_id is None:
            timeline.request_id = record.get("request_id")
    for event in daemon.events:
        if not event.trace_id:
            continue
        daemon_side.add(event.trace_id)
        timeline = timeline_for(event.trace_id)
        timeline.daemon_events.append(event)
        if timeline.request_id is None:
            timeline.request_id = event.request_id
        if timeline.session is None and event.session is not None:
            timeline.session = event.session

    client_side = set(client_order)
    linked = [timelines[tid] for tid in client_order if tid in daemon_side]
    orphan_client = [tid for tid in client_order if tid not in daemon_side]
    orphan_daemon = sorted(daemon_side - client_side)
    return StitchReport(
        timelines=linked, orphan_client=orphan_client, orphan_daemon=orphan_daemon
    )


# -- document diffing ----------------------------------------------------------


@dataclass(frozen=True)
class DiffEntry:
    """One numeric leaf compared between two documents."""

    path: str
    base: Optional[float]
    new: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        """Absolute change (None when the leaf exists on one side only)."""
        if self.base is None or self.new is None:
            return None
        return self.new - self.base

    @property
    def relative(self) -> Optional[float]:
        """Relative change against the base (None when not computable)."""
        if self.base is None or self.new is None:
            return None
        if self.base == 0.0:
            return None if self.new == 0.0 else math.inf
        return (self.new - self.base) / abs(self.base)


def _flatten_numeric(payload: object, prefix: str, out: Dict[str, float]) -> None:
    """Collect numeric leaves of nested dicts under dotted paths.

    Lists are skipped on purpose: per-span/per-event arrays and histogram
    bucket vectors are detail, not comparable headline numbers.
    """
    if isinstance(payload, bool):
        return
    if isinstance(payload, (int, float)):
        out[prefix] = float(payload)
        return
    if isinstance(payload, dict):
        for key, value in payload.items():
            _flatten_numeric(value, f"{prefix}.{key}" if prefix else str(key), out)


def comparable_view(payload: dict) -> Dict[str, float]:
    """The numeric leaves of a document that are worth diffing.

    Trace documents compare their span totals, metrics and event counts
    (never the raw span/event arrays); benchmark ledgers and any other
    JSON object compare every numeric leaf.
    """
    if "schema_version" in payload:
        view: Dict[str, float] = {}
        for section in ("span_totals", "metrics", "event_counts", "meta"):
            if section in payload:
                _flatten_numeric(payload[section], section, view)
        return view
    view = {}
    for key, value in payload.items():
        # Per-runner timing baselines are gate *inputs* (substituted for
        # the headline's timing leaves when fingerprints differ), never
        # comparable leaves themselves.
        if key == "timing_baselines":
            continue
        _flatten_numeric(value, str(key), view)
    return view


def diff_documents(base: dict, new: dict) -> List[DiffEntry]:
    """Compare two loaded JSON documents leaf by leaf, sorted by path."""
    base_view = comparable_view(base)
    new_view = comparable_view(new)
    entries: List[DiffEntry] = []
    for path in sorted(set(base_view) | set(new_view)):
        entries.append(DiffEntry(path, base_view.get(path), new_view.get(path)))
    return entries


#: Path fragments treated as wall-clock measurements by :func:`gate_diff`:
#: machine-dependent, so they gate with their own runner-keyed tolerance
#: (``timing_tolerance``) or are excluded entirely (``ignore_timing``).
#: ``speedup`` counts as timing -- a wall-clock ratio is exactly as
#: hardware-dependent as the wall clocks it divides.
TIMING_FRAGMENTS = ("seconds", "wall", "_us", "_ms", "speedup")


def is_timing_path(path: str) -> bool:
    """True when a diff path is a wall-clock (machine-dependent) leaf."""
    lowered = path.lower()
    return any(fragment in lowered for fragment in TIMING_FRAGMENTS)


def gate_diff(
    entries: Sequence[DiffEntry],
    *,
    tolerance: float = 0.25,
    ignore_timing: bool = False,
    timing_tolerance: Optional[float] = None,
) -> List[DiffEntry]:
    """The entries whose relative change falls outside the tolerance band.

    ``tolerance`` is a symmetric relative band (0.25 = +-25% of the
    baseline value).  Leaves present on only one side always gate (a
    metric appeared or vanished).  Timing leaves (paths containing a
    :data:`TIMING_FRAGMENTS` fragment) are machine-dependent:
    ``timing_tolerance`` gives them their own, typically wider, band --
    the hard-fail flavour used when both documents were measured on the
    same runner fingerprint -- while ``ignore_timing`` skips them
    entirely so the gate stays deterministic across machines.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    if timing_tolerance is not None and timing_tolerance < 0:
        raise ValueError(f"timing_tolerance must be >= 0, got {timing_tolerance!r}")
    regressions: List[DiffEntry] = []
    for entry in entries:
        timing = is_timing_path(entry.path)
        if ignore_timing and timing:
            continue
        band = (
            timing_tolerance if (timing and timing_tolerance is not None) else tolerance
        )
        if entry.base is None or entry.new is None:
            regressions.append(entry)
            continue
        relative = entry.relative
        if relative is None:
            continue  # both zero
        if relative is math.inf or abs(relative) > band:
            regressions.append(entry)
    return regressions


@dataclass(frozen=True)
class Gate:
    """What :func:`gate_documents` held two documents' leaves to."""

    #: The entries the gate compared, timing leaves re-based on a
    #: recorded runner baseline where one applied.
    gated: List[DiffEntry]
    #: The gated entries outside their tolerance band.
    regressions: List[DiffEntry]
    #: Why timing leaves were re-based or dropped (None when neither).
    note: Optional[str] = None


def _runner_fingerprint(document: dict) -> Optional[str]:
    """A ledger's runner fingerprint (None for traces and older ledgers)."""
    runner = document.get("runner")
    fingerprint = runner.get("fingerprint") if isinstance(runner, dict) else None
    return str(fingerprint) if fingerprint else None


def gate_documents(
    base: dict, new: dict, entries: Sequence[DiffEntry], *,
    tolerance: float = 0.25, timing_tolerance: float = 0.5, ignore_timing: bool = False,
) -> Gate:
    """Gate ``entries`` (leaves of ``diff_documents(base, new)``), keying
    timing comparisons on the documents' runner fingerprints.

    Same fingerprint, or none on either side (traces, pre-fingerprint
    ledgers): timing leaves gate at ``timing_tolerance``.  Different
    fingerprints: wall clocks from different machines are never compared.
    If the baseline records a timing baseline for the new runner
    (``timing_baselines[fingerprint]``), timing leaves it names gate
    against that value and the others drop out; without one, every
    timing leaf drops out.  ``ignore_timing`` drops them regardless.
    """
    gated = list(entries)
    note = None
    base_runner = _runner_fingerprint(base)
    new_runner = _runner_fingerprint(new)
    if not ignore_timing and (base_runner or new_runner) and base_runner != new_runner:
        baselines = base.get("timing_baselines")
        recorded = (
            baselines.get(new_runner) if new_runner and isinstance(baselines, dict) else None
        )
        if isinstance(recorded, dict):
            gated = [
                DiffEntry(entry.path, float(recorded[entry.path]), entry.new)
                if is_timing_path(entry.path)
                else entry
                for entry in entries
                if not is_timing_path(entry.path) or entry.path in recorded
            ]
            substituted = sum(1 for entry in gated if is_timing_path(entry.path))
            note = (
                "gate: runner fingerprints differ; "
                f"{substituted} timing leaves gated against the baseline "
                f"recorded for {new_runner}"
            )
        else:
            ignore_timing = True
            note = (
                "gate: runner fingerprints differ "
                f"({base_runner or 'unrecorded'} vs {new_runner or 'unrecorded'}) "
                "and the baseline records no timing baseline for "
                f"{new_runner or 'this runner'}; "
                "timing leaves excluded from the gate"
            )
    regressions = gate_diff(
        gated, tolerance=tolerance, ignore_timing=ignore_timing,
        timing_tolerance=None if ignore_timing else timing_tolerance,
    )
    return Gate(gated, regressions, note)
