"""Online monitoring plane: streaming estimators, drift detection, and
the §5 adaptation loop.

Where :mod:`repro.obs.analyze` answers questions *after* a run, this
module watches the live :class:`~repro.obs.events.EventLog` stream (via
:meth:`EventLog.subscribe`) and reacts *during* it:

* an :class:`OnlineMonitor` maintains rolling-window estimators per
  broker -- EWMA availability, the §4.3.1 Availability Change Index
  alpha (reusing :class:`repro.brokers.history.AvailabilityHistory`),
  contention index psi, and a rolling rejection rate -- purely from the
  event stream, so it is deterministic for a deterministic run and
  needs no access to the brokers themselves;
* **drift detectors** compare each live session's planned-against
  availability (captured from its ``session.planned`` /
  ``session.admitted`` records) with the broker's current estimate and
  emit ``session.drift`` when they diverge beyond a configurable
  threshold (plus periodic ``broker.observed`` digests);
* an :class:`AdaptationPolicy` closes the loop: on drift it
  renegotiates the affected session through
  :meth:`repro.runtime.coordinator.ReservationCoordinator.renegotiate`
  (the §4.3 downgrade/upgrade path), which emits
  ``session.renegotiated``.

The monitor never consumes its own output: monitoring-plane event kinds
are ignored on input, so subscribing it to the same log it emits into
cannot recurse.  Nothing here reads the wall clock into its *logic*
(only the watchdog-latency histogram does), so serial and parallel sweep
runs produce byte-identical monitor digests.  Whether the *fleet* keeps
its objectives is a question for whatever scrapes ``/metrics``, not for
this module.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Optional, Sequence, Set, Tuple

from repro.brokers.history import AvailabilityHistory
from repro.obs import metrics as _metrics
from repro.obs.events import EventLog, ReservationEvent

__all__ = [
    "AdaptationPolicy",
    "BrokerEstimate",
    "MONITOR_EVENT_KINDS",
    "MonitorConfig",
    "OnlineMonitor",
    "replay_events",
]

#: Event kinds the monitoring plane *produces*; ignored on its input so
#: a monitor subscribed to the log it emits into cannot feed on itself.
MONITOR_EVENT_KINDS = frozenset(
    {"broker.observed", "session.drift", "session.renegotiated"}
)

#: Smoothing factor of the EWMA estimators (1.0 = last sample wins).
EWMA_ALPHA = 0.3
#: The §4.3.1 averaging window ``T`` of the online alpha, sim time.
ALPHA_WINDOW = 3.0
#: Rolling window of the rejection-rate estimator, sim time.
RATE_WINDOW = 60.0
#: One ``broker.observed`` digest every N availability updates of a
#: resource.
OBSERVE_EVERY = 8
#: Renegotiation budget per session.
MAX_RENEGOTIATIONS = 2
#: Minimum sim time between renegotiations of one session.
COOLDOWN = 5.0
#: Bound on the adaptation queue; overflow is counted, not grown.
QUEUE_CAPACITY = 256

#: Watchdog-latency boundaries (seconds): event dispatch is microseconds.
WATCHDOG_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3, 1e-2,
)


@dataclass(frozen=True)
class MonitorConfig:
    """What a run asks of the online monitoring plane.

    Frozen and picklable so it can ride on a
    :class:`~repro.sim.SimulationConfig` into pool workers.
    """

    #: Relative divergence between a session's planned-against
    #: availability and the live EWMA estimate that counts as drift.
    drift_threshold: float = 0.25
    #: Drive the adaptation loop (renegotiations); False = detect only.
    adapt: bool = True

    def __post_init__(self) -> None:
        if self.drift_threshold <= 0:
            raise ValueError(
                f"drift_threshold must be positive, got {self.drift_threshold!r}"
            )


class BrokerEstimate:
    """Rolling estimators of one resource, fed purely from its events."""

    __slots__ = (
        "resource",
        "ewma_available",
        "alpha",
        "psi",
        "updates",
        "_history",
        "_attempts",
    )

    def __init__(self, resource: str) -> None:
        self.resource = resource
        #: EWMA of observed availability (None until the first sample --
        #: an empty history never divides or drifts).
        self.ewma_available: Optional[float] = None
        #: Latest §4.3.1 Availability Change Index (1.0 = unchanged).
        self.alpha: float = 1.0
        #: EWMA of plan psi when this resource was the bottleneck.
        self.psi: Optional[float] = None
        #: Availability samples folded in so far.
        self.updates: int = 0
        self._history = AvailabilityHistory(window=ALPHA_WINDOW)
        #: (sim time, rejected) of each admission attempt, rolling.
        self._attempts: Deque[Tuple[float, bool]] = deque()

    def record_available(self, now: Optional[float], available: float) -> None:
        """Fold one availability observation into the estimators."""
        if self.ewma_available is None:
            self.ewma_available = float(available)
        else:
            self.ewma_available += EWMA_ALPHA * (available - self.ewma_available)
        if now is not None:
            self.alpha = self._history.alpha(now, available)
        self.updates += 1

    def record_attempt(self, now: Optional[float], rejected: bool) -> None:
        """Record one admission attempt for the rolling rejection rate."""
        if now is None:
            return
        self._attempts.append((now, rejected))
        self._prune(now)

    def record_psi(self, psi: float) -> None:
        """Fold one bottleneck contention index into the psi EWMA."""
        if self.psi is None:
            self.psi = float(psi)
        else:
            self.psi += EWMA_ALPHA * (psi - self.psi)

    def rejection_rate(self, now: Optional[float]) -> float:
        """Rejected fraction of the attempts within the rolling window."""
        if now is not None:
            self._prune(now)
        if not self._attempts:
            return 0.0
        rejected = sum(1 for _t, was_rejected in self._attempts if was_rejected)
        return rejected / len(self._attempts)

    def attempt_counts(self, now: Optional[float]) -> Tuple[int, int]:
        """(attempts, rejections) within the rolling window."""
        if now is not None:
            self._prune(now)
        rejected = sum(1 for _t, was_rejected in self._attempts if was_rejected)
        return len(self._attempts), rejected

    def _prune(self, now: float) -> None:
        cutoff = now - RATE_WINDOW
        while self._attempts and self._attempts[0][0] < cutoff:
            self._attempts.popleft()

    def digest(self, now: Optional[float]) -> dict:
        """JSON-compatible snapshot of the estimators."""
        return {
            "ewma_available": self.ewma_available,
            "alpha": self.alpha,
            "psi": self.psi,
            "rejection_rate": self.rejection_rate(now),
            "updates": self.updates,
        }


@dataclass
class _SessionWatch:
    """What one live session's reservation was planned against."""

    service: str = ""
    #: resource -> availability the plan was computed from.
    planned_available: Dict[str, float] = field(default_factory=dict)
    bottleneck: Optional[str] = None
    #: Paper-style numeric end-to-end level (higher = better).
    level: Optional[int] = None


class OnlineMonitor:
    """Streaming consumer of the event log; the monitoring plane's core.

    Subscribe :meth:`on_event` to a live :class:`EventLog` (or feed a
    recorded stream through :func:`replay_events`).  Emissions go to
    ``log`` -- usually the same log it subscribes to; its own event
    kinds are ignored on input, so that is not circular.
    """

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        *,
        log: Optional[EventLog] = None,
        policy: Optional["AdaptationPolicy"] = None,
    ) -> None:
        self.config = config if config is not None else MonitorConfig()
        self.log = log
        self.policy = policy
        if policy is not None:
            policy.monitor = self
        self.estimates: Dict[str, BrokerEstimate] = {}
        #: session -> baseline staged by ``session.planned``, promoted
        #: to :attr:`_active` by ``session.admitted``.
        self._staged: Dict[str, _SessionWatch] = {}
        self._active: Dict[str, _SessionWatch] = {}
        #: resource -> active sessions planned against it.
        self._by_resource: Dict[str, Set[str]] = {}
        #: session -> resources already flagged since the last admit.
        self._drifted: Dict[str, Set[str]] = {}
        #: EWMA of admitted sessions' numeric levels (delivered QoS).
        self._qos_ewma: Optional[float] = None
        #: EWMA of planned bottleneck psi.
        self._psi_ewma: Optional[float] = None
        self._sessions_seen: Set[str] = set()
        self._last_time: Optional[float] = None
        self.events_seen = 0
        self.drift_detected = 0

    # -- stream input ------------------------------------------------------

    def on_event(self, event: ReservationEvent) -> None:
        """The :meth:`EventLog.subscribe` callback."""
        kind = event.kind
        # The plane's own output is not input: its current kinds, and the
        # ``slo.*`` kinds of the deleted watchdog that an older trace may
        # hold.  Any other kind counts as seen, one retired from the
        # vocabulary too, so a replay of an older trace sees what its
        # live monitor saw.
        if kind in MONITOR_EVENT_KINDS or kind.startswith("slo."):
            return
        started = _time.perf_counter()
        self.events_seen += 1
        if event.time is not None:
            self._last_time = event.time
        try:
            self._dispatch(event)
        finally:
            registry = _metrics.active_registry()
            if registry is not None:
                registry.histogram(
                    "monitor.watchdog_seconds", buckets=WATCHDOG_BUCKETS
                ).observe(_time.perf_counter() - started)

    def _dispatch(self, event: ReservationEvent) -> None:
        kind = event.kind
        if kind == "broker.probe":
            if event.attributes.get("stale"):
                return  # stale observations describe the past, not now
            self._observe(event.resource, event.time, event.attributes.get("available"))
        elif kind == "broker.grant":
            attributes = event.attributes
            available = attributes.get("available")
            requested = attributes.get("requested", 0.0)
            post = None
            if available is not None:
                post = float(available) - float(requested)
            self._record_attempt(event.resource, event.time, rejected=False)
            self._observe(event.resource, event.time, post)
        elif kind == "broker.release":
            self._observe(event.resource, event.time, event.attributes.get("available"))
        elif kind == "broker.reject":
            self._record_attempt(event.resource, event.time, rejected=True)
            self._observe(event.resource, event.time, event.attributes.get("available"))
        elif kind == "session.planned":
            self._stage_session(event)
        elif kind == "session.admitted":
            self._admit_session(event)
        elif kind == "session.rejected":
            if event.session:
                self._sessions_seen.add(event.session)

    # -- per-broker estimators ---------------------------------------------

    def _estimate_for(self, resource: str) -> BrokerEstimate:
        estimate = self.estimates.get(resource)
        if estimate is None:
            estimate = self.estimates[resource] = BrokerEstimate(resource)
        return estimate

    def _observe(
        self, resource: Optional[str], now: Optional[float], available: object
    ) -> None:
        if resource is None or available is None:
            return
        estimate = self._estimate_for(resource)
        estimate.record_available(now, float(available))
        if estimate.updates % OBSERVE_EVERY == 0:
            self._emit(
                "broker.observed", resource=resource, time=now, **estimate.digest(now)
            )
        self._check_drift(resource, now)

    def _record_attempt(
        self, resource: Optional[str], now: Optional[float], *, rejected: bool
    ) -> None:
        if resource is None:
            return
        self._estimate_for(resource).record_attempt(now, rejected)

    # -- session baselines --------------------------------------------------

    def _stage_session(self, event: ReservationEvent) -> None:
        if not event.session:
            return
        available = event.attributes.get("available") or {}
        self._staged[event.session] = _SessionWatch(
            service=str(event.attributes.get("service", "")),
            planned_available={
                str(resource): float(value) for resource, value in available.items()
            },
            bottleneck=event.attributes.get("bottleneck"),
        )
        psi = event.attributes.get("psi")
        if psi is not None:
            if self._psi_ewma is None:
                self._psi_ewma = float(psi)
            else:
                self._psi_ewma += EWMA_ALPHA * (float(psi) - self._psi_ewma)
            bottleneck = event.attributes.get("bottleneck")
            if bottleneck:
                self._estimate_for(str(bottleneck)).record_psi(float(psi))

    def _admit_session(self, event: ReservationEvent) -> None:
        session_id = event.session
        if not session_id:
            return
        watch = self._staged.pop(session_id, None)
        if watch is None:
            # Admission without a visible plan record (e.g. a truncated
            # stream): nothing to baseline against, track level only.
            watch = _SessionWatch(service=str(event.attributes.get("service", "")))
        level = event.attributes.get("numeric_level")
        watch.level = int(level) if level is not None else None
        # A re-admission (renegotiation or fault re-plan) refreshes the
        # baseline: old drift flags and resource links are dropped.
        self._forget_session(session_id)
        self._active[session_id] = watch
        for resource in watch.planned_available:
            self._by_resource.setdefault(resource, set()).add(session_id)
        self._sessions_seen.add(session_id)
        if self.policy is not None:
            self.policy.set_level(session_id, watch.level)
        if watch.level is not None:
            if self._qos_ewma is None:
                self._qos_ewma = float(watch.level)
            else:
                self._qos_ewma += EWMA_ALPHA * (watch.level - self._qos_ewma)

    def _forget_session(self, session_id: str) -> None:
        previous = self._active.pop(session_id, None)
        if previous is not None:
            for resource in previous.planned_available:
                sessions = self._by_resource.get(resource)
                if sessions is not None:
                    sessions.discard(session_id)
                    if not sessions:
                        del self._by_resource[resource]
        self._drifted.pop(session_id, None)

    def session_closed(self, session_id: str) -> None:
        """Stop watching a session (its hold finished or it tore down)."""
        self._forget_session(session_id)
        self._staged.pop(session_id, None)

    # -- drift detection ----------------------------------------------------

    def _check_drift(self, resource: str, now: Optional[float]) -> None:
        estimate = self.estimates.get(resource)
        if estimate is None or estimate.ewma_available is None:
            return
        observed = estimate.ewma_available
        # Nested renegotiations mutate the watch sets mid-iteration;
        # walk a sorted copy (sorted for deterministic firing order).
        for session_id in sorted(self._by_resource.get(resource, ())):
            watch = self._active.get(session_id)
            if watch is None:
                continue
            planned = watch.planned_available.get(resource)
            if planned is None:
                continue
            relative = abs(observed - planned) / max(abs(planned), 1e-9)
            if relative <= self.config.drift_threshold:
                continue
            flagged = self._drifted.setdefault(session_id, set())
            if resource in flagged:
                continue  # one drift event per (session, resource) baseline
            flagged.add(resource)
            self.drift_detected += 1
            self._emit(
                "session.drift",
                session=session_id,
                resource=resource,
                time=now,
                planned=planned,
                observed=observed,
                relative=relative,
                direction="down" if observed < planned else "up",
            )
            registry = _metrics.active_registry()
            if registry is not None:
                registry.counter("monitor.drift_detected", resource=resource).inc()
            if self.policy is not None:
                self.policy.on_drift(session_id, resource, now)

    def global_rejection_rate(self, now: Optional[float]) -> float:
        """Rejected fraction of all admission attempts in the window."""
        attempts = 0
        rejected = 0
        for estimate in self.estimates.values():
            seen, bad = estimate.attempt_counts(now)
            attempts += seen
            rejected += bad
        return rejected / attempts if attempts else 0.0

    # -- output -------------------------------------------------------------

    def _emit(
        self,
        kind: str,
        *,
        session: Optional[str] = None,
        resource: Optional[str] = None,
        time: Optional[float] = None,
        **attributes: object,
    ) -> None:
        if self.log is not None:
            self.log.emit(
                kind, session=session, resource=resource, time=time, **attributes
            )

    def report(self) -> dict:
        """JSON-compatible digest of the plane's state (the trace
        document's ``monitoring`` section).

        Contains no wall-clock values, so two deterministic runs yield
        byte-identical reports regardless of worker count.
        """
        now = self._last_time
        document = {
            "events_seen": self.events_seen,
            "drift_detected": self.drift_detected,
            "sessions_tracked": len(self._sessions_seen),
            "sessions_live": len(self._active),
            "qos_ewma": self._qos_ewma,
            "psi_ewma": self._psi_ewma,
            "rejection_rate": self.global_rejection_rate(now),
            "brokers": {
                resource: self.estimates[resource].digest(now)
                for resource in sorted(self.estimates)
            },
        }
        if self.policy is not None:
            document["adaptation"] = self.policy.stats()
        return document


def replay_events(
    events: Sequence[ReservationEvent],
    config: Optional[MonitorConfig] = None,
) -> Tuple[OnlineMonitor, EventLog]:
    """Run the monitoring plane offline over a recorded event stream.

    What ``repro-obs watch``/``monitor-report`` use on traces that were
    recorded without a live monitor: the detections land in the returned
    private :class:`EventLog` instead of the (absent) live one.  Events
    already produced by a live monitor in the recording are ignored on
    input, so replaying a monitored trace does not double-detect.
    """
    log = EventLog()
    monitor = OnlineMonitor(config, log=log)
    for event in sorted(events, key=lambda e: e.seq):
        monitor.on_event(event)
    return monitor, log


class AdaptationPolicy:
    """The §5 loop: drift in, renegotiation out.

    Sessions are registered with :meth:`watch` (carrying everything
    :meth:`~repro.runtime.coordinator.ReservationCoordinator.renegotiate`
    needs) and deregistered with :meth:`unwatch`.  Trigger handling is
    synchronous but reentrancy-safe: a renegotiation's own events may
    raise further triggers, which queue (bounded) and drain in order.
    """

    def __init__(self, coordinator) -> None:
        self.coordinator = coordinator
        self.monitor: Optional[OnlineMonitor] = None
        self._contexts: Dict[str, dict] = {}
        self._pending: Deque[Tuple[str, str, Optional[float]]] = deque()
        self._draining = False
        self._count: Dict[str, int] = {}
        self._last: Dict[str, float] = {}
        #: outcome -> count over every renegotiation attempted.
        self.outcomes: Dict[str, int] = {}
        #: session -> numeric level it holds after renegotiation(s).
        self.delivered: Dict[str, int] = {}
        #: sessions that lost their reservation (failed, not restorable).
        self.dropped: Set[str] = set()
        self.triggered = 0
        self.queue_dropped = 0

    # -- session registry ---------------------------------------------------

    def watch(
        self,
        session_id: str,
        *,
        service_name: str,
        binding,
        planner,
        component_hosts=None,
        source_label: Optional[str] = None,
        demand_scale: float = 1.0,
        level: Optional[int] = None,
    ) -> None:
        """Register a live session and the arguments to re-plan it."""
        self._contexts[session_id] = {
            "service_name": service_name,
            "binding": binding,
            "planner": planner,
            "component_hosts": component_hosts,
            "source_label": source_label,
            "demand_scale": demand_scale,
            "level": level,
        }

    def unwatch(self, session_id: str) -> None:
        """Deregister a session (finished or torn down)."""
        self._contexts.pop(session_id, None)

    def set_level(self, session_id: str, level: Optional[int]) -> None:
        """Record the numeric level a watched session was admitted at."""
        context = self._contexts.get(session_id)
        if context is not None:
            context["level"] = level

    # -- triggers -----------------------------------------------------------

    def on_drift(
        self, session_id: str, resource: str, now: Optional[float]
    ) -> None:
        """Drift detected against ``resource``: queue a renegotiation."""
        self._enqueue(session_id, "drift", now)

    def _enqueue(self, session_id: str, trigger: str, now: Optional[float]) -> None:
        if session_id not in self._contexts or session_id in self.dropped:
            return
        if self._count.get(session_id, 0) >= MAX_RENEGOTIATIONS:
            return
        last = self._last.get(session_id)
        if last is not None and now is not None and now - last < COOLDOWN:
            return
        if len(self._pending) >= QUEUE_CAPACITY:
            self.queue_dropped += 1
            return
        self._pending.append((session_id, trigger, now))
        self._drain()

    def _drain(self) -> None:
        if self._draining:
            return  # a renegotiation in flight raised this trigger
        self._draining = True
        try:
            while self._pending:
                session_id, trigger, now = self._pending.popleft()
                self._renegotiate(session_id, trigger, now)
        finally:
            self._draining = False

    def _renegotiate(
        self, session_id: str, trigger: str, now: Optional[float]
    ) -> None:
        context = self._contexts.get(session_id)
        if context is None or session_id in self.dropped:
            return
        if self._count.get(session_id, 0) >= MAX_RENEGOTIATIONS:
            return
        self._count[session_id] = self._count.get(session_id, 0) + 1
        if now is not None:
            self._last[session_id] = now
        self.triggered += 1
        renegotiation = self.coordinator.renegotiate(
            session_id,
            context["service_name"],
            context["binding"],
            context["planner"],
            component_hosts=context["component_hosts"],
            source_label=context["source_label"],
            demand_scale=context["demand_scale"],
            trigger=trigger,
            previous_level=context["level"],
            now=now,
        )
        outcome = renegotiation.outcome
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if renegotiation.success:
            context["level"] = renegotiation.new_level
            if renegotiation.new_level is not None:
                self.delivered[session_id] = renegotiation.new_level
        elif outcome == "failed_dropped":
            self.dropped.add(session_id)

    # -- outcome patching ---------------------------------------------------

    def finalize_outcome(self, outcome):
        """Fold renegotiations into a finished session's outcome.

        A session whose reservation was renegotiated delivered its *new*
        level; one that lost its reservation to a non-restorable failed
        renegotiation did not deliver at all.  Returns a (possibly
        replaced) :class:`~repro.runtime.session.SessionOutcome`.
        """
        if outcome.session_id in self.dropped:
            if not outcome.success:
                return outcome
            return replace(
                outcome, success=False, qos_level=None, reason="renegotiation_failed"
            )
        level = self.delivered.get(outcome.session_id)
        if outcome.success and level is not None and level != outcome.qos_level:
            return replace(outcome, qos_level=level)
        return outcome

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict:
        """JSON-compatible digest (the monitoring report's
        ``adaptation`` section)."""
        return {
            "triggered": self.triggered,
            "outcomes": dict(sorted(self.outcomes.items())),
            "sessions_renegotiated": len(self.delivered),
            "sessions_dropped": len(self.dropped),
            "queue_dropped": self.queue_dropped,
        }
