"""The main QoSProxy's coordination logic (paper §4.2).

Three phases per session:

1. participating QoSProxies report current availability of the session's
   bound resources;
2. the main proxy computes the end-to-end reservation plan locally
   (any :class:`~repro.core.planner.Planner`);
3. the main proxy dispatches per-host plan segments, which the proxies
   apply to their brokers; a segment failure rolls everything back.

With accurate observations and atomic establishment (the default, as in
§5.2.1-5.2.3) phase 3 can only fail if two plan edges share a resource
in a way planning treated independently; with the staleness model of
§5.2.4 (``observed_at``) phase 3 admission failures become the norm
under contention.

The phases are written once, as a generator yielding the delays the
protocol waits out (:meth:`ReservationCoordinator._establish`).  It is
the only coordinator.  Its fault boundary is its own seams: given a
:class:`~repro.faults.injector.FaultInjector` that can fire, a phase-1
exchange or a phase-3 reserve/ack may be lost (a timeout, retried under
seeded backoff), a lost rollback release orphans its lease for the
reaper, and a failed dispatch is planned again (§4.3).  Where the
QoS-Resource Model lives (§3) is chosen by the proxies it is given:
:class:`~repro.runtime.distributed.ComponentHost` proxies price their
own QRG fragments, any other proxies report availability and the main
proxy prices the QRG itself.
"""

from __future__ import annotations

import contextvars as _contextvars
import math
import time as _time
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.brokers.registry import BrokerRegistry
from repro.core.component import Binding
from repro.core.errors import AdmissionError, BrokerError, ModelError, PlanningError
from repro.core.plan import ReservationPlan
from repro.core.qrg import (
    QRGSkeletonCache,
    assemble_qrg,
    memoise_bounded,
    price_skeleton,
    resolve_source_level,
)
from repro.core.resources import AvailabilitySnapshot, ResourceObservation
from repro.core.translation import ScaledTranslation
from repro.obs import context as _context
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.runtime.distributed import ComponentHost, FragmentRequest
from repro.runtime.leases import Lease, LeaseTable
from repro.runtime.messages import AvailabilityRequest, SessionRequest
from repro.runtime.model_store import ModelStore
from repro.runtime.proxy import QoSProxy

#: Maps a resource id to the past instant it should be observed at
#: (None = now) -- the §5.2.4 observation-inaccuracy hook.
ObservationSchedule = Callable[[str], Optional[float]]

#: The span each phase of the protocol runs under (the daemon reads its
#: plan and commit time off the last two).
PHASE1_SPAN = "phase1_availability"
PHASE2_SPAN = "phase2_plan"
PHASE3_SPAN = "phase3_dispatch"


class EstablishmentResult(NamedTuple):
    """Outcome of one session-establishment attempt."""

    session_id: str
    success: bool
    plan: Optional[ReservationPlan]
    reason: str = ""
    failed_resource: Optional[str] = None

    @property
    def qos_level(self) -> Optional[int]:
        """Numeric end-to-end QoS level of the plan (None on failure)."""
        return self.plan.numeric_level if (self.success and self.plan) else None


@dataclass(frozen=True)
class RenegotiationResult:
    """Outcome of one §5 adaptive renegotiation of a live session.

    ``outcome`` classifies what the session ended up with relative to
    what it held before: ``upgraded`` / ``downgraded`` / ``unchanged``
    (fresh plan admitted; levels are paper-style numeric, higher is
    better), ``failed_restored`` (no new plan admissible, the original
    reservations were put back), ``failed_dropped`` (neither -- the
    session lost its reservations), or ``unknown_session`` (nothing was
    held to renegotiate).
    """

    session_id: str
    outcome: str
    result: EstablishmentResult
    previous_level: Optional[int] = None
    new_level: Optional[int] = None
    restored: bool = False

    @property
    def success(self) -> bool:
        """True when the renegotiated establishment was admitted."""
        return self.result.success


class ReservationCoordinator:
    """Executes the three-phase establishment protocol.

    ``injector`` (a :class:`~repro.faults.injector.FaultInjector`) runs
    the protocol under its fault plan and the recovery policy of the
    plan's :class:`~repro.faults.plan.FaultConfig`; ``env`` attaches the
    coordinator to a DES clock, on which orphaned leases are reaped on
    time.  Without them every message arrives, at once.
    """

    def __init__(
        self,
        registry: BrokerRegistry,
        model_store: ModelStore,
        proxies: Mapping[str, QoSProxy],
        *,
        injector=None,
        env=None,
    ) -> None:
        self.registry = registry
        self.model_store = model_store
        self.proxies: Dict[str, QoSProxy] = dict(proxies)
        self._owner_cache: Dict[str, QoSProxy] = {}
        #: Availability-independent QRG skeletons, shared across sessions.
        self.qrg_skeletons = QRGSkeletonCache()
        self._scaled_services: Dict[Tuple[str, float], object] = {}
        #: Sessions currently inside :meth:`teardown`.  Their release
        #: events reach live monitor subscribers synchronously, and a
        #: drift-triggered renegotiation of the dying session itself
        #: would re-reserve on proxies the teardown loop already passed.
        self._tearing_down: set = set()
        self.injector = injector
        self._env = env
        # An injector that can fire nothing costs nothing: phase 3 stays
        # one all-or-nothing hold, a failed dispatch is not planned
        # again, and a batch shares one phase-1 snapshot.  Faults are
        # injected per message, so under a faulty plan each arrival runs
        # its own phase 1 (one shared round would mask the timeouts,
        # stale reports and retries the plan asks for).
        self._faults = None if injector is None or injector.is_zero else injector
        self._max_replans = (
            self._faults.config.max_replans if self._faults is not None else 0
        )
        #: Phase 3's hold -> commit engine, on this coordinator's clock;
        #: orphans await the reaper.  Without faults a lease is committed
        #: or released in the call that holds it.  A daemon replaces it
        #: with its wall-clock table, which its two-phase reserves share.
        self.leases = LeaseTable(
            self.proxies,
            lambda: self.now,
            injector.config.lease_ttl if injector is not None else math.inf,
        )
        #: Total orphaned leases reclaimed (watchdogs + explicit reaps).
        self.leases_reaped = 0
        #: §3's distributed placement: the component hosts store the
        #: translation functions and price their own QRG fragments.
        self._fragments = bool(self.proxies) and all(
            isinstance(proxy, ComponentHost) for proxy in self.proxies.values()
        )
        self._instruments = _metrics.Instruments()

    @property
    def now(self) -> float:
        """The coordinator's clock: DES time when attached to an env,
        else the injector's (0.0 without one)."""
        if self._env is not None:
            return self._env.now
        return self.injector.now if self.injector is not None else 0.0

    # -- ownership ------------------------------------------------------------

    def proxy_for(self, resource_id: str) -> QoSProxy:
        """The QoSProxy owning ``resource_id``; raises if unowned."""
        proxy = self._owner_cache.get(resource_id)
        if proxy is not None:
            return proxy
        for candidate in self.proxies.values():
            if candidate.owns(resource_id):
                self._owner_cache[resource_id] = candidate
                return candidate
        raise BrokerError(f"no QoSProxy owns resource {resource_id!r}")

    def host_of_component(self, component: str) -> ComponentHost:
        """The component host storing ``component``; raises if none does."""
        for proxy in self.proxies.values():
            if component in proxy.stored_components():
                return proxy
        raise ModelError(f"no proxy stores component {component!r}")

    # -- establishment ------------------------------------------------------------

    def establish(
        self,
        session_id: str,
        service_name: str,
        binding: Binding,
        planner,
        *,
        component_hosts: Optional[Mapping[str, str]] = None,
        source_label: Optional[str] = None,
        demand_scale: float = 1.0,
        observed_at: Optional[ObservationSchedule] = None,
        contention_index=None,
        snapshot: Optional[AvailabilitySnapshot] = None,
    ) -> EstablishmentResult:
        """Run the three phases at one instant (no simulated time passes).

        ``demand_scale`` scales every translation-function requirement
        (the evaluation's "fat" sessions, §5.1).  ``snapshot`` replaces
        phase 1 with an already-collected availability snapshot (it must
        cover the binding's resources); :meth:`establish_batch` shares
        one across its arrivals this way.  Any delay the protocol waits
        out passes at once.
        """
        return _run(
            self._accounted(
                session_id,
                service_name,
                binding,
                planner,
                component_hosts=component_hosts,
                source_label=source_label,
                demand_scale=demand_scale,
                observed_at=observed_at,
                contention_index=contention_index,
                snapshot=snapshot,
            )
        )

    def plan_session(
        self,
        session_id: str,
        service_name: str,
        binding: Binding,
        planner,
        snapshot: AvailabilitySnapshot,
        *,
        source_label: Optional[str] = None,
        demand_scale: float = 1.0,
        contention_index=None,
    ):
        """Phase 2 alone: price and plan against an external snapshot.

        The cluster router collects availability from the owning shard
        daemons itself (phase 1 happens over the wire) and then needs
        exactly the paper's local plan computation -- no reservations
        are made here and no phase-3 events fire.  Returns the same
        ``(plan, None)`` / ``(None, EstablishmentResult)`` pair as the
        internal phase-2 helper.
        """
        service = self._service_at_scale(service_name, demand_scale)
        return self._phase2_plan(
            session_id,
            service,
            service_name,
            binding,
            planner,
            snapshot,
            _observed_instant(snapshot),
            source_label=source_label,
            demand_scale=demand_scale,
            contention_index=contention_index,
        )

    def _accounted(self, session_id: str, service_name: str, *args, **kwargs):
        """The protocol inside its per-session span/counter/histogram bracket.

        A generator, like :meth:`_establish`, that :meth:`establish` and
        :meth:`establish_process` both drive, so both are accounted
        alike.  When a request-scoped trace context is bound (daemon
        admissions), the span carries the caller's request id; the
        coordinator never *creates* contexts, so simulation runs stay
        byte-identical.
        """
        registry = _metrics.active_registry()
        started = _time.perf_counter() if registry is not None else 0.0
        with _trace.span("establish", session=session_id, service=service_name) as span:
            context = _context.current_trace_context()
            if context is not None and context.request_id is not None:
                span.set(request=context.request_id)
            result = yield from self._establish(session_id, service_name, *args, **kwargs)
            outcome = "established" if result.success else result.reason
            span.set(outcome=outcome)
            if registry is not None:
                instruments = self._instruments
                instruments.counter(
                    registry, "coordinator.establish", outcome=outcome
                ).inc()
                if result.failed_resource is not None:
                    instruments.counter(
                        registry,
                        "coordinator.admission_failures",
                        resource=result.failed_resource,
                    ).inc()
                instruments.histogram(
                    registry, "coordinator.establish_seconds"
                ).observe(_time.perf_counter() - started)
            return result

    def _phase1_exchanges(
        self,
        session_id: str,
        service,
        binding: Binding,
        resource_ids: Sequence[str],
        *,
        demand_scale,
        contention_index,
    ):
        """Who phase 1 asks, and for what: one ``(proxy, ask)`` per exchange.

        ``ask(observed_at=schedule)`` performs the exchange and returns
        the proxy's report (anything with ``.observations``).  This and
        :meth:`_price_qrg` are the two halves of a *pricing source*.
        Centrally, the owning proxies report availability and the main
        proxy prices the QRG itself.  Under §3's distributed placement
        each component's host prices its own fragment, which folds
        phase 1 into fragment computation.
        """
        if not self._fragments:
            return self._availability_exchanges(session_id, resource_ids)
        return [
            (
                host,
                partial(
                    host.price_fragment,
                    FragmentRequest(session_id, component.name, demand_scale),
                    binding,
                    contention_index=contention_index,
                ),
            )
            for component in service.components
            for host in (self.host_of_component(component.name),)
        ]

    def _availability_exchanges(self, session_id: str, resource_ids: Sequence[str]):
        """One availability request to each owning proxy, in host order."""
        request = AvailabilityRequest(
            session_id=session_id, resource_ids=tuple(resource_ids)
        )
        owners: Dict[str, QoSProxy] = {}
        for resource_id in resource_ids:
            proxy = self.proxy_for(resource_id)
            owners[proxy.host] = proxy
        return [
            (owners[host], partial(owners[host].report_availability, request))
            for host in sorted(owners)
        ]

    def _establish(
        self,
        session_id: str,
        service_name: str,
        binding: Binding,
        planner,
        *,
        component_hosts: Optional[Mapping[str, str]] = None,
        source_label: Optional[str] = None,
        demand_scale: float = 1.0,
        observed_at: Optional[ObservationSchedule] = None,
        contention_index=None,
        snapshot: Optional[AvailabilitySnapshot] = None,
    ):
        """The three phases themselves, written once.

        A generator: it yields the delays the protocol waits out and
        returns the :class:`EstablishmentResult`.  :meth:`establish`
        lets the delays pass at once, :meth:`establish_process` turns
        each into simulated time; only faults make a delay.  What a
        fault changes is left to the seams it calls -- how a phase-1
        exchange is delivered (:meth:`_deliver`, :meth:`_unreported`),
        how a phase-3 dispatch goes (:meth:`_dispatch`,
        :meth:`_roll_back`) and whether a failed dispatch is planned
        again (:meth:`_replan`).
        """
        if snapshot is not None and self._faults is not None:
            raise ModelError(
                "snapshot= establishment is unsupported under fault injection: "
                "phase 1 must run per session so message faults apply"
            )
        service = self._service_at_scale(service_name, demand_scale)
        given, reports = snapshot, ()
        excluded: Set[str] = set()
        replans = 0
        while True:
            if given is None:
                resource_ids = sorted(binding.resource_ids())
                exchanges = self._phase1_exchanges(
                    session_id,
                    service,
                    binding,
                    resource_ids,
                    demand_scale=demand_scale,
                    contention_index=contention_index,
                )
                snapshot, reports = yield from self._phase1(
                    session_id, exchanges, resource_ids, observed_at, excluded
                )
            observed_instant = _observed_instant(snapshot)

            # Phase 2: local plan computation at the main proxy.
            plan, failure = self._phase2_plan(
                session_id,
                service,
                service_name,
                binding,
                planner,
                snapshot,
                observed_instant,
                source_label=source_label,
                demand_scale=demand_scale,
                contention_index=contention_index,
                reports=reports,
            )
            if failure is not None:
                return failure

            failed_resource, failed_host = yield from self._phase3(
                session_id, self.segments(plan.demand)
            )
            if failed_resource is None and failed_host is None:
                self._start_components(session_id, component_hosts)
                self._emit_admitted(session_id, service_name, plan, observed_instant)
                return EstablishmentResult(session_id, True, plan)
            replans += 1
            if not self._replan(session_id, replans, failed_host, excluded):
                break
        if failed_host is None:
            self._emit_admission_rejected(
                session_id, service_name, plan, snapshot, observed_instant,
                failed_resource,
            )
            return EstablishmentResult(
                session_id,
                False,
                plan,
                reason="admission_failed",
                failed_resource=failed_resource,
            )
        self._emit_rejected(
            session_id, service_name, snapshot, observed_instant, "host_unreachable",
            host=failed_host,
        )
        return EstablishmentResult(session_id, False, plan, reason="host_unreachable")

    def _phase1(self, session_id, exchanges, resource_ids, observed_at, excluded=()):
        """Phase 1: deliver the exchanges; returns ``(snapshot, reports)``.

        A generator yielding the deliveries' delays.  A host in
        ``excluded`` is not asked, and a resource no report covers is
        :meth:`_unreported`'s to stand in for.
        """
        with _trace.span(PHASE1_SPAN, resources=len(resource_ids)):
            reports = []
            for proxy, ask in exchanges:
                if proxy.host in excluded:
                    continue
                report = yield from self._deliver(session_id, proxy.host, ask, observed_at)
                if report is not None:
                    reports.append(report)
            observations: Dict[str, ResourceObservation] = {}
            for report in reports:
                observations.update(report.observations)
            missing = [rid for rid in resource_ids if rid not in observations]
            if missing:
                observations.update(self._unreported(missing))
            return AvailabilitySnapshot(observations), reports

    def _phase3(self, session_id: str, segments: Mapping[str, Mapping[str, float]]):
        """Phase 3: dispatch the plan's per-host segments, then commit.

        A generator yielding the dispatches' delays; returns
        ``(failed_resource, failed_host)``, both None once every lease
        is committed.  A refused or lost dispatch rolls back the leases
        held before it.
        """
        faulty = self._faults is not None
        with _trace.span(PHASE3_SPAN, segments=len(segments)) as span:
            # Without faults nothing between the proxies is lost, so the
            # whole plan is one all-or-nothing hold.  Under faults each
            # host is one reserve/ack exchange, and one lease, in order.
            groups = (
                [{host: segments[host]} for host in sorted(segments)]
                if faulty
                else (segments,)
            )
            held: List[Lease] = []
            for group in groups:
                lease, failed_resource, failed_host = yield from self._dispatch(
                    session_id, group
                )
                if lease is None:
                    break
                held.append(lease)
            else:
                for lease in held:
                    self.leases.commit(lease)
                if faulty:
                    span.set(committed=len(held))
                return None, None
            for lease in held:
                self._roll_back(lease)
            failing = failed_host or self.proxy_for(failed_resource).host
            span.set(
                rolled_back=sorted(segments).index(failing),
                failed_resource=failed_resource,
            )
            if faulty:
                span.set(failed_host=failed_host)
            return failed_resource, failed_host

    # -- what a fault changes: the protocol's seams ---------------------------

    def _deliver(self, session_id: str, host: str, ask, observed_at):
        """One phase-1 exchange: the report, or None when it never came.

        A generator yielding the exchange's delays.  Without faults
        every message arrives, at once.  Past the injector an attempt
        may be lost -- a *timeout*, retried under seeded exponential
        backoff -- and a delivered report may be served stale and arrive
        late.
        """
        injector = self._faults
        if injector is None:
            return ask(observed_at=observed_at)
        for attempt in range(injector.config.max_retries + 1):
            fault = injector.message_fault("availability", host, session_id)
            if fault is not None:
                yield from self._lost(session_id, host, "availability", fault, attempt)
                continue
            schedule = observed_at
            age = injector.stale_age_for(host, session_id)
            if age is not None:
                schedule = self._stale_schedule(observed_at, age)
            report = ask(observed_at=schedule)
            delay = injector.message_delay("availability", host, session_id)
            if delay:
                yield delay
            return report
        return None

    def _unreported(self, missing: Sequence[str]) -> Mapping[str, ResourceObservation]:
        """Stand-ins for resources no report covered.

        Without faults that is an error.  Under faults an unreachable
        (or excluded) host reports zero availability: the planner then
        routes around it exactly as §4.3 degrades -- and rejects when
        the binding leaves no alternative.
        """
        if self._faults is None:
            raise BrokerError(f"no proxy reported resources {sorted(missing)}")
        now = self.now
        return {
            resource_id: ResourceObservation(available=0.0, alpha=1.0, observed_at=now)
            for resource_id in missing
        }

    def _dispatch(self, session_id: str, demands_by_host):
        """One phase-3 dispatch, as ``(lease, failed_resource, failed_host)``.

        A generator yielding the dispatch's delays.  Returns the held
        lease, or the resource a broker refused, or the host that never
        answered.  Under faults a dispatch is one host's reserve/ack
        exchange with bounded retries.  A reservation whose ack was lost
        exists host-side but is unknown to the main proxy: it is
        compensated with a release order, and orphaned for the reaper
        when that release is lost too.
        """
        injector = self._faults
        if injector is None:
            lease, refusal = self._hold(session_id, demands_by_host)
            if refusal is not None:
                return None, refusal.resource_id, None
            return lease, None, None
        (host,) = demands_by_host
        for attempt in range(injector.config.max_retries + 1):
            fault = injector.message_fault("reserve", host, session_id)
            if fault is not None:
                yield from self._lost(session_id, host, "reserve", fault, attempt)
                continue
            lease, refusal = self._hold(session_id, demands_by_host)
            if refusal is not None:
                return None, refusal.resource_id, None
            fault = injector.message_fault("ack", host, session_id)
            if fault is None:
                delay = injector.message_delay("ack", host, session_id)
                if delay:
                    yield delay
                return lease, None, None
            yield from self._lost(session_id, host, "reserve", fault, attempt, lease)
        return None, None, host

    def _roll_back(self, lease: Lease) -> None:
        """Undo a lease held before a later dispatch failed.

        When the release order is lost the lease is orphaned instead:
        the reaper reclaims it once its TTL expires (on a DES clock, a
        watchdog does so on time), so no capacity leaks past the TTL.
        """
        injector = self._faults
        if injector is None or injector.message_fault(
            "release", lease.host, lease.session_id
        ) is None:
            self.leases.release(lease)
            return
        self.leases.orphan(lease)
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.leases_orphaned").inc()
        if self._env is not None:
            self._env.process(self._lease_watchdog(lease))

    def _replan(self, session_id: str, attempt: int, failed_host, excluded) -> bool:
        """Whether a failed dispatch is planned again (§4.3's degradation).

        Only under faults, on fresh observations, up to ``max_replans``
        times.  A host that stopped answering is excluded from every
        later phase 1.  Its skeletons are stale (replans and later
        sessions see it as zero availability, and a recovered host may
        rebind); every other service keeps its warm cache entry.
        """
        if failed_host is not None:
            excluded.add(failed_host)
            self.invalidate_qrg_cache_for_host(failed_host)
        if attempt > self._max_replans:
            return False
        reason = "admission_failed" if failed_host is None else "host_unreachable"
        self._note(
            "session.replanned", "coordinator.replans", "reason", session_id,
            reason=reason, attempt=attempt, excluded=sorted(excluded),
        )
        return True

    def _stale_schedule(self, base: Optional[ObservationSchedule], age: float):
        """An observation schedule aged by an injected stale report."""
        when = max(0.0, self.now - age)

        def schedule(resource_id: str) -> Optional[float]:
            earlier = base(resource_id) if base is not None else None
            return when if earlier is None else min(earlier, when)

        return schedule

    def _lost(self, session_id, host, phase, fault, attempt, unacked=None):
        """A lost message: its timeout, then a retry while attempts remain.

        A generator yielding the retry's seeded exponential backoff.
        ``phase`` names the exchange retried.  A lease whose ack was lost
        (``unacked``) times out as ``ack`` and is compensated with a
        release order before the reserve is retried.
        """
        self._note(
            "segment.timeout", "coordinator.segment_timeouts", "phase", session_id,
            host=host, phase=phase if unacked is None else "ack", fault=fault,
            attempt=attempt,
        )
        if unacked is not None:
            self._roll_back(unacked)
        if attempt < self._faults.config.max_retries:
            self._note(
                "segment.retry", "coordinator.segment_retries", "phase", session_id,
                host=host, phase=phase, attempt=attempt + 1,
            )
            yield self._faults.backoff(attempt)

    def _note(self, kind: str, counter: str, label: str, session_id: str, **detail):
        """One step of the recovery policy: its causal event, and its
        counter labelled with the event's ``label`` attribute."""
        _events.emit(kind, session=session_id, time=self.now, **detail)
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter(counter, **{label: detail[label]}).inc()

    # -- leases and the orphan reaper ---------------------------------------

    def pending_leases(self) -> Tuple[Lease, ...]:
        """Leases not yet committed, released or reclaimed, in lease-id order."""
        return self.leases.pending()

    def _lease_watchdog(self, lease: Lease):
        """DES process reclaiming one orphan when its TTL expires."""
        yield self._env.timeout(max(0.0, lease.expires_at - self._env.now))
        self.reap_orphans(now=lease.expires_at)

    def reap_orphans(self, *, now: Optional[float] = None, force: bool = False) -> int:
        """Reclaim expired orphans (all of them with ``force``).

        The DES watchdogs normally do this on time; the explicit form
        serves the synchronous driver and end-of-run cleanup before
        :meth:`~repro.brokers.registry.BrokerRegistry.assert_quiescent`.
        """
        reaped = self.leases.reap(now, force)
        for lease, released in reaped:
            self.leases_reaped += 1
            _events.emit(
                "lease.expired",
                session=lease.session_id,
                time=self.now,
                host=lease.host,
                lease=lease.lease_id,
                released=released,
            )
            registry = _metrics.active_registry()
            if registry is not None:
                registry.counter("coordinator.leases_expired").inc()
        return len(reaped)

    def _phase2_plan(
        self,
        session_id: str,
        service,
        service_name: str,
        binding: Binding,
        planner,
        snapshot: AvailabilitySnapshot,
        observed_instant: Optional[float],
        *,
        source_label: Optional[str],
        demand_scale: float,
        contention_index,
        reports: Sequence = (),
    ):
        """Phase 2 with its span and causal emissions, shared with
        :meth:`plan_session`.

        The QRG skeleton (nodes, equivalence edges, bound requirement
        vectors) depends only on (service, binding, demand_scale), so it
        comes from the cache; only feasibility filtering and psi pricing
        run against this session's snapshot.  Returns ``(plan, None)``
        on success and ``(None, EstablishmentResult)`` on failure.
        """
        with _trace.span(PHASE2_SPAN):
            try:
                qrg = self._price_qrg(
                    service,
                    binding,
                    snapshot,
                    source_label=source_label,
                    demand_scale=demand_scale,
                    contention_index=contention_index,
                    reports=reports,
                )
            except PlanningError as exc:
                self._emit_rejected(
                    session_id, service_name, snapshot, observed_instant, "qrg",
                    detail=str(exc),
                )
                return None, EstablishmentResult(
                    session_id, False, None, reason=f"qrg: {exc}"
                )
            return self._plan_priced(
                session_id, service_name, planner, qrg, snapshot, observed_instant
            )

    def _price_qrg(
        self,
        service,
        binding: Binding,
        snapshot: AvailabilitySnapshot,
        *,
        source_label: Optional[str],
        demand_scale: float,
        contention_index,
        reports: Sequence = (),
    ):
        """Phase 2b: the priced QRG of this session's snapshot.

        Centrally a cached skeleton is priced against the snapshot
        merged from phase 1's replies.  Under §3's distributed placement
        the replies (``reports``) are the hosts' priced fragments, which
        are stitched into the full QRG; the snapshot-driven entry points
        bring none, and are refused with a ``qrg:`` reason.
        """
        if self._fragments:
            if not reports:
                raise PlanningError("no component fragments to stitch")
            source_level = resolve_source_level(service, source_label)
            intra_edges = [edge for fragment in reports for edge in fragment.edges]
            return assemble_qrg(service, source_level, intra_edges, snapshot)
        skeleton = self.qrg_skeletons.skeleton_for(
            service, binding, source_label=source_label, extra=(demand_scale,)
        )
        return price_skeleton(skeleton, snapshot, contention_index=contention_index)

    def _emit_rejected(
        self,
        session_id: str,
        service_name: str,
        snapshot: AvailabilitySnapshot,
        observed_instant: Optional[float],
        reason: str,
        **detail,
    ) -> None:
        """The causal record of a rejection made without a plan's demand
        (no QRG, no feasible plan, an unreachable host)."""
        log = _events.active_event_log()
        if log is not None:
            log.emit(
                "session.rejected",
                session=session_id,
                time=observed_instant,
                service=service_name,
                reason=reason,
                **detail,
                available=snapshot.availability(),
            )

    def _plan_priced(
        self,
        session_id: str,
        service_name: str,
        planner,
        qrg,
        snapshot: AvailabilitySnapshot,
        observed_instant: Optional[float],
    ) -> Tuple[Optional[ReservationPlan], Optional[EstablishmentResult]]:
        """Run the planner on a priced QRG and emit the causal outcome."""
        log = _events.active_event_log()
        plan = planner.plan(qrg)
        if plan is None:
            self._emit_rejected(
                session_id, service_name, snapshot, observed_instant, "no_feasible_plan"
            )
            return None, EstablishmentResult(
                session_id, False, None, reason="no_feasible_plan"
            )
        if log is not None:
            requested = dict(plan.demand)
            log.emit(
                "session.planned",
                session=session_id,
                time=observed_instant,
                service=service_name,
                level=plan.end_to_end_label,
                rank=plan.end_to_end_rank,
                psi=plan.psi,
                bottleneck=plan.bottleneck_resource,
                bottleneck_alpha=plan.bottleneck_alpha,
                requested=requested,
                available={r: snapshot[r].available for r in requested},
            )
        return plan, None

    # -- batches (one phase-1 round for N arrivals) -----------------------------

    def _collect_batch_snapshot(
        self,
        requests: Sequence[SessionRequest],
        observed_at: Optional[ObservationSchedule],
    ) -> AvailabilitySnapshot:
        """One phase-1 round covering the union of the batch's resources."""
        union = sorted(
            {rid for request in requests for rid in request.binding.resource_ids()}
        )
        session_id = f"batch[{len(requests)}]"
        exchanges = self._availability_exchanges(session_id, union)
        return _run(self._phase1(session_id, exchanges, union, observed_at))[0]

    def establish_batch(
        self,
        requests: Iterable[SessionRequest],
        planner,
        *,
        snapshot: Optional[AvailabilitySnapshot] = None,
        observed_at: Optional[ObservationSchedule] = None,
        contention_index=None,
    ) -> List[EstablishmentResult]:
        """Establish N concurrent arrivals against one availability snapshot.

        What a batch shares is phase 1: one round over the union of the
        batch's resources (unless ``snapshot`` is given).  Every arrival
        is then an ordinary :meth:`establish` against that snapshot, in
        request order, each seeing the reservations of the ones before
        it -- phase 2 runs once per session, as in the paper.  Arrivals
        under faults or over §3's component hosts share no snapshot:
        each runs its own phase 1, and a given ``snapshot`` is refused
        as :meth:`establish` refuses it.
        """
        requests = list(requests)
        shared = self._faults is None and not self._fragments
        if snapshot is None and requests and shared:
            snapshot = self._collect_batch_snapshot(requests, observed_at)
        return [
            self.establish(
                request.session_id,
                request.service_name,
                request.binding,
                planner,
                component_hosts=request.component_hosts,
                source_label=request.source_label,
                demand_scale=request.demand_scale,
                observed_at=observed_at,
                contention_index=contention_index,
                snapshot=snapshot,
            )
            for request in requests
        ]

    def _emit_admission_rejected(
        self,
        session_id: str,
        service_name: str,
        plan: ReservationPlan,
        observations: Mapping[str, ResourceObservation],
        observed_instant: Optional[float],
        resource_id: Optional[str],
    ) -> None:
        """The causal record of a phase-3 admission failure."""
        log = _events.active_event_log()
        if log is not None:
            requested = dict(plan.demand)
            log.emit(
                "session.rejected",
                session=session_id,
                resource=resource_id,
                time=observed_instant,
                service=service_name,
                reason="admission_failed",
                psi=plan.psi,
                requested=requested,
                available={r: observations[r].available for r in requested},
            )

    def _start_components(
        self, session_id: str, component_hosts: Optional[Mapping[str, str]]
    ) -> None:
        """Start the admitted session's components on their hosts."""
        if not component_hosts:
            return
        by_host: Dict[str, List[str]] = {}
        for component, host in component_hosts.items():
            by_host.setdefault(host, []).append(component)
        for host, components in by_host.items():
            proxy = self.proxies.get(host)
            if proxy is not None:
                proxy.start_components(session_id, sorted(components))

    def _emit_admitted(
        self,
        session_id: str,
        service_name: str,
        plan: ReservationPlan,
        observed_instant: Optional[float],
    ) -> None:
        """The causal records of a successful establishment."""
        log = _events.active_event_log()
        if log is None:
            return
        log.emit(
            "session.admitted",
            session=session_id,
            time=observed_instant,
            service=service_name,
            level=plan.end_to_end_label,
            rank=plan.end_to_end_rank,
            numeric_level=plan.numeric_level,
            psi=plan.psi,
            bottleneck=plan.bottleneck_resource,
        )
        if plan.end_to_end_rank > 0:
            # Admitted below the service's top end-to-end level: the
            # degradation the trade-off policy exchanges for success
            # rate.  Recorded as its own causal event so "why was this
            # session downgraded" is answerable from the exported log.
            log.emit(
                "session.degraded",
                session=session_id,
                time=observed_instant,
                service=service_name,
                level=plan.end_to_end_label,
                rank=plan.end_to_end_rank,
                psi=plan.psi,
                bottleneck=plan.bottleneck_resource,
            )

    def establish_process(self, env, /, session_id: str, service_name: str, *args, **kwargs):
        """Generator flavour of :meth:`establish`: its delays are simulated time.

        Every delay the protocol waits out (a fault boundary's message
        delays and retry backoff) becomes an ``env.timeout``, so a crash
        window can pass while a session backs off; a session that meets
        no delay runs at one instant, as :meth:`establish` would.  The
        session's steps run in a :class:`contextvars.Context` of its own:
        suspended mid-protocol, it keeps its open spans off the stack
        that other sessions' spans nest under.  Yields DES timeouts;
        returns the result.
        """
        steps = self._accounted(session_id, service_name, *args, **kwargs)
        step = _contextvars.copy_context().run
        while True:
            try:
                delay = step(next, steps)
            except StopIteration as stop:
                return stop.value
            if delay:
                yield env.timeout(delay)

    # -- adaptive renegotiation (§5 / §4.3) ------------------------------------

    def renegotiate(
        self,
        session_id: str,
        service_name: str,
        binding: Binding,
        planner,
        *,
        component_hosts: Optional[Mapping[str, str]] = None,
        source_label: Optional[str] = None,
        demand_scale: float = 1.0,
        observed_at: Optional[ObservationSchedule] = None,
        contention_index=None,
        trigger: str = "drift",
        previous_level: Optional[int] = None,
        now: Optional[float] = None,
    ) -> RenegotiationResult:
        """Re-plan a *live* session against current availability.

        The §5 adaptation loop: release what the session holds, run the
        three-phase establishment again with fresh observations (the
        §4.3 downgrade/upgrade path picks whatever end-to-end level is
        now feasible), and emit one ``session.renegotiated`` causal
        record.  When the fresh establishment is rejected, the original
        reservations are restored (best effort -- if a competing session
        won the race for the freed capacity, the session is dropped).

        ``trigger`` names what asked for the renegotiation (``drift``,
        ``slo:<name>``, ...); ``previous_level`` is the numeric level
        the session held, used to classify the outcome; ``now`` is the
        simulation clock to stamp on the causal record.
        """
        with _trace.span("renegotiate", session=session_id, trigger=trigger) as span:
            if session_id in self._tearing_down:
                span.set(outcome="torn_down")
                result = EstablishmentResult(
                    session_id, False, None, reason="torn_down"
                )
                return RenegotiationResult(
                    session_id, "torn_down", result, previous_level=previous_level
                )
            # Snapshot what the session holds, per proxy host, so the
            # reservation can be put back if re-planning fails.
            held: Dict[str, Dict[str, float]] = {}
            for host in sorted(self.proxies):
                demands: Dict[str, float] = {}
                for reservation in self.proxies[host].held_for(session_id):
                    demands[reservation.resource_id] = (
                        demands.get(reservation.resource_id, 0.0) + reservation.amount
                    )
                if demands:
                    held[host] = demands
            if not held:
                span.set(outcome="unknown_session")
                result = EstablishmentResult(
                    session_id, False, None, reason="unknown_session"
                )
                return RenegotiationResult(
                    session_id, "unknown_session", result, previous_level=previous_level
                )
            for host in held:
                self.proxies[host].release_session(session_id)

            result = self.establish(
                session_id,
                service_name,
                binding,
                planner,
                component_hosts=component_hosts,
                source_label=source_label,
                demand_scale=demand_scale,
                observed_at=observed_at,
                contention_index=contention_index,
            )
            restored = False
            new_level = result.qos_level
            if result.success:
                if previous_level is None or new_level == previous_level:
                    outcome = "unchanged"
                elif new_level is not None and new_level > previous_level:
                    outcome = "upgraded"
                else:
                    outcome = "downgraded"
            else:
                restored = self._restore_reservations(session_id, held)
                if restored:
                    self._start_components(session_id, component_hosts)
                    new_level = previous_level
                outcome = "failed_restored" if restored else "failed_dropped"
            span.set(outcome=outcome)

            registry = _metrics.active_registry()
            if registry is not None:
                self._instruments.counter(
                    registry, "monitor.renegotiations", outcome=outcome
                ).inc()
            log = _events.active_event_log()
            if log is not None:
                log.emit(
                    "session.renegotiated",
                    session=session_id,
                    time=now,
                    service=service_name,
                    trigger=trigger,
                    outcome=outcome,
                    previous_level=previous_level,
                    new_level=new_level,
                    restored=restored,
                )
            return RenegotiationResult(
                session_id,
                outcome,
                result,
                previous_level=previous_level,
                new_level=new_level,
                restored=restored,
            )

    def _restore_reservations(
        self, session_id: str, held: Mapping[str, Mapping[str, float]]
    ) -> bool:
        """Best-effort re-application of a released reservation snapshot.

        Returns True when every host's demands were re-admitted; on an
        admission refusal nothing is restored (the session ends up
        holding nothing) and False is returned.
        """
        lease, _refusal = self._hold(session_id, held)
        if lease is None:
            return False
        self.leases.commit(lease)
        return True

    def _hold(
        self, session_id: str, demands_by_host: Mapping[str, Mapping[str, float]]
    ) -> Tuple[Optional[Lease], Optional[AdmissionError]]:
        """:meth:`LeaseTable.hold` with a refusal as a value.

        ``(lease, None)`` when everything was held, ``(None, refusal)``
        when a broker said no (nothing stays held either way a refusal
        is reported); any other exception propagates.
        """
        try:
            return self.leases.hold(session_id, demands_by_host), None
        except AdmissionError as refusal:
            return None, refusal

    # -- tear-down -------------------------------------------------------------

    def teardown(self, session_id: str) -> int:
        """Release everything every proxy holds for the session.

        Only the proxies that hold something for it are asked, in the
        proxies' order: on a §5.1 grid that is about 3 of 12.  The
        session's orphaned leases still sit in the proxies' held lists,
        so this releases them too; dropping their records first turns
        the pending watchdogs into no-ops.
        """
        self.leases.drop_session(session_id)
        with _trace.span("teardown", session=session_id) as span:
            released = 0
            self._tearing_down.add(session_id)
            try:
                for proxy in self.proxies.values():
                    if proxy.holds(session_id):
                        released += proxy.release_session(session_id)
            finally:
                self._tearing_down.discard(session_id)
            span.set(released=released)
            registry = _metrics.active_registry()
            if registry is not None:
                self._instruments.counter(registry, "coordinator.teardowns").inc()
            return released

    # -- caching --------------------------------------------------------------

    def _service_at_scale(self, service_name: str, demand_scale: float):
        """The stored definition, requirement-scaled for "fat" sessions.

        Scaled variants are memoised per (name, factor): the evaluation
        uses a handful of discrete multipliers (§5.1's N in {2, 10}), so
        rebuilding the scaled component list per session is pure waste.
        The memo is bounded like the skeleton cache, because the wire
        accepts any positive factor.  Under §3's distributed placement
        the stored structure is scale-free: each host scales its own
        component.
        """
        if demand_scale == 1.0 or self._fragments:
            return self.model_store.service(service_name)
        key = (service_name, demand_scale)
        service = self._scaled_services.get(key)
        if service is None:
            service = _scaled_service(self.model_store.service(service_name), demand_scale)
            memoise_bounded(self._scaled_services, key, service)
        return service

    def invalidate_qrg_cache_for_host(self, host: str) -> int:
        """Drop cached skeletons bound to resources the host's proxy owns.

        A failed (or decommissioned) host only stales the skeletons whose
        binding touches its resources, so every other service keeps its
        warm cache entry across the fault.  Returns the number dropped;
        unknown hosts drop nothing.
        """
        proxy = self.proxies.get(host)
        if proxy is None:
            return 0
        return self.qrg_skeletons.invalidate_resources(proxy.owned_resources())

    # -- helpers --------------------------------------------------------------

    def segments(self, demand: Mapping[str, float]) -> Dict[str, Dict[str, float]]:
        """Split a resource demand into per-host segments (host -> demands).

        Phase 3 dispatches these; a sharded daemon's ``/v1/reserve``
        holds them as one lease.
        """
        per_host: Dict[str, Dict[str, float]] = {}
        for resource_id in demand:
            host = self.proxy_for(resource_id).host
            per_host.setdefault(host, {})[resource_id] = demand[resource_id]
        return per_host


def _observed_instant(snapshot: AvailabilitySnapshot) -> Optional[float]:
    """The instant a snapshot describes (== env.now for fresh probes).

    The causal log timestamps a session's events with it.
    """
    return max(
        (obs.observed_at for obs in snapshot.values() if obs.observed_at is not None),
        default=None,
    )


def _run(steps):
    """Drive a protocol generator to its result, its delays passing at once."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def _scaled_service(service, factor: float):
    """A copy of the service with every translation scaled by ``factor``."""
    from repro.core.service import DistributedService

    components = [
        component.with_translation(ScaledTranslation(component.translation, factor))
        for component in service.components
    ]
    return DistributedService(service.name, components, service.graph, service.ranking)


