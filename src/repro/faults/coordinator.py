"""Fault-tolerant session establishment (the recovery half of PR 4).

:class:`FaultTolerantCoordinator` layers the recovery policy of
:class:`~repro.faults.plan.FaultConfig` on the three-phase protocol of
:class:`~repro.runtime.coordinator.ReservationCoordinator`:

* every phase-1 availability exchange and phase-3 segment dispatch is
  routed past the :class:`~repro.faults.injector.FaultInjector`; a lost
  message is a *timeout* (``segment.timeout``), answered with bounded
  retries under seeded exponential backoff (``segment.retry``);
* phase 3 becomes two-phase reserve/commit: each applied segment is a
  :class:`~repro.runtime.leases.Lease` until the whole session commits.
  A lease whose rollback-release (or whose ack) is lost is *orphaned* --
  left to the lease table's reaper and reclaimed when its TTL expires
  (``lease.expired``), so no capacity leaks past the lease TTL;
* a failed establishment degrades gracefully (§4.3): re-plan on fresh
  observations (accepting a lower sink), excluding a host whose proxy
  stopped answering (``session.replanned``), up to ``max_replans``.

Byte-identity contract: with a zero :class:`FaultPlan` every entry point
delegates verbatim to the parent coordinator -- same code path, same
spans, same events, same results -- which the regression tests assert.

The establishment core is a *generator* yielding backoff delays: the
synchronous driver (:meth:`FaultTolerantCoordinator._establish`)
discards them (retries happen at the same instant), while the DES
driver (:meth:`FaultTolerantCoordinator.establish_process`) turns each
into a real ``env.timeout`` so crash/partition windows can pass while a
session backs off.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.brokers.registry import BrokerRegistry
from repro.core.component import Binding
from repro.core.errors import ModelError
from repro.core.resources import AvailabilitySnapshot, ResourceObservation
from repro.faults.injector import FaultInjector
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.runtime.coordinator import (
    EstablishmentResult,
    ObservationSchedule,
    ReservationCoordinator,
)
from repro.runtime.distributed import DistributedCoordinator
from repro.runtime.leases import Lease, LeaseTable
from repro.runtime.model_store import ModelStore
from repro.runtime.proxy import QoSProxy

__all__ = ["Lease", "FaultTolerantCoordinator", "FaultTolerantDistributedCoordinator"]


class FaultTolerantCoordinator(ReservationCoordinator):
    """The three-phase protocol with timeouts, retries, leases, replans."""

    def __init__(
        self,
        registry: BrokerRegistry,
        model_store: ModelStore,
        proxies: Mapping[str, QoSProxy],
        *,
        injector: Optional[FaultInjector] = None,
        env=None,
    ) -> None:
        super().__init__(registry, model_store, proxies)
        self.injector = injector if injector is not None else FaultInjector.disabled()
        self._env = env
        #: Phase-3 leases on this coordinator's clock; orphans await the reaper.
        self.leases = LeaseTable(
            self.proxies, lambda: self.now, self.injector.config.lease_ttl
        )
        #: Total orphaned leases reclaimed (watchdogs + explicit reaps).
        self.leases_reaped = 0

    # -- clock / bookkeeping ----------------------------------------------

    @property
    def now(self) -> float:
        """The coordinator's clock (DES time when attached to an env)."""
        return self._env.now if self._env is not None else self.injector.now

    def pending_leases(self) -> Tuple[Lease, ...]:
        """Leases not yet committed, released or reclaimed, in lease-id order."""
        return self.leases.pending()

    # -- entry points ------------------------------------------------------

    def _establish(self, *args, **kwargs) -> EstablishmentResult:
        """Synchronous driver: backoff delays collapse to the same instant."""
        if self.injector.is_zero:
            return super()._establish(*args, **kwargs)
        if kwargs.pop("snapshot", None) is not None:
            raise ModelError(
                "snapshot= establishment is unsupported under fault injection: "
                "phase 1 must run per session so message faults apply"
            )
        gen = self._ft_establish(*args, **kwargs)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    def establish_batch(self, requests, planner, **kwargs):
        """A batch shares no snapshot under a non-zero fault plan.

        Faults are injected per message, so one shared phase-1 round
        would mask exactly the timeouts, stale reports and retries the
        plan asks for: every arrival runs the tolerant protocol with a
        phase 1 of its own.  A zero plan inherits the parent's batch.
        """
        if self.injector.is_zero:
            return super().establish_batch(requests, planner, **kwargs)
        kwargs.pop("snapshot", None)
        return [
            self.establish(
                request.session_id,
                request.service_name,
                request.binding,
                planner,
                component_hosts=request.component_hosts,
                source_label=request.source_label,
                demand_scale=request.demand_scale,
                **kwargs,
            )
            for request in list(requests)
        ]

    def establish_process(self, env, latency: float, /, *args, **kwargs):
        """DES driver: backoff delays become real simulated waiting."""
        if self.injector.is_zero:
            result = yield from super().establish_process(env, latency, *args, **kwargs)
            return result
        kwargs = yield from self._after_latency(env, latency, kwargs)
        with self._establish_accounting(args[0], args[1]) as settle:
            steps = self._ft_establish(*args, **kwargs)
            while True:
                try:
                    delay = next(steps)
                except StopIteration as stop:
                    return settle(stop.value)
                if delay:
                    yield env.timeout(delay)

    # -- the fault-tolerant protocol core ----------------------------------

    def _ft_establish(
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
    ):
        """Generator running the tolerant protocol; yields backoff delays."""
        config = self.injector.config
        service = self._service_at_scale(service_name, demand_scale)
        resource_ids = sorted(binding.resource_ids())
        excluded: Set[str] = set()
        replans = 0
        while True:
            # Phase 1: availability, with per-proxy timeouts and retries.
            # An unreachable (or replan-excluded) host is represented by
            # zero availability for its resources: the planner then
            # routes around it exactly as §4.3 degrades -- and rejects
            # when the binding leaves no alternative.
            observations: Dict[str, ResourceObservation] = {}
            reports: List = []
            exchanges = self._phase1_exchanges(
                session_id,
                service,
                binding,
                resource_ids,
                demand_scale=demand_scale,
                contention_index=contention_index,
            )
            with _trace.span("phase1_availability", resources=len(resource_ids)):
                for proxy, ask in exchanges:
                    if proxy.host in excluded:
                        continue
                    for attempt in range(config.max_retries + 1):
                        fault = self.injector.message_fault(
                            "availability", proxy.host, session_id
                        )
                        if fault is None:
                            schedule = observed_at
                            age = self.injector.stale_age_for(proxy.host, session_id)
                            if age is not None:
                                schedule = self._stale_schedule(observed_at, age)
                            report = ask(observed_at=schedule)
                            delay = self.injector.message_delay(
                                "availability", proxy.host, session_id
                            )
                            if delay:
                                yield delay
                            reports.append(report)
                            observations.update(report.observations)
                            break
                        self._note_timeout(
                            session_id, proxy.host, "availability", fault, attempt
                        )
                        if attempt < config.max_retries:
                            self._note_retry(
                                session_id, proxy.host, "availability", attempt + 1
                            )
                            yield self.injector.backoff(attempt)
                now = self.now
                for resource_id in resource_ids:
                    if resource_id not in observations:
                        observations[resource_id] = ResourceObservation(
                            available=0.0, alpha=1.0, observed_at=now
                        )
                snapshot = AvailabilitySnapshot(observations)
            observed_instant = max(
                (obs.observed_at for obs in observations.values()), default=None
            )

            # Phase 2: identical to the plain coordinator (shared helper).
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

            # Phase 3: two-phase reserve/commit per segment.
            segments = self._segments(plan.demand)
            committed: List[Lease] = []
            failed_resource: Optional[str] = None
            failed_host: Optional[str] = None
            with _trace.span("phase3_dispatch", segments=len(segments)) as dispatch_span:
                for host in sorted(segments):
                    outcome, detail = yield from self._dispatch_segment(
                        session_id, host, segments[host]
                    )
                    if outcome == "committed":
                        committed.append(detail)
                        continue
                    if outcome == "admission_failed":
                        failed_resource = detail
                    else:
                        failed_host = detail
                    break
                if failed_resource is None and failed_host is None:
                    for lease in committed:
                        self.leases.commit(lease)
                    dispatch_span.set(committed=len(committed))
                    self._start_components(session_id, component_hosts)
                    self._emit_admitted(session_id, service_name, plan, observed_instant)
                    return EstablishmentResult(session_id, True, plan)
                for lease in committed:
                    self._release_or_orphan(lease)
                dispatch_span.set(
                    rolled_back=len(committed),
                    failed_resource=failed_resource,
                    failed_host=failed_host,
                )

            # Graceful degradation: re-plan (fresh observations = lower
            # sink per §4.3), excluding a host that stopped answering.
            reason = "admission_failed" if failed_resource is not None else "host_unreachable"
            if failed_host is not None:
                excluded.add(failed_host)
                # The unreachable host's skeletons are stale (replans and
                # later sessions see it as zero availability, and a
                # recovered host may rebind); every other service keeps
                # its warm cache entry -- see the per-host regression
                # test in tests/test_faults.py.
                self.invalidate_qrg_cache_for_host(failed_host)
            if replans < config.max_replans:
                replans += 1
                self._note_replan(session_id, reason, replans, excluded)
                continue
            if reason == "admission_failed":
                self._emit_admission_rejected(
                    session_id, service_name, plan, observations, observed_instant,
                    failed_resource,
                )
                return EstablishmentResult(
                    session_id,
                    False,
                    plan,
                    reason="admission_failed",
                    failed_resource=failed_resource,
                )
            log = _events.active_event_log()
            if log is not None:
                log.emit(
                    "session.rejected",
                    session=session_id,
                    time=observed_instant,
                    service=service_name,
                    reason="host_unreachable",
                    host=failed_host,
                    available=snapshot.availability(),
                )
            return EstablishmentResult(
                session_id, False, plan, reason="host_unreachable"
            )

    def _dispatch_segment(self, session_id: str, host: str, demands: Mapping[str, float]):
        """One segment's reserve/ack exchange with bounded retries.

        Returns ``("committed", Lease)``, ``("admission_failed",
        resource_id)``, or ``("unreachable", host)``.  A reservation
        whose ack was lost exists host-side but is unknown to the main
        proxy: it is compensated with a release order -- and orphaned
        for the reaper when that release is lost too.
        """
        config = self.injector.config
        for attempt in range(config.max_retries + 1):
            fault = self.injector.message_fault("reserve", host, session_id)
            if fault is None:
                lease, refusal = self._hold(session_id, {host: demands})
                if refusal is not None:
                    return ("admission_failed", refusal.resource_id)
                ack_fault = self.injector.message_fault("ack", host, session_id)
                if ack_fault is None:
                    delay = self.injector.message_delay("ack", host, session_id)
                    if delay:
                        yield delay
                    return ("committed", lease)
                self._note_timeout(session_id, host, "ack", ack_fault, attempt)
                self._release_or_orphan(lease)
            else:
                self._note_timeout(session_id, host, "reserve", fault, attempt)
            if attempt < config.max_retries:
                self._note_retry(session_id, host, "reserve", attempt + 1)
                yield self.injector.backoff(attempt)
        return ("unreachable", host)

    # -- leases and the orphan reaper ---------------------------------------

    def _release_or_orphan(self, lease: Lease) -> None:
        """Roll a lease back -- or orphan it when the release is lost."""
        fault = self.injector.message_fault("release", lease.host, lease.session_id)
        if fault is None:
            self.leases.release(lease)
            return
        self.leases.orphan(lease)
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.leases_orphaned").inc()
        if self._env is not None:
            self._env.process(self._lease_watchdog(lease))

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

    def teardown(self, session_id: str) -> int:
        """Tear the session down and retire its orphaned leases.

        The orphans' reservations still sit in the proxies' held lists,
        so the parent teardown releases them; dropping the lease records
        first turns the pending watchdogs into no-ops.
        """
        self.leases.drop_session(session_id)
        return super().teardown(session_id)

    # -- small helpers -------------------------------------------------------

    def _stale_schedule(self, base: Optional[ObservationSchedule], age: float):
        """An observation schedule aged by an injected stale report."""
        when = max(0.0, self.now - age)

        def schedule(resource_id: str) -> Optional[float]:
            earlier = base(resource_id) if base is not None else None
            return when if earlier is None else min(earlier, when)

        return schedule

    def _note_timeout(
        self, session_id: str, host: str, phase: str, fault: str, attempt: int
    ) -> None:
        _events.emit(
            "segment.timeout",
            session=session_id,
            time=self.now,
            host=host,
            phase=phase,
            fault=fault,
            attempt=attempt,
        )
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.segment_timeouts", phase=phase).inc()

    def _note_retry(self, session_id: str, host: str, phase: str, attempt: int) -> None:
        _events.emit(
            "segment.retry",
            session=session_id,
            time=self.now,
            host=host,
            phase=phase,
            attempt=attempt,
        )
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.segment_retries", phase=phase).inc()

    def _note_replan(
        self, session_id: str, reason: str, attempt: int, excluded: Set[str]
    ) -> None:
        _events.emit(
            "session.replanned",
            session=session_id,
            time=self.now,
            reason=reason,
            attempt=attempt,
            excluded=sorted(excluded),
        )
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.replans", reason=reason).inc()


class FaultTolerantDistributedCoordinator(FaultTolerantCoordinator, DistributedCoordinator):
    """The distributed (§3) coordinator behind the same fault boundary.

    :class:`FaultTolerantCoordinator`'s protocol over
    :class:`~repro.runtime.distributed.DistributedCoordinator`'s pricing
    source: a fragment request plays the phase-1 exchange (the component
    host answers or it does not -- a component whose host never answers
    has no priced edges, so no plan is feasible), and dispatch, leases,
    reaping and tear-down are the fault boundary's own.  Without an
    ``env`` the synchronous recovery policy applies: bounded retries at
    the same instant, orphans reclaimed by :meth:`reap_orphans`.
    """
