"""Fault-tolerant session establishment: the recovery policy.

:class:`FaultTolerantCoordinator` runs the one three-phase protocol of
:class:`~repro.runtime.coordinator.ReservationCoordinator` under the
recovery policy of :class:`~repro.faults.plan.FaultConfig`.  It keeps no
copy of the phases; it overrides only the seams a fault changes:

* how one phase-1 exchange is delivered
  (:meth:`~FaultTolerantCoordinator._deliver`): past the
  :class:`~repro.faults.injector.FaultInjector`, a lost message is a
  *timeout* (``segment.timeout``), answered with bounded retries under
  seeded exponential backoff (``segment.retry``); a delivered one may
  be delayed or stale, and a host that never answered reports zero
  availability (:meth:`~FaultTolerantCoordinator._unreported`);
* how one phase-3 segment is dispatched: a reserve/ack exchange per
  host, each applied segment a :class:`~repro.runtime.leases.Lease`
  until the whole session commits.  A lease whose rollback-release (or
  whose ack) is lost is *orphaned* -- left to the lease table's reaper
  and reclaimed when its TTL expires (``lease.expired``), so no
  capacity leaks past the lease TTL;
* how many re-plans a failure gets: graceful degradation (§4.3)
  re-plans on fresh observations (accepting a lower sink), excluding a
  host whose proxy stopped answering (``session.replanned``), up to
  ``max_replans``;
* whether a batch may share one phase-1 snapshot.

The protocol is a generator yielding the delays of backoff and delayed
messages: the synchronous driver (:meth:`establish`) lets them pass at
once (retries happen at the same instant), while the DES driver
(:meth:`establish_process`) turns each into a real ``env.timeout`` so
crash/partition windows can pass while a session backs off.

Zero-fault byte-identity: a zero :class:`FaultPlan` runs the same code,
and its injector neither fires nor draws.  It sets the plain protocol's
policy values -- no re-plan, a batch shares one snapshot, the dispatch
span names no commit count or lost host -- so spans, events and results
equal the plain coordinator's, which the regression tests assert.
"""

from __future__ import annotations

from typing import Mapping, Optional, Set, Tuple

from repro.brokers.registry import BrokerRegistry
from repro.core.resources import ResourceObservation
from repro.faults.injector import FaultInjector
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.runtime.coordinator import ObservationSchedule, ReservationCoordinator
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
        # A plan that can fire nothing keeps the plain protocol's policy:
        # no re-plan, a batch shares one phase-1 snapshot (faults are
        # injected per message, so sharing one round would mask the
        # timeouts, stale reports and retries a faulty plan asks for),
        # and the dispatch span names no commit count or lost host.
        faulty = not self.injector.is_zero
        self._max_replans = self.injector.config.max_replans if faulty else 0
        self._shares_snapshots = not faulty
        self._dispatch_detail = faulty

    # -- clock / bookkeeping ----------------------------------------------

    @property
    def now(self) -> float:
        """The coordinator's clock (DES time when attached to an env)."""
        return self._env.now if self._env is not None else self.injector.now

    def pending_leases(self) -> Tuple[Lease, ...]:
        """Leases not yet committed, released or reclaimed, in lease-id order."""
        return self.leases.pending()

    # -- the protocol's seams -----------------------------------------------

    def _deliver(self, session_id: str, host: str, ask, observed_at):
        """One availability exchange with per-attempt timeouts and retries.

        A delivered report may be served stale and arrive late; None
        when every attempt was lost.
        """
        config = self.injector.config
        for attempt in range(config.max_retries + 1):
            fault = self.injector.message_fault("availability", host, session_id)
            if fault is None:
                schedule = observed_at
                age = self.injector.stale_age_for(host, session_id)
                if age is not None:
                    schedule = self._stale_schedule(observed_at, age)
                report = ask(observed_at=schedule)
                delay = self.injector.message_delay("availability", host, session_id)
                if delay:
                    yield delay
                return report
            self._note_timeout(session_id, host, "availability", fault, attempt)
            if attempt < config.max_retries:
                self._note_retry(session_id, host, "availability", attempt + 1)
                yield self.injector.backoff(attempt)
        return None

    def _unreported(self, missing):
        """An unreachable (or excluded) host reports zero availability.

        The planner then routes around it exactly as §4.3 degrades --
        and rejects when the binding leaves no alternative.
        """
        now = self.now
        return {
            resource_id: ResourceObservation(available=0.0, alpha=1.0, observed_at=now)
            for resource_id in missing
        }

    def _dispatch_groups(self, segments):
        """One reserve/ack exchange, and one lease, per host in order."""
        return [{host: segments[host]} for host in sorted(segments)]

    def _dispatch(self, session_id: str, demands_by_host):
        """One segment's reserve/ack exchange with bounded retries.

        A reservation whose ack was lost exists host-side but is unknown
        to the main proxy: it is compensated with a release order -- and
        orphaned for the reaper when that release is lost too.
        """
        (host,) = demands_by_host
        config = self.injector.config
        for attempt in range(config.max_retries + 1):
            fault = self.injector.message_fault("reserve", host, session_id)
            if fault is None:
                lease, refusal = self._hold(session_id, demands_by_host)
                if refusal is not None:
                    return None, refusal.resource_id, None
                ack_fault = self.injector.message_fault("ack", host, session_id)
                if ack_fault is None:
                    delay = self.injector.message_delay("ack", host, session_id)
                    if delay:
                        yield delay
                    return lease, None, None
                self._note_timeout(session_id, host, "ack", ack_fault, attempt)
                self._roll_back(lease)
            else:
                self._note_timeout(session_id, host, "reserve", fault, attempt)
            if attempt < config.max_retries:
                self._note_retry(session_id, host, "reserve", attempt + 1)
                yield self.injector.backoff(attempt)
        return None, None, host

    def _replan(self, session_id: str, attempt: int, failed_host, excluded) -> bool:
        """Graceful degradation: re-plan on fresh observations, if allowed.

        A host that stopped answering is excluded from every later
        phase 1.  Its skeletons are stale (replans and later sessions
        see it as zero availability, and a recovered host may rebind);
        every other service keeps its warm cache entry -- see the
        per-host regression test in tests/test_faults.py.
        """
        if failed_host is not None:
            excluded.add(failed_host)
            self.invalidate_qrg_cache_for_host(failed_host)
        if attempt > self._max_replans:
            return False
        reason = "admission_failed" if failed_host is None else "host_unreachable"
        self._note_replan(session_id, reason, attempt, excluded)
        return True

    # -- leases and the orphan reaper ---------------------------------------

    def _roll_back(self, lease: Lease) -> None:
        """Roll a held lease back -- or orphan it when the release is lost."""
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
