"""Per-host QoSProxy (paper §3).

The QoSProxy coordinates the multi-resource reservation activities of
one end host: it owns references to the local Resource Brokers (and, on
the receiver side of a network path, the end-to-end path broker -- the
RSVP compatibility note of §3), answers availability queries, applies
dispatched plan segments, and starts the local service components once
the end-to-end reservation is complete.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.brokers.base import Reservation
from repro.brokers.registry import BrokerRegistry
from repro.core.errors import AdmissionError, BrokerError
from repro.core.resources import ResourceObservation
from repro.obs import metrics as _metrics
from repro.runtime.messages import AvailabilityReport, AvailabilityRequest, PlanSegment


class QoSProxy:
    """One host's reservation coordinator endpoint."""

    def __init__(self, host: str, registry: BrokerRegistry) -> None:
        if not host:
            raise BrokerError("proxy host name must be non-empty")
        self.host = host
        self.registry = registry
        self._owned: Set[str] = set()
        # session id -> reservations this proxy holds for it
        self._held: Dict[str, List[Reservation]] = {}
        self._started_components: Dict[str, List[str]] = {}
        self._instruments = _metrics.Instruments({"host": host})

    # -- ownership --------------------------------------------------------

    def own(self, resource_id: str) -> None:
        """Declare that this proxy fronts the broker of ``resource_id``."""
        if resource_id not in self.registry:
            raise BrokerError(f"cannot own unregistered resource {resource_id!r}")
        self._owned.add(resource_id)

    def owns(self, resource_id: str) -> bool:
        """True when this proxy fronts the broker of ``resource_id``."""
        return resource_id in self._owned

    def owned_resources(self) -> Tuple[str, ...]:
        """Resource ids this proxy owns, sorted."""
        return tuple(sorted(self._owned))

    # -- phase 1: availability reporting -------------------------------------

    def report_availability(
        self,
        request: AvailabilityRequest,
        *,
        observed_at: Optional[Callable[[str], Optional[float]]] = None,
    ) -> AvailabilityReport:
        """Observe the requested *locally owned* resources.

        Unowned resource ids in the request are ignored -- the main proxy
        fans one request out to all participating proxies and merges the
        reports.
        """
        observations: Dict[str, ResourceObservation] = {}
        for resource_id in request.resource_ids:
            if resource_id not in self._owned:
                continue
            broker = self.registry.broker(resource_id)
            when = observed_at(resource_id) if observed_at is not None else None
            observations[resource_id] = (
                broker.observe() if when is None else broker.observe_stale(when)
            )
        return AvailabilityReport(
            session_id=request.session_id, proxy_host=self.host, observations=observations
        )

    # -- phase 3: plan segment execution ----------------------------------------

    def apply_segment(self, segment: PlanSegment) -> Tuple[Reservation, ...]:
        """Reserve the segment's demands on the local brokers.

        Atomic per segment: whatever goes wrong, the segment's own
        reservations are rolled back before the exception propagates,
        letting the lease table roll back the other proxies' segments.
        Returns the reservations made.
        """
        unowned = segment.demands.keys() - self._owned
        if unowned:
            raise BrokerError(
                f"proxy {self.host!r} received a demand for unowned "
                f"resource {min(unowned)!r}"
            )
        try:
            made = self.registry.reserve_all(segment.demands, segment.session_id)
        except AdmissionError:
            registry = _metrics.active_registry()
            if registry is not None:
                self._instruments.counter(registry, "proxy.segment_rejections").inc()
            raise
        self._held.setdefault(segment.session_id, []).extend(made)
        registry = _metrics.active_registry()
        if registry is not None:
            self._instruments.counter(registry, "proxy.segments_applied").inc()
        return tuple(made)

    def holds(self, session_id: str) -> bool:
        """True when this proxy holds reservations or started components
        for the session: the proxies a teardown has to visit."""
        return session_id in self._held or session_id in self._started_components

    def release_session(self, session_id: str) -> int:
        """Release everything held for a session; returns count released.

        Idempotent: a second teardown (or a teardown racing the orphan
        reaper) finds nothing to release and returns 0.  A broker that
        already freed one of the reservations does not abort the loop --
        the remaining reservations are still released, so no partial
        broker state survives a double release.
        """
        self._started_components.pop(session_id, None)
        return self.release_reservations(session_id, self._held.get(session_id, ()))

    def release_reservations(self, session_id: str, reservations) -> int:
        """Release specific reservations of a session (ending a lease).

        Only the given reservations -- matched by identity -- are freed
        and dropped from the session's held list, leaving any other
        (say, committed) reservations of the same session in place.
        Tolerant of reservations already released elsewhere; returns
        the count released.
        """
        held = self._held.get(session_id)
        if not held:  # torn down already, or never held
            return 0
        wanted = {id(reservation) for reservation in reservations}
        kept: List[Reservation] = []
        released = 0
        for reservation in held:
            if id(reservation) not in wanted:
                kept.append(reservation)
                continue
            try:
                self.registry.broker(reservation.resource_id).release(reservation)
            except BrokerError:
                continue
            released += 1
        if kept:
            self._held[session_id] = kept
        else:
            del self._held[session_id]
        if released:
            registry = _metrics.active_registry()
            if registry is not None:
                self._instruments.counter(
                    registry, "proxy.reservations_released"
                ).inc(released)
        return released

    def held_for(self, session_id: str) -> Tuple[Reservation, ...]:
        """Reservations this proxy currently holds for a session."""
        return tuple(self._held.get(session_id, ()))

    def held_sessions(self) -> Tuple[str, ...]:
        """Ids of the sessions this proxy holds reservations for."""
        return tuple(self._held)

    # -- component lifecycle ------------------------------------------------------

    def start_components(self, session_id: str, components: List[str]) -> None:
        """Record that local components were started for the session.

        In a real deployment this would exec the component processes;
        the simulation only tracks the fact for observability.
        """
        self._started_components[session_id] = list(components)

    def running_components(self, session_id: str) -> Tuple[str, ...]:
        """Components started locally for a session."""
        return tuple(self._started_components.get(session_id, ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QoSProxy {self.host} owns={sorted(self._owned)}>"
