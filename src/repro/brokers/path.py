"""End-to-end network path brokers -- the higher network level (paper §3).

A PathBroker treats all the links between two end hosts as *one*
resource.  Its reported availability is the minimum of the per-link
availabilities reported by the lower-level link brokers; a reservation
of ``x`` units is applied to *every* link along the route,
transactionally (if any link admission fails, already-made link
reservations are rolled back and the whole path reservation fails).

To be compatible with RSVP the paper has the receiver-side broker
initiate the end-to-end reservation; here that surfaces as the path
broker living in the registry under a ``net:`` resource id that the
receiving host's QoSProxy owns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.brokers.base import Clock, Reservation
from repro.brokers.history import AvailabilityHistory
from repro.brokers.link import LinkBandwidthBroker
from repro.core.errors import AdmissionError, BrokerError
from repro.core.resources import ResourceObservation
from repro.obs import events as _events
from repro.obs import metrics as _metrics

_path_reservation_ids = itertools.count(1)


@dataclass(frozen=True)
class PathReservation:
    """A composite reservation: one per-link reservation per hop."""

    reservation_id: int
    resource_id: str
    amount: float
    session_id: str
    made_at: float
    link_reservations: Tuple[Reservation, ...]


class PathBroker:
    """Two-level end-to-end network resource broker (paper §3)."""

    def __init__(
        self,
        resource_id: str,
        links: Sequence[LinkBandwidthBroker],
        *,
        clock: Optional[Clock] = None,
        trend_window: float = 3.0,
    ) -> None:
        if not links:
            raise BrokerError(f"path broker {resource_id!r} needs at least one link")
        self.resource_id = resource_id
        self.links: Tuple[LinkBandwidthBroker, ...] = tuple(links)
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self.history = AvailabilityHistory(window=trend_window)
        self.history.record_change(self._clock(), self.available)
        #: Labels attached to this broker's metrics (mirrors ResourceBroker).
        self._metric_labels = {"resource": resource_id, "hops": str(len(self.links))}

    # -- reporting -----------------------------------------------------------

    @property
    def available(self) -> float:
        """Minimum link availability along the route."""
        return min(link.available for link in self.links)

    @property
    def capacity(self) -> float:
        """Bottleneck capacity of the route (for utilisation metrics)."""
        return min(link.capacity for link in self.links)

    @property
    def reserved(self) -> float:
        """Amount currently reserved."""
        return self.capacity - self.available

    def bottleneck_link(self) -> LinkBandwidthBroker:
        """The link with the least available bandwidth on the route."""
        return min(self.links, key=lambda link: (link.available, link.link_id))

    def observe(self) -> ResourceObservation:
        """Report current availability plus the Availability Change Index."""
        now = self._clock()
        available = self.available
        alpha = self.history.alpha(now, available)
        log = _events.active_event_log()
        if log is not None:
            log.emit(
                "broker.probe",
                resource=self.resource_id,
                time=now,
                available=available,
                alpha=alpha,
            )
        return ResourceObservation(available=available, alpha=alpha, observed_at=now)

    def observe_stale(self, when: float) -> ResourceObservation:
        """Report availability as it was at time ``when`` (§5.2.4)."""
        values: List[float] = []
        for link in self.links:
            value = link.history.value_at(when)
            values.append(link.available if value is None else value)
        available = min(values)
        alpha = self.history.alpha(self._clock(), available)
        log = _events.active_event_log()
        if log is not None:
            log.emit(
                "broker.probe",
                resource=self.resource_id,
                time=when,
                available=available,
                alpha=alpha,
                stale=True,
            )
        return ResourceObservation(available=available, alpha=alpha, observed_at=when)

    # -- reserving -------------------------------------------------------------

    def can_reserve(self, amount: float) -> bool:
        """True when a reservation of ``amount`` would be admitted."""
        return 0 < amount <= self.available + 1e-9

    def reserve(self, amount: float, session_id: str) -> PathReservation:
        """Reserve ``amount`` on every link of the route, atomically."""
        if not 0 < amount < math.inf:  # also refuses nan: every comparison is False
            raise BrokerError(
                f"reservation amount must be finite and positive, got {amount!r}"
            )
        available_before = self.available
        made: List[Reservation] = []
        try:
            for link in self.links:
                made.append(link.reserve(amount, session_id))
        except AdmissionError:
            for link_reservation in reversed(made):
                broker = self._link_by_id(link_reservation.resource_id)
                broker.release(link_reservation)
            registry = _metrics.active_registry()
            if registry is not None:
                registry.counter("broker.rejections", **self._metric_labels).inc()
            log = _events.active_event_log()
            if log is not None:
                log.emit(
                    "broker.reject",
                    session=session_id,
                    resource=self.resource_id,
                    time=self._clock(),
                    requested=float(amount),
                    available=self.available,
                    capacity=self.capacity,
                    bottleneck_link=self.bottleneck_link().link_id,
                )
            raise AdmissionError(
                f"{self.resource_id}: {amount:g} exceeds availability "
                f"{self.available:g} on link {self.bottleneck_link().link_id}",
                resource_id=self.resource_id,
            ) from None
        now = self._clock()
        self.history.record_change(now, self.available)
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("broker.grants", **self._metric_labels).inc()
            registry.gauge("broker.utilization", **self._metric_labels).set(
                self.utilization()
            )
        log = _events.active_event_log()
        if log is not None:
            log.emit(
                "broker.grant",
                session=session_id,
                resource=self.resource_id,
                time=now,
                requested=float(amount),
                available=available_before,
                capacity=self.capacity,
                utilization=self.utilization(),
            )
        return PathReservation(
            reservation_id=next(_path_reservation_ids),
            resource_id=self.resource_id,
            amount=float(amount),
            session_id=session_id,
            made_at=now,
            link_reservations=tuple(made),
        )

    def release(self, reservation: PathReservation) -> None:
        """Terminate or cancel a reservation, returning its capacity."""
        for link_reservation in reservation.link_reservations:
            self._link_by_id(link_reservation.resource_id).release(link_reservation)
        now = self._clock()
        self.history.record_change(now, self.available)
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("broker.releases", **self._metric_labels).inc()
            registry.gauge("broker.utilization", **self._metric_labels).set(
                self.utilization()
            )
        log = _events.active_event_log()
        if log is not None:
            log.emit(
                "broker.release",
                session=reservation.session_id,
                resource=self.resource_id,
                time=now,
                amount=reservation.amount,
                available=self.available,
                capacity=self.capacity,
                utilization=self.utilization(),
            )

    def outstanding(self) -> int:
        """Number of live reservations (diagnostics / invariants)."""
        return max(link.outstanding() for link in self.links)

    def utilization(self) -> float:
        """Fraction of capacity currently reserved."""
        return max(link.utilization() for link in self.links)

    def _link_by_id(self, resource_id: str) -> LinkBandwidthBroker:
        for link in self.links:
            if link.resource_id == resource_id:
                return link
        raise BrokerError(f"{self.resource_id}: no link {resource_id!r} on route")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hops = "+".join(link.link_id for link in self.links)
        return f"<PathBroker {self.resource_id} via {hops} avail={self.available:g}>"
