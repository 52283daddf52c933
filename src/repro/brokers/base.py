"""The Resource Broker interface and reservation bookkeeping (paper §3).

The paper lists three basic broker operations: (1) report current
availability of the resource, (2) make and enforce reservations, and
(3) terminate or cancel reservations.  Reservations here are admission
controlled: a request either fits within current availability and is
granted immediately, or it raises :class:`AdmissionError` -- there is no
queueing, matching the paper's session semantics where one failed
resource fails the whole session.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.brokers.history import AvailabilityHistory
from repro.core.errors import AdmissionError, BrokerError
from repro.core.resources import ResourceObservation
from repro.obs import events as _events
from repro.obs import metrics as _metrics

#: A clock callable, normally ``lambda: env.now`` of the DES environment.
Clock = Callable[[], float]

_reservation_ids = itertools.count(1)


class Reservation(NamedTuple):
    """A granted reservation: the handle used to terminate/cancel it."""

    reservation_id: int
    resource_id: str
    amount: float
    session_id: str
    made_at: float
    #: The per-link reservations a route's reservation is made of
    #: (empty for a pool, whose reservation is its own and only part).
    parts: Tuple["Reservation", ...] = ()


class ResourceBroker:
    """An admission-controlled capacity pool, and the one broker protocol.

    Reporting, amount validation, trend tracking and every metric and
    event exist here once.  Subclasses specialise what the resource
    *is*: a host-local pool and a network link only name it; an
    end-to-end path (:class:`~repro.brokers.path.PathBroker`) puts a
    route of links in the pool's place by overriding the quantities
    and the four hooks (``_available_at``, ``_take``, ``_refusal``,
    ``_give_back``), and nothing else.
    """

    def __init__(
        self,
        resource_id: str,
        capacity: float,
        *,
        clock: Optional[Clock] = None,
        trend_window: float = 3.0,
    ) -> None:
        if capacity <= 0:
            raise BrokerError(f"capacity of {resource_id!r} must be positive, got {capacity!r}")
        self._capacity = float(capacity)
        self._reserved = 0.0
        self._reservations: Dict[int, Reservation] = {}
        self._init_reporting(resource_id, clock, trend_window)
        self.history.record_change(self._clock(), self._capacity)

    def _init_reporting(
        self, resource_id: str, clock: Optional[Clock], trend_window: float
    ) -> None:
        """What every broker has whatever it books in: name, clock, history."""
        self.resource_id = resource_id
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self.history = AvailabilityHistory(window=trend_window)
        #: Labels attached to this broker's metrics; subclasses extend.
        self._metric_labels: Dict[str, str] = {"resource": resource_id}
        self._instruments = _metrics.Instruments(self._metric_labels)

    # -- reporting (broker operation 1) -------------------------------------

    @property
    def capacity(self) -> float:
        """Total capacity of this resource."""
        return self._capacity

    @property
    def reserved(self) -> float:
        """Amount currently reserved."""
        return self._reserved

    @property
    def available(self) -> float:
        """Amount currently available (capacity - reserved)."""
        return self._capacity - self._reserved

    def outstanding(self) -> int:
        """Number of live reservations (diagnostics / invariants)."""
        return len(self._reservations)

    def utilization(self) -> float:
        """Fraction of capacity currently reserved."""
        return self._reserved / self._capacity

    def observe(self) -> ResourceObservation:
        """Report availability + Availability Change Index (eq. 5)."""
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
        """Availability as it was at time ``when`` (paper §5.2.4).

        The alpha index is still computed from the broker's *report* log
        (the trend reports arrive on their own schedule), against the
        stale value.
        """
        value = self._available_at(when)
        alpha = self.history.alpha(self._clock(), value)
        log = _events.active_event_log()
        if log is not None:
            log.emit(
                "broker.probe",
                resource=self.resource_id,
                time=when,
                available=value,
                alpha=alpha,
                stale=True,
            )
        return ResourceObservation(available=value, alpha=alpha, observed_at=when)

    def _available_at(self, when: float) -> float:
        """The change log's value at ``when`` (the present before any)."""
        value = self.history.value_at(when)
        return self.available if value is None else value

    # -- reserving (broker operation 2) ---------------------------------------

    def reserve(self, amount: float, session_id: str) -> Reservation:
        """Grant ``amount`` to ``session_id`` or raise AdmissionError."""
        if not 0 < amount < math.inf:  # also refuses nan: every comparison is False
            raise BrokerError(
                f"reservation amount must be finite and positive, got {amount!r}"
            )
        amount = float(amount)
        now = self._clock()
        available_before = self.available
        reservation = self._take(amount, session_id, now)
        if reservation is None:
            message, detail = self._refusal(amount)
            registry = _metrics.active_registry()
            if registry is not None:
                self._instruments.counter(registry, "broker.rejections").inc()
            log = _events.active_event_log()
            if log is not None:
                log.emit(
                    "broker.reject",
                    session=session_id,
                    resource=self.resource_id,
                    time=now,
                    requested=amount,
                    available=self.available,
                    capacity=self.capacity,
                    **detail,
                )
            raise AdmissionError(message, resource_id=self.resource_id)
        registry = _metrics.active_registry()
        log = _events.active_event_log()
        if registry is None and log is None:
            return reservation
        utilization = self.utilization()
        if registry is not None:
            self._instruments.counter(registry, "broker.grants").inc()
            self._instruments.gauge(registry, "broker.utilization").set(utilization)
        if log is not None:
            log.emit(
                "broker.grant",
                session=session_id,
                resource=self.resource_id,
                time=now,
                requested=reservation.amount,
                available=available_before,
                capacity=self.capacity,
                utilization=utilization,
            )
        return reservation

    def _take(self, amount: float, session_id: str, now: float) -> Optional[Reservation]:
        """Book ``amount`` and log the change, or None when it does not fit."""
        if amount > self._capacity - self._reserved + 1e-9:
            return None
        reservation = Reservation(
            reservation_id=next(_reservation_ids),
            resource_id=self.resource_id,
            amount=amount,
            session_id=session_id,
            made_at=now,
        )
        self._reserved += amount
        self._reservations[reservation.reservation_id] = reservation
        self.history.record_change(now, self._capacity - self._reserved)
        return reservation

    def _refusal(self, amount: float) -> Tuple[str, Dict[str, object]]:
        """A refusal's message and what it adds to the ``broker.reject`` event."""
        return (
            f"{self.resource_id}: requested {amount:g} exceeds availability "
            f"{self.available:g} (capacity {self._capacity:g})",
            {},
        )

    # -- terminating (broker operation 3) ---------------------------------------

    def release(self, reservation: Reservation) -> None:
        """Terminate or cancel a reservation, returning its capacity."""
        now = self._clock()
        self._give_back(reservation, now)
        registry = _metrics.active_registry()
        log = _events.active_event_log()
        if registry is None and log is None:
            return
        utilization = self.utilization()
        if registry is not None:
            self._instruments.counter(registry, "broker.releases").inc()
            self._instruments.gauge(registry, "broker.utilization").set(utilization)
        if log is not None:
            log.emit(
                "broker.release",
                session=reservation.session_id,
                resource=self.resource_id,
                time=now,
                amount=reservation.amount,
                available=self.available,
                capacity=self.capacity,
                utilization=utilization,
            )

    def _give_back(self, reservation: Reservation, now: float) -> None:
        """Unbook a live reservation and log the change."""
        stored = self._reservations.pop(reservation.reservation_id, None)
        if stored is None:
            raise BrokerError(
                f"{self.resource_id}: unknown reservation {reservation.reservation_id} "
                "(double release?)"
            )
        self._reserved -= stored.amount
        if self._reserved < -1e-9:  # pragma: no cover - accounting invariant
            raise BrokerError(f"{self.resource_id}: negative reserved amount")
        self._reserved = max(self._reserved, 0.0)
        self.history.record_change(now, self._capacity - self._reserved)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.resource_id} "
            f"{self._reserved:g}/{self._capacity:g} reserved>"
        )
