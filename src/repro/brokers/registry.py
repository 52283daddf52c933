"""Broker directory and transactional multi-resource reservation.

The registry maps resource ids to brokers.  QoSProxies use it to collect
:class:`~repro.core.resources.AvailabilitySnapshot` instances for QRG
construction, and to execute a computed plan's demand as one
*transaction*: either every resource of the plan is reserved, or none is
(a failed resource fails the whole session -- paper §4.1 "the failure to
reserve one resource leads to the reservation failure for the whole
distributed service session").
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.brokers.base import Reservation, ResourceBroker
from repro.core.errors import BrokerError
from repro.core.resources import AvailabilitySnapshot, ResourceObservation


class BrokerRegistry:
    """Directory of every brokered resource in the environment."""

    def __init__(self) -> None:
        self._brokers: Dict[str, ResourceBroker] = {}

    def register(self, broker: ResourceBroker) -> None:
        """Register one entry; duplicate registration raises."""
        if broker.resource_id in self._brokers:
            raise BrokerError(f"duplicate broker for resource {broker.resource_id!r}")
        self._brokers[broker.resource_id] = broker

    def broker(self, resource_id: str) -> ResourceBroker:
        """Look up the broker for ``resource_id``; raises if unknown."""
        try:
            return self._brokers[resource_id]
        except KeyError:
            raise BrokerError(f"no broker registered for resource {resource_id!r}") from None

    def __contains__(self, resource_id: str) -> bool:
        return resource_id in self._brokers

    def resource_ids(self) -> Tuple[str, ...]:
        """The registered resource ids, sorted."""
        return tuple(sorted(self._brokers))

    def brokers(self) -> Iterable[ResourceBroker]:
        """Iterate all registered brokers in resource-id order."""
        return (self._brokers[rid] for rid in sorted(self._brokers))

    # -- snapshots -------------------------------------------------------------

    def snapshot(
        self,
        resource_ids: Iterable[str],
        *,
        observed_at: Optional[Callable[[str], Optional[float]]] = None,
    ) -> AvailabilitySnapshot:
        """Collect observations for the given resources.

        ``observed_at``, when provided, maps a resource id to the (past)
        time at which it should be observed -- the §5.2.4 staleness
        model; returning None observes the present.
        """
        observations: Dict[str, ResourceObservation] = {}
        for resource_id in resource_ids:
            broker = self.broker(resource_id)
            when = observed_at(resource_id) if observed_at is not None else None
            if when is None:
                observations[resource_id] = broker.observe()
            else:
                observations[resource_id] = broker.observe_stale(when)
        return AvailabilitySnapshot(observations)

    # -- transactions -------------------------------------------------------------

    def reserve_all(
        self, demand: Mapping[str, float], session_id: str
    ) -> List[Reservation]:
        """Reserve every resource of ``demand`` or nothing.

        On *any* failure -- an admission refusal, an unknown resource, a
        malformed amount -- the reservations made so far are rolled back
        and the exception propagates.  Returns the reservations made,
        in resource-id order.
        """
        made: List[Reservation] = []
        try:
            # Deterministic order keeps failure attribution stable.
            for resource_id in sorted(demand):
                made.append(self.broker(resource_id).reserve(demand[resource_id], session_id))
        except BaseException:
            self.release_all(made)
            raise
        return made

    def release_all(self, reservations: List[Reservation]) -> None:
        """Release the reservations, last first, emptying the list
        (so a repeated call finds nothing left to release)."""
        while reservations:
            reservation = reservations.pop()
            self.broker(reservation.resource_id).release(reservation)

    # -- invariants (used by tests and the simulation's self-checks) -----------

    def total_outstanding(self) -> int:
        """Total number of live reservations across all brokers."""
        return sum(broker.outstanding() for broker in self._brokers.values())

    def assert_quiescent(self) -> None:
        """Raise unless every broker is back at full capacity."""
        for broker in self._brokers.values():
            if broker.outstanding() != 0 or abs(broker.available - broker.capacity) > 1e-6:
                raise BrokerError(
                    f"broker {broker.resource_id!r} not quiescent: "
                    f"{broker.outstanding()} reservations, "
                    f"{broker.available:g}/{broker.capacity:g} available"
                )
