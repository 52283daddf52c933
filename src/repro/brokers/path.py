"""End-to-end network path brokers -- the higher network level (paper §3).

A PathBroker is a :class:`~repro.brokers.base.ResourceBroker` whose pool
is a route: it treats all the links between two end hosts as *one*
resource.  Its reported availability is the minimum of the per-link
availabilities reported by the lower-level link brokers; a reservation
of ``x`` units is applied to *every* link along the route,
transactionally (if any link admission fails, already-made link
reservations are rolled back and the whole path reservation fails).
Only what a route *is* lives here -- the quantities derived from the
links, the per-link booking and the refusal's bottleneck; reporting,
validation, the alpha history, metrics and events are the base class's.
A path books nothing of its own: its reservations and its change log
are the links', and its :class:`~repro.brokers.base.Reservation`
carries theirs as ``parts``.

To be compatible with RSVP the paper has the receiver-side broker
initiate the end-to-end reservation; here that surfaces as the path
broker living in the registry under a ``net:`` resource id that the
receiving host's QoSProxy owns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.brokers.base import Clock, Reservation, ResourceBroker, _reservation_ids
from repro.brokers.link import LinkBandwidthBroker
from repro.core.errors import AdmissionError, BrokerError


class PathBroker(ResourceBroker):
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
        # No pool is opened (no super().__init__): the route is the pool.
        self._init_reporting(resource_id, clock, trend_window)
        self.links: Tuple[LinkBandwidthBroker, ...] = tuple(links)
        self._metric_labels["hops"] = str(len(self.links))

    # -- the quantities of a route ---------------------------------------------

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

    def outstanding(self) -> int:
        """Number of live reservations (diagnostics / invariants)."""
        return max(link.outstanding() for link in self.links)

    def utilization(self) -> float:
        """Fraction of capacity currently reserved."""
        return max(link.utilization() for link in self.links)

    def bottleneck_link(self) -> LinkBandwidthBroker:
        """The link with the least available bandwidth on the route."""
        return min(self.links, key=lambda link: (link.available, link.link_id))

    def _available_at(self, when: float) -> float:
        """Minimum over the links' change logs at ``when``."""
        return min(link._available_at(when) for link in self.links)

    # -- booking on every link ---------------------------------------------------

    def _take(self, amount: float, session_id: str, now: float) -> Optional[Reservation]:
        """Reserve on every link in route order, or roll back and return None."""
        parts: List[Reservation] = []
        try:
            for link in self.links:
                parts.append(link.reserve(amount, session_id))
        except AdmissionError:
            while parts:
                self.links[len(parts) - 1].release(parts.pop())
            return None
        return Reservation(
            reservation_id=next(_reservation_ids),
            resource_id=self.resource_id,
            amount=amount,
            session_id=session_id,
            made_at=now,
            parts=tuple(parts),
        )

    def _refusal(self, amount: float) -> Tuple[str, Dict[str, object]]:
        """Name the bottleneck link, in the message and in the event."""
        link_id = self.bottleneck_link().link_id
        return (
            f"{self.resource_id}: {amount:g} exceeds availability "
            f"{self.available:g} on link {link_id}",
            {"bottleneck_link": link_id},
        )

    def _give_back(self, reservation: Reservation, now: float) -> None:
        """Release each link's part of the reservation."""
        for link, part in zip(self.links, reservation.parts):
            link.release(part)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hops = "+".join(link.link_id for link in self.links)
        return f"<PathBroker {self.resource_id} via {hops} avail={self.available:g}>"
