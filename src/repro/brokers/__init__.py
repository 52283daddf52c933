"""Resource Brokers (paper §3).

A Resource Broker makes and enforces reservations for one resource.
There is one broker, :class:`~repro.brokers.base.ResourceBroker`: an
admission-controlled pool that reports availability (plus the
Availability Change Index ``alpha`` of §4.3.1), makes reservations, and
terminates/cancels them, and that owns every metric and event of those
three operations.  The kinds differ only in what the resource *is*:

* :class:`~repro.brokers.local.LocalResourceBroker` -- a host-local
  resource (CPU, memory, disk I/O bandwidth);
* :class:`~repro.brokers.link.LinkBandwidthBroker` -- the lower level of
  the two-level network model: one broker per physical link (the paper's
  RSVP-enabled per-router bandwidth brokers);
* :class:`~repro.brokers.path.PathBroker` -- the higher level: a broker
  over a route, whose pool is the links between two end hosts taken as
  *one* end-to-end resource -- its availability is the minimum of the
  underlying link availabilities, and its reservations are applied
  transactionally to every link (the ``parts`` of its
  :class:`~repro.brokers.base.Reservation`).

:class:`~repro.brokers.registry.BrokerRegistry` is the directory the
QoSProxies use to collect availability snapshots and dispatch plans.
"""

from repro.brokers.advance import AdvanceRegistry, AdvanceReservation, TimelineBroker
from repro.brokers.base import Reservation, ResourceBroker
from repro.brokers.history import AvailabilityHistory
from repro.brokers.link import LinkBandwidthBroker
from repro.brokers.local import LocalResourceBroker
from repro.brokers.path import PathBroker
from repro.brokers.registry import BrokerRegistry

__all__ = [
    "AdvanceRegistry",
    "AdvanceReservation",
    "AvailabilityHistory",
    "BrokerRegistry",
    "LinkBandwidthBroker",
    "LocalResourceBroker",
    "PathBroker",
    "Reservation",
    "ResourceBroker",
    "TimelineBroker",
]
