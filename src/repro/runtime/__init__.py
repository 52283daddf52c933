"""Runtime system architecture (paper §3-4.2).

For each end host a :class:`~repro.runtime.proxy.QoSProxy` coordinates
the local Resource Brokers.  One proxy -- the *main QoSProxy* of the
service, which stores the QoS-Resource Model definition (centralised
approach, §3) -- acts as the
:class:`~repro.runtime.coordinator.ReservationCoordinator`: it collects
availability from the participating proxies, runs the planning
algorithm, and dispatches the plan segments back to the proxies'
brokers (the three phases of §4.2).

:class:`~repro.runtime.session.ServiceSession` drives one session's
lifecycle on the DES engine: establish -> hold -> release.
"""

from repro.runtime.coordinator import EstablishmentResult, ReservationCoordinator
from repro.runtime.distributed import (
    ComponentFragment,
    ComponentHost,
    FragmentRequest,
)
from repro.runtime.messages import (
    AvailabilityReport,
    AvailabilityRequest,
    PlanSegment,
    SessionRequest,
)
from repro.runtime.model_store import ModelStore
from repro.runtime.proxy import QoSProxy
from repro.runtime.session import ServiceSession, SessionOutcome

__all__ = [
    "AvailabilityReport",
    "AvailabilityRequest",
    "ComponentFragment",
    "ComponentHost",
    "EstablishmentResult",
    "FragmentRequest",
    "ModelStore",
    "PlanSegment",
    "QoSProxy",
    "ReservationCoordinator",
    "ServiceSession",
    "SessionOutcome",
    "SessionRequest",
]
