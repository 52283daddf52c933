"""Message types exchanged between QoSProxies (paper §4.2).

The three-phase protocol is: (1) participating proxies report current
resource availability to the main proxy, (2) the main proxy runs the
planning algorithm locally, (3) the main proxy dispatches the plan
segments.  These records are the protocol's vocabulary; in the
simulation they travel as function arguments (optionally delayed by the
coordinator's latency model), but keeping them explicit documents the
wire protocol a real deployment would need.  The three that every
admission builds -- the availability request and report and the plan
segment -- are named tuples: one tuple allocation each, where a frozen
dataclass paid one ``object.__setattr__`` per field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Tuple

from repro.core.component import Binding
from repro.core.resources import ResourceObservation


class AvailabilityRequest(NamedTuple):
    """Phase 1 query: which resources the main proxy needs observed."""

    session_id: str
    resource_ids: Tuple[str, ...]


@dataclass(frozen=True)
class SessionRequest:
    """One arrival of a batched establishment (§4.2 under load).

    The per-session arguments of
    :meth:`~repro.runtime.coordinator.ReservationCoordinator.establish`,
    reified so N concurrent arrivals can be admitted against one
    availability snapshot
    (:meth:`~repro.runtime.coordinator.ReservationCoordinator.establish_batch`).
    """

    session_id: str
    service_name: str
    binding: Binding
    component_hosts: Optional[Mapping[str, str]] = None
    source_label: Optional[str] = None
    demand_scale: float = 1.0


class AvailabilityReport(NamedTuple):
    """Phase 1 reply: one proxy's local observations."""

    session_id: str
    proxy_host: str
    observations: Mapping[str, ResourceObservation]


class PlanSegment(NamedTuple):
    """Phase 3 dispatch: the per-host slice of the end-to-end plan.

    ``demands`` maps each of the receiving proxy's resource ids to the
    amount to reserve for the session.
    """

    session_id: str
    proxy_host: str
    demands: Mapping[str, float]
