"""Service-session lifecycle on the DES engine.

A session is one client's request for a distributed service: establish
the end-to-end multi-resource reservation, hold it for the session's
duration, then terminate it (releasing every reserved resource).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.core.component import Binding
from repro.core.errors import ReproError
from repro.core.plan import ReservationPlan
from repro.des.engine import Environment
from repro.runtime.coordinator import EstablishmentResult, ReservationCoordinator


@dataclass(frozen=True)
class SessionOutcome:
    """The record a finished (or rejected) session leaves behind."""

    session_id: str
    service: str
    arrived_at: float
    success: bool
    qos_level: Optional[int]
    plan: Optional[ReservationPlan]
    reason: str
    duration: float
    demand_scale: float
    ended_at: Optional[float] = None
    failed_resource: Optional[str] = None

    @property
    def fat(self) -> bool:
        """Evaluation terminology (§5.1): requirement scaled up."""
        return self.demand_scale > 1.0


class ServiceSession:
    """Drives one session: establish -> hold -> release.

    Establishment runs on the DES clock
    (:meth:`~repro.runtime.coordinator.ReservationCoordinator.establish_process`):
    whatever delay the protocol waits out is simulated time.

    Create it, then hand :meth:`run` to ``env.process``.  The finished
    process's value is the :class:`SessionOutcome`.
    """

    def __init__(
        self,
        env: Environment,
        coordinator: ReservationCoordinator,
        session_id: str,
        service_name: str,
        binding: Binding,
        planner,
        duration: float,
        *,
        demand_scale: float = 1.0,
        component_hosts: Optional[Mapping[str, str]] = None,
        source_label: Optional[str] = None,
        observed_at: Optional[Callable[[str], Optional[float]]] = None,
        contention_index=None,
        on_finish: Optional[Callable[[SessionOutcome], None]] = None,
    ) -> None:
        if duration <= 0:
            raise ReproError(f"session duration must be positive, got {duration!r}")
        self.env = env
        self.coordinator = coordinator
        self.session_id = session_id
        self.service_name = service_name
        self.binding = binding
        self.planner = planner
        self.duration = float(duration)
        self.demand_scale = float(demand_scale)
        self.component_hosts = component_hosts
        self.source_label = source_label
        self.observed_at = observed_at
        self.contention_index = contention_index
        self.on_finish = on_finish

    def run(self):
        """The session's DES process body (a generator)."""
        arrived_at = self.env.now
        result: EstablishmentResult = yield from self.coordinator.establish_process(
            self.env,
            self.session_id,
            self.service_name,
            self.binding,
            self.planner,
            component_hosts=self.component_hosts,
            source_label=self.source_label,
            demand_scale=self.demand_scale,
            observed_at=self.observed_at,
            contention_index=self.contention_index,
        )
        if result.success:
            yield self.env.timeout(self.duration)
            self.coordinator.teardown(self.session_id)
        outcome = SessionOutcome(
            session_id=self.session_id,
            service=self.service_name,
            arrived_at=arrived_at,
            success=result.success,
            qos_level=result.qos_level,
            plan=result.plan,
            reason="completed" if result.success else result.reason,
            duration=self.duration,
            demand_scale=self.demand_scale,
            ended_at=self.env.now,
            failed_resource=result.failed_resource,
        )
        if self.on_finish:
            self.on_finish(outcome)
        return outcome
