"""Fault injection and the recovery policy of the reservation protocol (PR 4).

Public surface:

* :class:`FaultConfig` / :class:`FaultPlan` -- seeded fault schedules;
* :class:`FaultInjector` -- the per-run decision point at the protocol
  boundaries.  Handed to the one
  :class:`~repro.runtime.coordinator.ReservationCoordinator`
  (``injector=``), it runs the establishment protocol under the plan's
  recovery policy; under a zero plan it fires nothing, and the
  coordinator is byte-identical to one without an injector;
* :func:`capacity_conservation` / :func:`assert_capacity_conserved` --
  the broker-vs-proxy bookkeeping invariant.
"""

from repro.faults.injector import MESSAGE_CHANNELS, FaultInjector
from repro.faults.invariants import (
    CapacityConservationError,
    ConservationReport,
    assert_capacity_conserved,
    capacity_conservation,
)
from repro.faults.plan import (
    FAULT_SEED_INDEX,
    FaultConfig,
    FaultPlan,
    FaultWindow,
    InjectedFault,
)
from repro.runtime.leases import Lease

__all__ = [
    "FAULT_SEED_INDEX",
    "MESSAGE_CHANNELS",
    "CapacityConservationError",
    "ConservationReport",
    "FaultConfig",
    "FaultInjector",
    "FaultPlan",
    "FaultWindow",
    "InjectedFault",
    "Lease",
    "assert_capacity_conserved",
    "capacity_conservation",
]
