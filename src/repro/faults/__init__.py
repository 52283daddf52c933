"""Fault injection and the fault-tolerant reservation protocol (PR 4).

Public surface:

* :class:`FaultConfig` / :class:`FaultPlan` -- seeded fault schedules;
* :class:`FaultInjector` -- the per-run decision point at the protocol
  boundaries;
* :class:`FaultTolerantCoordinator`
  and :class:`FaultTolerantDistributedCoordinator` -- the coordinators'
  one establishment protocol under a recovery policy, byte-identical to
  the plain coordinators under a zero plan;
* :func:`capacity_conservation` / :func:`assert_capacity_conserved` --
  the broker-vs-proxy bookkeeping invariant.
"""

from repro.faults.coordinator import (
    FaultTolerantCoordinator,
    FaultTolerantDistributedCoordinator,
    Lease,
)
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

__all__ = [
    "FAULT_SEED_INDEX",
    "MESSAGE_CHANNELS",
    "CapacityConservationError",
    "ConservationReport",
    "FaultConfig",
    "FaultInjector",
    "FaultPlan",
    "FaultTolerantCoordinator",
    "FaultTolerantDistributedCoordinator",
    "FaultWindow",
    "InjectedFault",
    "Lease",
    "assert_capacity_conserved",
    "capacity_conservation",
]
