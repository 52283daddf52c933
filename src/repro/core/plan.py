"""End-to-end reservation plans -- the planner's output (paper §4.1.2).

A plan fixes, for every participating component, the (Q_in, Q_out) pair
to operate at and therefore the resources to reserve.  The plan records
the end-to-end QoS level it achieves, its bottleneck resource and
contention index Psi, and the paper-style path signature used by the
path-census experiments (Tables 1-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from repro.core.errors import ModelError
from repro.core.qrg import IntraEdge, QRGNode
from repro.core.resources import ResourceVector


class ComponentAssignment(NamedTuple):
    """The QoS operating point chosen for one component."""

    component: str
    qin_label: str
    qout_label: str
    requirement: ResourceVector  # slot-keyed (component view)
    bound: ResourceVector  # resource-id-keyed (environment view)
    weight: float
    bottleneck_resource: str
    alpha: float

    @classmethod
    def from_edge(cls, edge: IntraEdge) -> "ComponentAssignment":
        """Build an assignment from a chosen QRG intra edge."""
        src, dst, requirement, bound, weight, bottleneck, alpha, _ = edge
        return cls(
            src.component, src.label, dst.label, requirement, bound, weight, bottleneck, alpha
        )


@dataclass(frozen=True)
class ReservationPlan:
    """A complete, feasible end-to-end multi-resource reservation plan."""

    service: str
    assignments: Tuple[ComponentAssignment, ...]
    end_to_end_label: str
    end_to_end_rank: int  # 0 = best
    numeric_level: int  # paper-style: best = N ... worst = 1
    psi: float  # Psi_P: contention index of the plan's bottleneck
    bottleneck_resource: str
    bottleneck_alpha: float
    path_signature: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ModelError("a reservation plan must assign at least one component")

    @cached_property
    def demand(self) -> ResourceVector:
        """Total per-resource-id amounts to reserve (components summed).

        Built on first read and kept beside the fields (an admitted
        session reads it two or three times); it is not a field, so
        equality, hashing and ``dataclasses.replace`` never see it.
        """
        totals: Dict[str, float] = {}
        for assignment in self.assignments:
            for resource_id, amount in assignment.bound.items():
                totals[resource_id] = totals.get(resource_id, 0.0) + amount
        return ResourceVector(totals)

    def assignment_for(self, component: str) -> ComponentAssignment:
        """The assignment of one component; raises on unknown names."""
        for assignment in self.assignments:
            if assignment.component == component:
                return assignment
        raise ModelError(f"plan has no assignment for component {component!r}")

    def signature_string(self) -> str:
        """Paper Tables 1-2 style: ``Qa-Qb-Qe-Qh-Ql-Qp``."""
        return "-".join(self.path_signature)

    def describe(self) -> str:
        """Human-readable multi-line description (examples/CLI output)."""
        lines = [
            f"plan for service {self.service!r}: end-to-end QoS {self.end_to_end_label} "
            f"(level {self.numeric_level}), Psi={self.psi:.4f} "
            f"bottleneck={self.bottleneck_resource}"
        ]
        for a in self.assignments:
            amounts = ", ".join(f"{rid}={amt:g}" for rid, amt in a.bound.items())
            lines.append(
                f"  {a.component}: {a.qin_label} -> {a.qout_label}  "
                f"[{amounts}]  psi={a.weight:.4f}"
            )
        return "\n".join(lines)


def chain_path_signature(node_path: Tuple[QRGNode, ...]) -> Tuple[str, ...]:
    """Extract the label sequence of a chain QRG path (for the census)."""
    return tuple(node.label for node in node_path)
