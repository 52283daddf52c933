"""Tests for ReservationPlan and ComponentAssignment mechanics."""

import dataclasses
import pickle

import pytest

from repro.core import ModelError, QRGNode, ResourceVector
from repro.core.plan import ComponentAssignment, ReservationPlan, chain_path_signature
from repro.core.qrg import IntraEdge


def make_edge(component="c1", qin="Qa", qout="Qb", weight=0.5, resource="cpu:H1"):
    return IntraEdge(
        src=QRGNode(component, "in", qin),
        dst=QRGNode(component, "out", qout),
        requirement=ResourceVector(cpu=10),
        bound=ResourceVector({resource: 10.0}),
        weight=weight,
        bottleneck_resource=resource,
        alpha=1.0,
        per_resource={resource: weight},
    )


def make_plan(assignments):
    return ReservationPlan(
        service="svc",
        assignments=tuple(assignments),
        end_to_end_label="Qz",
        end_to_end_rank=0,
        numeric_level=3,
        psi=max(a.weight for a in assignments),
        bottleneck_resource=max(assignments, key=lambda a: a.weight).bottleneck_resource,
        bottleneck_alpha=1.0,
        path_signature=("Qa", "Qb"),
    )


class TestComponentAssignment:
    def test_from_edge(self):
        assignment = ComponentAssignment.from_edge(make_edge())
        assert assignment.component == "c1"
        assert assignment.qin_label == "Qa"
        assert assignment.qout_label == "Qb"
        assert assignment.weight == 0.5
        assert assignment.bound == ResourceVector({"cpu:H1": 10.0})


class TestReservationPlan:
    def test_requires_assignments(self):
        with pytest.raises(ModelError):
            ReservationPlan(
                service="svc",
                assignments=(),
                end_to_end_label="Q",
                end_to_end_rank=0,
                numeric_level=1,
                psi=0.0,
                bottleneck_resource="r",
                bottleneck_alpha=1.0,
            )

    def test_demand_sums_across_components_sharing_resources(self):
        a1 = ComponentAssignment.from_edge(make_edge("c1", resource="cpu:H1"))
        a2 = ComponentAssignment.from_edge(make_edge("c2", resource="cpu:H1"))
        a3 = ComponentAssignment.from_edge(make_edge("c3", resource="net:L1"))
        plan = make_plan([a1, a2, a3])
        assert dict(plan.demand) == {"cpu:H1": 20.0, "net:L1": 10.0}

    def test_demand_is_built_once_and_is_not_part_of_the_value(self):
        a1 = ComponentAssignment.from_edge(make_edge("c1", resource="cpu:H1"))
        a2 = ComponentAssignment.from_edge(make_edge("c2", resource="cpu:H1"))
        a3 = ComponentAssignment.from_edge(make_edge("c3", resource="net:L1"))
        plan, unread = make_plan([a1, a2]), make_plan([a1, a2])
        demand = plan.demand
        assert plan.demand is demand  # one build per plan, however often read
        assert dict(demand) == {"cpu:H1": 20.0}
        # A plan that has been read equals, and hashes like, one that has not.
        assert plan == unread and hash(plan) == hash(unread)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan and hash(clone) == hash(plan)
        assert clone.demand == demand
        # ``replace`` goes through the fields only: no stale total rides along.
        replaced = dataclasses.replace(plan, assignments=(a1, a3))
        assert dict(replaced.demand) == {"cpu:H1": 10.0, "net:L1": 10.0}
        assert plan.demand is demand
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.demand = replaced.demand

    def test_signature_string(self):
        plan = make_plan([ComponentAssignment.from_edge(make_edge())])
        assert plan.signature_string() == "Qa-Qb"

    def test_chain_path_signature_helper(self):
        nodes = (QRGNode("c1", "in", "Qa"), QRGNode("c1", "out", "Qb"))
        assert chain_path_signature(nodes) == ("Qa", "Qb")

    def test_assignment_for_unknown_component(self):
        plan = make_plan([ComponentAssignment.from_edge(make_edge())])
        with pytest.raises(ModelError):
            plan.assignment_for("ghost")
