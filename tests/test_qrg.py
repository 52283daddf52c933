"""Tests for QoS-Resource Graph construction (paper §4.1.1)."""

import pickle

import pytest

from repro.core import (
    AvailabilitySnapshot,
    Binding,
    ModelError,
    PlanningError,
    QRGNode,
    ResourceObservation,
    build_qrg,
    headroom_contention_index,
)
from repro.core.qrg import QoSResourceGraph


class TestConstruction:
    def test_nodes_cover_all_levels(self, small_service, small_binding, ample_snapshot):
        qrg = build_qrg(small_service, small_binding, ample_snapshot)
        labels = {(n.component, n.kind, n.label) for n in qrg.nodes}
        assert ("c1", "in", "Qa") in labels
        assert ("c1", "out", "Qb") in labels and ("c1", "out", "Qc") in labels
        assert ("c2", "in", "Qd") in labels and ("c2", "in", "Qe") in labels
        assert ("c2", "out", "Qf") in labels and ("c2", "out", "Qg") in labels
        assert qrg.source_node == QRGNode("c1", "in", "Qa")

    def test_all_feasible_edges_present(self, small_service, small_binding, ample_snapshot):
        qrg = build_qrg(small_service, small_binding, ample_snapshot)
        # 2 c1 edges + 4 c2 edges, 2 equivalence edges
        assert len(qrg.intra_edges) == 6
        assert len(qrg.equiv_edges) == 2
        assert qrg.count_edges() == 8
        assert qrg.count_nodes() == 7

    def test_edge_weights_follow_eq2_eq3(self, small_service, small_binding, ample_snapshot):
        qrg = build_qrg(small_service, small_binding, ample_snapshot)
        edge = qrg.edge_between(QRGNode("c1", "in", "Qa"), QRGNode("c1", "out", "Qb"))
        assert edge is not None
        assert edge.weight == pytest.approx(10 / 100)
        assert edge.bottleneck_resource == "cpu:H1"
        assert edge.bound["cpu:H1"] == 10

    def test_infeasible_pairs_dropped(self, small_service, small_binding):
        snapshot = AvailabilitySnapshot.from_amounts({"cpu:H1": 100, "net:L1": 15})
        qrg = build_qrg(small_service, small_binding, snapshot)
        # (Qd,Qf)=20 and (Qe,Qf)=40 exceed 15: both dropped
        assert qrg.edge_between(QRGNode("c2", "in", "Qd"), QRGNode("c2", "out", "Qf")) is None
        assert qrg.edge_between(QRGNode("c2", "in", "Qe"), QRGNode("c2", "out", "Qf")) is None
        assert qrg.edge_between(QRGNode("c2", "in", "Qd"), QRGNode("c2", "out", "Qg")) is not None

    def test_every_edge_satisfiable_invariant(self, small_service, small_binding):
        snapshot = AvailabilitySnapshot.from_amounts({"cpu:H1": 7, "net:L1": 15})
        qrg = build_qrg(small_service, small_binding, snapshot)
        availability = snapshot.availability()
        for edge in qrg.intra_edges:
            assert edge.bound.satisfiable_under(availability)
            assert edge.weight <= 1.0

    def test_equivalence_edges_carry_zero_weight(self, small_service, small_binding, ample_snapshot):
        qrg = build_qrg(small_service, small_binding, ample_snapshot)
        for _node, weight, edge in qrg.successors(QRGNode("c1", "out", "Qb")):
            assert weight == 0.0 and edge is None

    def test_missing_resource_raises(self, small_service, small_binding):
        snapshot = AvailabilitySnapshot.from_amounts({"cpu:H1": 100})
        with pytest.raises(PlanningError, match="net:L1"):
            build_qrg(small_service, small_binding, snapshot)

    def test_alpha_recorded_from_snapshot(self, small_service, small_binding):
        snapshot = AvailabilitySnapshot(
            {
                "cpu:H1": ResourceObservation(available=100, alpha=0.5),
                "net:L1": ResourceObservation(available=100, alpha=1.2),
            }
        )
        qrg = build_qrg(small_service, small_binding, snapshot)
        edge = qrg.edge_between(QRGNode("c1", "in", "Qa"), QRGNode("c1", "out", "Qb"))
        assert edge.alpha == 0.5

    def test_custom_contention_index(self, small_service, small_binding, ample_snapshot):
        qrg = build_qrg(
            small_service,
            small_binding,
            ample_snapshot,
            contention_index=headroom_contention_index,
        )
        edge = qrg.edge_between(QRGNode("c1", "in", "Qa"), QRGNode("c1", "out", "Qb"))
        assert edge.weight == pytest.approx(10 / 90)

    def test_source_label_selection(self, small_service, small_binding, ample_snapshot):
        qrg = build_qrg(
            small_service, small_binding, ample_snapshot, source_label="Qa"
        )
        assert qrg.source_node.label == "Qa"
        with pytest.raises(Exception):
            build_qrg(small_service, small_binding, ample_snapshot, source_label="Qz")

    def test_sink_nodes(self, small_service, small_binding, ample_snapshot):
        qrg = build_qrg(small_service, small_binding, ample_snapshot)
        assert {n.label for n in qrg.sink_nodes()} == {"Qf", "Qg"}


class TestQRGNode:
    """The node's value contract, whatever it is represented as."""

    def test_kind_validated(self):
        with pytest.raises(ModelError):
            QRGNode("c", "sideways", "Q")

    def test_str(self):
        assert str(QRGNode("c1", "in", "Qa")) == "c1.in:Qa"

    def test_repr(self):
        # Byte for byte: it reaches error messages and span attributes.
        node = QRGNode("c1", "in", "Qa")
        assert repr(node) == "QRGNode(component='c1', kind='in', label='Qa')"

    def test_ordering_is_stable(self):
        a = QRGNode("c1", "in", "Qa")
        b = QRGNode("c1", "out", "Qa")
        assert a < b  # "in" < "out"

    def test_separately_built_equal_nodes_are_interchangeable(self):
        a = QRGNode("c1", "in", "Qa")
        b = QRGNode("c" + str(1), "in", "Q" + "a")
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert len({a, b}) == 1
        assert a != QRGNode("c1", "out", "Qa")

    def test_total_order_is_by_component_kind_label(self):
        nodes = [
            QRGNode(component, kind, label)
            for component in ("c2", "c10", "c1")
            for kind in ("out", "in")
            for label in ("Qb", "Qa")
        ]
        assert sorted(nodes) == sorted(
            nodes, key=lambda n: (n.component, n.kind, n.label)
        )
        assert sorted(nodes)[0] == QRGNode("c1", "in", "Qa")

    def test_pickle_round_trip(self):
        # Parallel sweep workers ship nodes inside plans and fragments.
        node = QRGNode("c1", "out", "Qb")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(node, protocol))
            assert type(clone) is QRGNode
            assert clone == node and hash(clone) == hash(node)
            assert str(clone) == "c1.out:Qb"

    def test_fields_are_read_only(self):
        node = QRGNode("c1", "in", "Qa")
        for name in ("component", "kind", "label", "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, "x")
        assert (node.component, node.kind, node.label) == ("c1", "in", "Qa")
