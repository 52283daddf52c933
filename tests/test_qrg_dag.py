"""Structural tests for QRG construction over DAG services."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_qrg
from repro.core.qrg import QRGNode, assemble_qrg, price_component_edges, resolve_source_level
from repro.core.resources import AvailabilitySnapshot
from repro.core.synthetic import synthetic_diamond_dag
from repro.runtime import ComponentHost, FragmentRequest
from repro.runtime.coordinator import _scaled_service

from tests.test_qrg_cache import chain_with_snapshots, qrg_fingerprint


@pytest.fixture
def diamond():
    return synthetic_diamond_dag(2, 2, rng=np.random.default_rng(0))


class TestFanInGroups:
    def test_groups_cover_all_combinations(self, diamond):
        service, binding, snapshot = diamond
        qrg = build_qrg(service, binding, snapshot)
        groups = [g for g in qrg.fanin_groups if g.input_node.component == "sink"]
        # 2 branches x 2 levels = 4 concatenations
        assert len(groups) == 4
        for group in groups:
            assert len(group.parts) == 2
            assert {part.component for part in group.parts} == {"br0", "br1"}
            # the input label is the concatenation of the part labels
            assert group.input_node.label == "|".join(p.label for p in group.parts)

    def test_fan_in_inputs_have_equivalence_edges_per_part(self, diamond):
        service, binding, snapshot = diamond
        qrg = build_qrg(service, binding, snapshot)
        for group in qrg.fanin_groups:
            incoming = {eq.src for eq in qrg.equiv_into(group.input_node)}
            assert set(group.parts) <= incoming

    def test_fan_out_outputs_feed_every_branch(self, diamond):
        service, binding, snapshot = diamond
        qrg = build_qrg(service, binding, snapshot)
        for level in service.component("fan").output_levels:
            node = QRGNode("fan", "out", level.label)
            downstream_components = {eq.dst.component for eq in qrg.equiv_from(node)}
            assert downstream_components == {"br0", "br1"}


class _SnapshotRegistry:
    """What ``ComponentHost.price_fragment`` asks of a broker registry."""

    def __init__(self, snapshot):
        self._snapshot = snapshot

    def __contains__(self, resource_id):
        return resource_id in self._snapshot

    def snapshot(self, resource_ids, *, observed_at=None):
        return AvailabilitySnapshot({rid: self._snapshot[rid] for rid in resource_ids})


class TestSplitConstruction:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=chain_with_snapshots(), demand_scale=st.sampled_from([2.0, 10.0]))
    def test_price_plus_assemble_equals_build(self, diamond, case, demand_scale):
        """The distributed-pricing split must reproduce build_qrg exactly."""
        chain, chain_binding, snapshots = case
        inputs = [diamond] + [(chain, chain_binding, snapshot) for snapshot in snapshots]
        for service, binding, snapshot in inputs:
            source_level = resolve_source_level(service)
            fragments = []
            for component in service.components:
                fragments.extend(price_component_edges(component, binding, snapshot))
            stitched = assemble_qrg(service, source_level, fragments, snapshot)
            assert qrg_fingerprint(stitched) == qrg_fingerprint(
                build_qrg(service, binding, snapshot)
            )

            # The same split as §3 deploys it: a host prices a "fat"
            # session's fragments from its own stored components.
            host = ComponentHost("H", _SnapshotRegistry(snapshot))
            shipped = []
            for component in service.components:
                host.store_component(component)
                request = FragmentRequest("s", component.name, demand_scale)
                shipped.extend(host.price_fragment(request, binding).edges)
            stitched = assemble_qrg(service, source_level, shipped, snapshot)
            assert qrg_fingerprint(stitched) == qrg_fingerprint(
                build_qrg(_scaled_service(service, demand_scale), binding, snapshot)
            )

    def test_assemble_drops_foreign_source_inputs(self, small_service, small_binding, ample_snapshot):
        """Edges priced for unselected source levels are filtered out."""
        source_level = resolve_source_level(small_service)
        fragments = []
        for component in small_service.components:
            fragments.extend(
                price_component_edges(component, small_binding, ample_snapshot)
            )
        qrg = assemble_qrg(small_service, source_level, fragments, ample_snapshot)
        source_edges = [e for e in qrg.intra_edges if e.src.component == "c1"]
        assert all(e.src == qrg.source_node for e in source_edges)
