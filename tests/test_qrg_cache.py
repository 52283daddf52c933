"""QRG skeleton caching: cached construction == from-scratch construction.

The skeleton (nodes, equivalence edges, fan-in groups, priced
requirement vectors) depends only on (service, binding, source level);
only feasibility filtering and psi weights depend on the availability
snapshot.  These tests pin the contract: pricing a cached skeleton
against any snapshot yields exactly the graph ``build_qrg`` builds from
scratch -- including after explicit cache invalidation.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PlanningError
from repro.core.planner import BasicPlanner
from repro.core.qrg import (
    MEMO_MAX_ENTRIES,
    QRGSkeletonCache,
    build_qrg,
    build_skeleton,
    price_skeleton,
)
from repro.core.resources import (
    AvailabilitySnapshot,
    headroom_contention_index,
    log_contention_index,
    ratio_contention_index,
)
from repro.core.synthetic import random_availability, synthetic_chain, synthetic_diamond_dag
from repro.des.rng import RandomStreams
from repro.service.daemon import DaemonConfig, ReservationService
from repro.service.loadgen import arrival_payload
from repro.sim.workload import WorkloadGenerator, WorkloadSpec

from tests.test_service_daemon import VALID_PAIRS


def qrg_fingerprint(qrg):
    """Everything observable about a constructed QRG, as plain data."""
    return (
        str(qrg.source_node),
        sorted((str(node), level.label) for node, level in qrg.nodes.items()),
        sorted(
            (
                str(edge.src),
                str(edge.dst),
                tuple(sorted(edge.requirement.items())),
                tuple(sorted(edge.bound.items())),
                edge.weight,
                edge.bottleneck_resource,
                edge.alpha,
                tuple(sorted((edge.per_resource or {}).items())),
            )
            for edge in qrg.intra_edges
        ),
        sorted((str(eq.src), str(eq.dst)) for eq in qrg.equiv_edges),
        sorted(
            (str(group.input_node), tuple(str(part) for part in group.parts))
            for group in qrg.fanin_groups
        ),
    )


@st.composite
def chain_with_snapshots(draw):
    """A synthetic chain plus several random availability snapshots."""
    k = draw(st.integers(min_value=2, max_value=4))
    q = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    service, binding, snapshot = synthetic_chain(k, q, rng=rng)
    n_snapshots = draw(st.integers(min_value=1, max_value=3))
    snapshots = [
        random_availability(snapshot, rng, low=1.0, high=60.0)
        for _ in range(n_snapshots)
    ]
    return service, binding, snapshots


def graph_record(qrg):
    """The fingerprint plus everything the per-node accessors answer."""

    def edge_id(edge):
        return None if edge is None else (str(edge.src), str(edge.dst), edge.weight)

    per_node = []
    for node in sorted(set(qrg.nodes) | {edge.src for edge in qrg.intra_edges}):
        per_node.append(
            (
                str(node),
                [(str(dst), weight, edge_id(edge)) for dst, weight, edge in qrg.successors(node)],
                [edge_id(edge) for edge in qrg.intra_from(node)],
                [edge_id(edge) for edge in qrg.intra_into(node)],
                [(str(eq.src), str(eq.dst)) for eq in qrg.equiv_from(node)],
                [(str(eq.src), str(eq.dst)) for eq in qrg.equiv_into(node)],
                [tuple(str(part) for part in group.parts) for group in qrg.groups_for_input(node)],
            )
        )
    sinks = [str(node) for node in qrg.sink_nodes()]
    return qrg_fingerprint(qrg), per_node, sinks, qrg.count_nodes(), qrg.count_edges()


ATTACKS = (
    lambda value: value.clear(),
    lambda value: value.pop(),
    lambda value: value.append(None),
    lambda value: value.reverse(),
    lambda value: value.__delitem__(0),
    lambda value: value.__setitem__(0, None),
    lambda value: value.__delitem__(next(iter(value))),
    lambda value: value.__setitem__(next(iter(value)), None),
    lambda value: value.update({None: None}),
)


def try_to_poison(qrg):
    """Attempt every mutation on everything the graph hands out.

    Each attempt must either raise or land on a private copy; nothing is
    asserted here -- the caller re-reads the graphs afterwards.
    """
    handed_out = [qrg.nodes, qrg.equiv_edges, qrg.fanin_groups, qrg.sink_nodes()]
    for node in list(qrg.nodes):
        handed_out += [
            qrg.successors(node),
            qrg.intra_from(node),
            qrg.intra_into(node),
            qrg.equiv_from(node),
            qrg.equiv_into(node),
            qrg.groups_for_input(node),
        ]
    for value in handed_out:
        for attack in ATTACKS:
            try:
                attack(value)
            except (TypeError, AttributeError, KeyError, IndexError, StopIteration):
                pass


@st.composite
def service_with_draining_snapshots(draw):
    """A chain or a diamond DAG and a sequence of snapshots, some of
    which exhaust one resource (so edges come and go between pricings)."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        service, binding, snapshot = synthetic_chain(
            draw(st.integers(2, 4)), draw(st.integers(2, 3)), rng=rng
        )
    else:
        service, binding, snapshot = synthetic_diamond_dag(
            draw(st.integers(2, 3)), draw(st.integers(2, 3)), rng=rng
        )
    resource_ids = sorted(snapshot)
    snapshots = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        amounts = random_availability(snapshot, rng, low=1.0, high=80.0).availability()
        if draw(st.booleans()):
            amounts[draw(st.sampled_from(resource_ids))] = 0.0
        snapshots.append(AvailabilitySnapshot.from_amounts(amounts))
    return service, binding, snapshots


class TestCachedEqualsFresh:
    @settings(max_examples=40, deadline=None)
    @given(chain_with_snapshots())
    def test_cached_skeleton_matches_scratch_build(self, case):
        service, binding, snapshots = case
        cache = QRGSkeletonCache()
        for snapshot in snapshots:
            fresh = build_qrg(service, binding, snapshot)
            cached = build_qrg(service, binding, snapshot, skeleton_cache=cache)
            assert qrg_fingerprint(cached) == qrg_fingerprint(fresh)

    @settings(max_examples=40, deadline=None)
    @given(chain_with_snapshots())
    def test_invalidation_forces_identical_rebuild(self, case):
        service, binding, snapshots = case
        cache = QRGSkeletonCache()
        before = [
            qrg_fingerprint(build_qrg(service, binding, s, skeleton_cache=cache))
            for s in snapshots
        ]
        dropped = cache.invalidate()
        assert dropped >= 1
        assert len(cache) == 0
        after = [
            qrg_fingerprint(build_qrg(service, binding, s, skeleton_cache=cache))
            for s in snapshots
        ]
        assert after == before

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_diamond_dag_matches_scratch_build(self, branches, q, seed):
        rng = np.random.default_rng(seed)
        service, binding, snapshot = synthetic_diamond_dag(branches, q, rng=rng)
        snapshot = random_availability(snapshot, rng, low=2.0, high=80.0)
        cache = QRGSkeletonCache()
        fresh = build_qrg(service, binding, snapshot)
        cached = build_qrg(service, binding, snapshot, skeleton_cache=cache)
        assert qrg_fingerprint(cached) == qrg_fingerprint(fresh)

    @settings(max_examples=40, deadline=None)
    @given(service_with_draining_snapshots())
    def test_the_shared_structure_cannot_be_poisoned(self, case):
        # ONE cached skeleton, priced again and again; between pricings a
        # caller scribbles on whatever the previous graph let it reach.
        service, binding, snapshots = case
        cache = QRGSkeletonCache()
        earlier = []
        for snapshot in snapshots:
            expected = graph_record(build_qrg(service, binding, snapshot))
            cached = build_qrg(service, binding, snapshot, skeleton_cache=cache)
            assert graph_record(cached) == expected
            try_to_poison(cached)
            earlier.append((cached, expected))
            for graph, record in earlier:
                assert graph_record(graph) == record
        assert cache.stats() == {"hits": len(snapshots) - 1, "misses": 1, "size": 1}

    def test_a_skeleton_holds_one_node_instance_per_identity(self):
        # Equal-but-distinct nodes cost a field-by-field compare on every
        # dict hit; the skeleton hands everyone the node map's own keys.
        service, binding, _snapshot = synthetic_diamond_dag(2, 3, rng=np.random.default_rng(5))
        skeleton = build_skeleton(service, binding)
        structure = skeleton.structure
        canonical = {node: node for node in structure.nodes}
        referenced = [structure.source_node, *structure.sinks]
        for template in skeleton.edge_templates:
            referenced += [template.src, template.dst]
        for eq in structure.equiv_edges:
            referenced += [eq.src, eq.dst]
        for group in structure.fanin_groups:
            referenced += [group.input_node, *group.parts]
        assert structure.fanin_groups and skeleton.edge_templates
        assert all(node is canonical[node] for node in referenced)

    def test_plans_agree_on_cached_graph(self):
        rng = np.random.default_rng(11)
        service, binding, snapshot = synthetic_chain(3, 3, rng=rng)
        snapshot = random_availability(snapshot, rng, low=5.0, high=80.0)
        cache = QRGSkeletonCache()
        planner = BasicPlanner()
        fresh_plan = planner.plan(build_qrg(service, binding, snapshot))
        cached_plan = planner.plan(build_qrg(service, binding, snapshot, skeleton_cache=cache))
        assert (fresh_plan is None) == (cached_plan is None)
        if fresh_plan is not None:
            assert cached_plan.end_to_end_label == fresh_plan.end_to_end_label
            assert cached_plan.psi == pytest.approx(fresh_plan.psi)


class TestCacheBookkeeping:
    def test_hit_miss_counters(self):
        service, binding, snapshot = synthetic_chain(2, 2)
        cache = QRGSkeletonCache()
        build_qrg(service, binding, snapshot, skeleton_cache=cache)
        build_qrg(service, binding, snapshot, skeleton_cache=cache)
        build_qrg(service, binding, snapshot, skeleton_cache=cache)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert len(cache) == 1

    def test_selective_invalidation_by_service_name(self):
        service_a, binding_a, snapshot_a = synthetic_chain(2, 2)
        rng = np.random.default_rng(3)
        service_b, binding_b, snapshot_b = synthetic_diamond_dag(2, 2, rng=rng)
        cache = QRGSkeletonCache()
        build_qrg(service_a, binding_a, snapshot_a, skeleton_cache=cache)
        build_qrg(service_b, binding_b, snapshot_b, skeleton_cache=cache)
        assert len(cache) == 2
        assert cache.invalidate(service_a.name) == 1
        assert len(cache) == 1
        # The survivor still prices correctly.
        fresh = build_qrg(service_b, binding_b, snapshot_b)
        cached = build_qrg(service_b, binding_b, snapshot_b, skeleton_cache=cache)
        assert qrg_fingerprint(cached) == qrg_fingerprint(fresh)

    def test_invalidation_by_resource_drops_only_bound_skeletons(self):
        service_a, binding_a, snapshot_a = synthetic_chain(2, 2)
        rng = np.random.default_rng(3)
        service_b, binding_b, snapshot_b = synthetic_diamond_dag(2, 2, rng=rng)
        cache = QRGSkeletonCache()
        build_qrg(service_a, binding_a, snapshot_a, skeleton_cache=cache)
        build_qrg(service_b, binding_b, snapshot_b, skeleton_cache=cache)
        assert len(cache) == 2
        doomed = sorted(binding_a.resource_ids())[:1]
        assert cache.invalidate_resources(doomed) == 1
        assert len(cache) == 1
        # The survivor is untouched: pricing it is a cache hit and
        # matches a from-scratch build.
        hits_before = cache.hits
        fresh = build_qrg(service_b, binding_b, snapshot_b)
        cached = build_qrg(service_b, binding_b, snapshot_b, skeleton_cache=cache)
        assert cache.hits == hits_before + 1
        assert qrg_fingerprint(cached) == qrg_fingerprint(fresh)

    def test_invalidation_by_resource_ignores_unknown_and_empty(self):
        service, binding, snapshot = synthetic_chain(2, 2)
        cache = QRGSkeletonCache()
        build_qrg(service, binding, snapshot, skeleton_cache=cache)
        assert cache.invalidate_resources([]) == 0
        assert cache.invalidate_resources(["no-such-resource"]) == 0
        assert len(cache) == 1

    def test_missing_resource_error_matches_scratch_build(self):
        service, binding, _snapshot = synthetic_chain(2, 2)
        empty = AvailabilitySnapshot.from_amounts({})
        with pytest.raises(PlanningError) as fresh_err:
            build_qrg(service, binding, empty)
        cache = QRGSkeletonCache()
        with pytest.raises(PlanningError) as cached_err:
            build_qrg(service, binding, empty, skeleton_cache=cache)
        assert str(cached_err.value) == str(fresh_err.value)

    def test_price_skeleton_composes_with_build_skeleton(self):
        service, binding, snapshot = synthetic_chain(3, 2)
        skeleton = build_skeleton(service, binding)
        qrg = price_skeleton(skeleton, snapshot)
        assert qrg_fingerprint(qrg) == qrg_fingerprint(build_qrg(service, binding, snapshot))


class TestPricingOracle:
    """The inlined pricing loop == ``ResourceVector``'s statement of eq. 2-3.

    ``satisfiable_under`` and ``contention`` are the model's public,
    readable form of the rule; the per-session loop must never disagree
    with them on a weight, a bottleneck choice, or which edges survive.
    """

    INDICES = {
        "ratio": ratio_contention_index,
        "headroom": headroom_contention_index,
        "log": log_contention_index,
        "caller-supplied": lambda required, available: (required / available) ** 2,
    }

    @staticmethod
    def assert_priced_like_the_oracle(skeleton, snapshot, index):
        """Returns how many templates the feasibility filter dropped."""
        availability = snapshot.availability()
        qrg = price_skeleton(skeleton, snapshot, contention_index=index)
        priced = {(edge.src, edge.dst): edge for edge in qrg.intra_edges}
        assert len(priced) == len(qrg.intra_edges)
        dropped = 0
        for template in skeleton.edge_templates:
            edge = priced.pop((template.src, template.dst), None)
            if edge is None:
                assert not template.bound.satisfiable_under(availability)
                dropped += 1
                continue
            assert edge.bound.satisfiable_under(availability)
            report = edge.bound.contention(availability, index)
            assert edge.weight == report.psi
            assert edge.bottleneck_resource == report.bottleneck_resource
            assert edge.per_resource == report.per_resource
            assert edge.alpha == snapshot[report.bottleneck_resource].alpha
        assert not priced
        return dropped

    @settings(max_examples=40, deadline=None)
    @given(chain_with_snapshots(), st.sampled_from(sorted(INDICES)))
    def test_every_edge_equals_the_vector_oracle(self, case, index_name):
        service, binding, snapshots = case
        skeleton = build_skeleton(service, binding)
        for snapshot in snapshots:
            self.assert_priced_like_the_oracle(
                skeleton, snapshot, self.INDICES[index_name]
            )

    def test_starved_snapshot_drops_only_unsatisfiable_edges(self):
        service, binding, snapshot = synthetic_chain(3, 3)
        rng = np.random.default_rng(3)
        starved = random_availability(snapshot, rng, low=0.01, high=2.0)
        skeleton = build_skeleton(service, binding)
        dropped = self.assert_priced_like_the_oracle(
            skeleton, starved, ratio_contention_index
        )
        assert 0 < dropped

    def test_missing_resource_error_names_first_in_template_order(self):
        service, binding, snapshot = synthetic_chain(3, 2)
        skeleton = build_skeleton(service, binding)
        # Two resources absent: the message must name the one the
        # template walk meets first, and the component that needs it.
        absent = sorted(binding.resource_ids())[-3::2]
        partial = AvailabilitySnapshot.from_amounts(
            {
                rid: obs.available
                for rid, obs in snapshot.items()
                if rid not in absent
            }
        )
        component, first = next(
            (template.src.component, rid)
            for template in skeleton.edge_templates
            for rid, _required in template.bound_items
            if rid in absent
        )
        with pytest.raises(PlanningError) as err:
            price_skeleton(skeleton, partial)
        assert str(err.value) == (
            f"snapshot lacks resource {first!r} needed by component {component!r}"
        )


class TestCacheBound:
    """``demand_scale`` is wire input and part of the cache key."""

    def test_evicted_key_rebuilds_an_identical_skeleton(self):
        service, binding, snapshot = synthetic_chain(2, 2)
        cache = QRGSkeletonCache()
        original = cache.skeleton_for(service, binding, extra=(0,))
        for discriminator in range(1, MEMO_MAX_ENTRIES + 1):
            cache.skeleton_for(service, binding, extra=(discriminator,))
        assert len(cache) == MEMO_MAX_ENTRIES
        # The newest entries are hits; the oldest-inserted one was evicted.
        misses = cache.misses
        cache.skeleton_for(service, binding, extra=(MEMO_MAX_ENTRIES,))
        assert cache.misses == misses
        rebuilt = cache.skeleton_for(service, binding, extra=(0,))
        assert cache.misses == misses + 1
        assert rebuilt is not original
        assert qrg_fingerprint(price_skeleton(rebuilt, snapshot)) == qrg_fingerprint(
            price_skeleton(original, snapshot)
        )
        assert cache.invalidate() == MEMO_MAX_ENTRIES

    def test_wire_supplied_scales_cannot_grow_the_caches(self):
        service = ReservationService(DaemonConfig(port=0, seed=11))
        service.start()
        try:
            coordinator = service.coordinator

            def decide(pair, scale):
                # A daemon's DES clock stands still; advance it so the
                # brokers' trend windows prune and 5,000 calls stay quick.
                service.env.run(until=service.env.now + 1.0)
                outcome = service.establish(
                    {"service": pair[0], "domain": pair[1], "demand_scale": scale}
                )
                if outcome["success"]:
                    service.teardown({"session_id": outcome["session_id"]})
                return outcome["success"], outcome["level"], outcome["psi"]

            def paper_decisions():
                return [
                    decide(pair, scale)
                    for pair in VALID_PAIRS
                    for scale in (1.0, 2.0, 10.0)
                ]

            before = paper_decisions()
            first_flood = decide(VALID_PAIRS[0], 1.0 + 1e-6)
            for i in range(2, 5001):
                decide(VALID_PAIRS[0], 1.0 + i * 1e-6)
            assert len(coordinator.qrg_skeletons) <= MEMO_MAX_ENTRIES
            assert len(coordinator._scaled_services) <= MEMO_MAX_ENTRIES
            assert not service.sessions

            misses = coordinator.qrg_skeletons.misses
            assert decide(VALID_PAIRS[0], 1.0 + 1e-6) == first_flood
            assert coordinator.qrg_skeletons.misses == misses + 1
            assert paper_decisions() == before
        finally:
            service.close()


class TestSharedStructure:
    """One ``QRGStructure`` per (service, source level, extras), whatever the binding."""

    def test_skeletons_share_their_services_structure(self):
        service = ReservationService(DaemonConfig(seed=7))
        service.start()
        try:
            generator = WorkloadGenerator(
                WorkloadSpec(rate_per_60tu=240.0, horizon=250.0), RandomStreams(13)
            )
            for arrival in itertools.islice(generator.generate(), 300):
                outcome = service.establish(arrival_payload(arrival))
                if outcome["success"]:
                    service.teardown({"session_id": arrival.session_id})
            cache = service.coordinator.qrg_skeletons
            skeletons = dict(cache._skeletons)
        finally:
            service.close()
        structures = {}
        for key, skeleton in skeletons.items():
            structures.setdefault(key[:3], set()).add(id(skeleton.structure))
        # Several bindings per key: sharing is what the test can see.
        assert len(skeletons) > len(structures)
        assert all(len(ids) == 1 for ids in structures.values()), structures
        assert len({id(s.structure) for s in skeletons.values()}) == len(structures)

    def test_invalidation_drops_a_names_structures_and_keeps_the_rest(self):
        service_a, binding_a, _ = synthetic_chain(2, 2)
        rng = np.random.default_rng(3)
        service_b, binding_b, _ = synthetic_diamond_dag(2, 2, rng=rng)
        cache = QRGSkeletonCache()
        a = cache.skeleton_for(service_a, binding_a).structure
        b = cache.skeleton_for(service_b, binding_b).structure
        # Dropping a's skeletons by resource keeps its structure: a
        # structure holds no binding.
        assert cache.invalidate_resources(sorted(binding_a.resource_ids())[:1]) == 1
        assert cache.skeleton_for(service_a, binding_a).structure is a
        assert cache.invalidate(service_a.name) == 1
        assert cache.skeleton_for(service_a, binding_a).structure is not a
        assert cache.skeleton_for(service_b, binding_b).structure is b
        cache.invalidate()
        assert cache.skeleton_for(service_b, binding_b).structure is not b
