"""A batch == one phase-1 round, then the sequential loop, byte for byte.

:meth:`ReservationCoordinator.establish_batch` shares exactly one thing
across its arrivals -- the availability snapshot -- so everything
observable about it (results, causal events in order, *all* counters,
the span stream, broker end-state) must be what the written-out loop

    shared = coordinator._collect_batch_snapshot(requests, observed_at)
    [coordinator.establish(..., snapshot=shared) for r in requests]

produces.  These property tests pin that contract (one phase 1,
admission in request order) over random arrival sets on the figure-9
grid, for every planner.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BasicPlanner, RandomPlanner, TradeoffPlanner
from repro.core.errors import ModelError
from repro.des import Environment, RandomStreams
from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.obs.events import EventLog, event_logging
from repro.obs.metrics import MetricsRegistry, metering
from repro.obs.trace import Tracer, tracing
from repro.runtime import ReservationCoordinator, SessionRequest
from repro.sim.environment import GridEnvironment


def fresh_grid(seed: int = 7) -> GridEnvironment:
    return GridEnvironment(Environment(), RandomStreams(seed))


def _valid_pairs():
    """Every (service, domain) pair the §5.1 exclusion rule allows."""
    grid = fresh_grid()
    pairs = []
    for service in sorted(grid.services):
        for domain in sorted(grid.topology.domains):
            try:
                grid.binding_for(service, domain)
            except ModelError:
                continue
            pairs.append((service, domain))
    return pairs


VALID_PAIRS = _valid_pairs()


def requests_for(grid, picks, demand_scale=1.0):
    return [
        SessionRequest(
            session_id=f"s{index:03d}",
            service_name=service,
            binding=grid.binding_for(service, domain),
            component_hosts=grid.component_hosts_for(service, domain),
            demand_scale=demand_scale,
        )
        for index, (service, domain) in enumerate(picks)
    ]


def event_view(log):
    """Everything deterministic about the event stream (wall excluded)."""
    return [
        (e.seq, e.kind, e.session, e.resource, e.time, e.attributes)
        for e in log
    ]


def broker_state(grid):
    return {rid: grid.registry.broker(rid).available for rid in grid.resource_ids()}


def span_view(tracer):
    """Everything deterministic about the span stream (clock excluded)."""
    return [
        (r.index, r.name, r.depth, r.parent_index, r.attributes)
        for r in tracer.records
    ]


def observed(grid, run):
    """``run()`` under a fresh event log, registry and tracer."""
    log, registry, tracer = EventLog(), MetricsRegistry(), Tracer()
    with event_logging(log), metering(registry), tracing(tracer):
        results = run()
    return (
        results,
        event_view(log),
        registry.snapshot()["counters"],
        span_view(tracer),
        broker_state(grid),
    )


def run_batched(grid_seed, picks, make_planner, demand_scale=1.0):
    grid = fresh_grid(grid_seed)
    requests = requests_for(grid, picks, demand_scale)
    planner = make_planner()
    return observed(
        grid, lambda: grid.coordinator.establish_batch(requests, planner)
    )


def run_sequential(grid_seed, picks, make_planner, demand_scale=1.0):
    grid = fresh_grid(grid_seed)
    requests = requests_for(grid, picks, demand_scale)
    planner = make_planner()

    def written_out():
        shared = grid.coordinator._collect_batch_snapshot(requests, None)
        return [
            grid.coordinator.establish(
                r.session_id,
                r.service_name,
                r.binding,
                planner,
                component_hosts=r.component_hosts,
                source_label=r.source_label,
                demand_scale=r.demand_scale,
                snapshot=shared,
            )
            for r in requests
        ]

    return observed(grid, written_out)


def assert_identical(batched, sequential):
    views = ("results", "events", "counters", "spans", "brokers")
    for view, ours, reference in zip(views, batched, sequential):
        assert ours == reference, view


PLANNERS = {
    "basic": BasicPlanner,
    "tradeoff": TradeoffPlanner,
}

arrival_sets = st.lists(
    st.sampled_from(VALID_PAIRS), min_size=1, max_size=10
)


class TestEstablishBatchIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        picks=arrival_sets,
        grid_seed=st.integers(min_value=0, max_value=2**16),
        planner_name=st.sampled_from(sorted(PLANNERS)),
    )
    def test_matches_sequential_loop(self, picks, grid_seed, planner_name):
        make_planner = PLANNERS[planner_name]
        assert_identical(
            run_batched(grid_seed, picks, make_planner),
            run_sequential(grid_seed, picks, make_planner),
        )

    @settings(max_examples=10, deadline=None)
    @given(
        picks=arrival_sets,
        rng_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_planner_matches_with_identical_seed(self, picks, rng_seed):
        # A fresh, identically-seeded instance per run is the fair
        # comparison: both sides consume the rng in request order.
        assert_identical(
            run_batched(7, picks, lambda: RandomPlanner(rng=np.random.default_rng(rng_seed))),
            run_sequential(7, picks, lambda: RandomPlanner(rng=np.random.default_rng(rng_seed))),
        )

    def test_fat_sessions_exhaust_capacity_identically(self):
        # Oversubscribe on purpose: later sessions must see earlier
        # admissions and fail at exactly the same points on both paths.
        picks = [VALID_PAIRS[0]] * 8 + VALID_PAIRS[:4]
        batched = run_batched(7, picks, TradeoffPlanner, demand_scale=40.0)
        sequential = run_sequential(7, picks, TradeoffPlanner, demand_scale=40.0)
        assert_identical(batched, sequential)
        outcomes = [r.success for r in batched[0]]
        assert not all(outcomes), "oversubscription should reject some sessions"
        assert any(outcomes), "some sessions should still be admitted"

    def test_empty_batch(self):
        grid = fresh_grid()
        assert grid.coordinator.establish_batch([], BasicPlanner()) == []

    def test_a_batch_runs_phase_one_once_over_the_union(self):
        # What a batch saves: N arrivals, one availability round.
        grid = fresh_grid()
        requests = requests_for(grid, VALID_PAIRS[:6])
        union = {rid for r in requests for rid in r.binding.resource_ids()}
        tracer = Tracer()
        with tracing(tracer):
            grid.coordinator.establish_batch(requests, BasicPlanner())
        rounds = [r for r in tracer.records if r.name == "phase1_availability"]
        assert [r.attributes["resources"] for r in rounds] == [len(union)]
        assert tracer.count("phase2_plan") == len(requests)


class TestFaultBoundary:
    def fault_tolerant(self, grid, config):
        plan = FaultPlan.generate(config, seed=1, horizon=0.0, hosts=())
        return ReservationCoordinator(
            grid.registry, grid.model_store, grid.proxies, injector=FaultInjector(plan)
        )

    def test_zero_plan_batch_is_the_shared_snapshot_loop(self):
        grid = fresh_grid()
        ft = self.fault_tolerant(grid, FaultConfig())
        requests = requests_for(grid, VALID_PAIRS[:6])
        batched = observed(grid, lambda: ft.establish_batch(requests, BasicPlanner()))
        assert_identical(batched, run_sequential(7, VALID_PAIRS[:6], BasicPlanner))

    def test_faulty_plan_batch_shares_no_snapshot(self):
        # Faults are injected per message: every arrival must run the
        # tolerant protocol's own phase 1, or the plan's faults are masked.
        grid = fresh_grid()
        ft = self.fault_tolerant(grid, FaultConfig(stale_rate=1.0))
        requests = requests_for(grid, VALID_PAIRS[:6])
        tracer = Tracer()
        with tracing(tracer):
            results = ft.establish_batch(requests, BasicPlanner())
        assert [r.session_id for r in results] == [r.session_id for r in requests]
        assert tracer.count("phase1_availability") == len(requests)

    def test_faulty_plan_batch_refuses_a_given_snapshot(self):
        # establish(snapshot=...) refuses under a non-zero plan, so the
        # batch must too, rather than silently drop the caller's snapshot.
        grid = fresh_grid()
        ft = self.fault_tolerant(grid, FaultConfig(stale_rate=1.0))
        requests = requests_for(grid, VALID_PAIRS[:3])
        shared = grid.coordinator._collect_batch_snapshot(requests, None)
        before = broker_state(grid)
        with pytest.raises(ModelError, match="snapshot="):
            ft.establish_batch(requests, BasicPlanner(), snapshot=shared)
        assert broker_state(grid) == before
