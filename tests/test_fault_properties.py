"""Property: no seeded fault schedule can leak reserved capacity.

Hypothesis drives ~200 random ``(FaultConfig, seed)`` pairs through the
coordinator under a fault injector — establishments, partial teardowns,
orphan reaping — and asserts the conservation invariant at every checkpoint
plus broker quiescence at the end.  A leak in either direction
(capacity a broker holds that no proxy will release, or a proxy
tracking capacity the broker already freed) fails the property.

Both placements of the model are covered: the centralized one on the
small rig (plain proxies) and the distributed one (§3: component
fragments priced by ComponentHost proxies, dispatched through the same
lease machinery).

The sessions run synchronously (the DES driver shares the same protocol
generator, exercised by the full-simulation tests in test_faults.py);
what varies here is the *fault schedule*, which is the quantity the
invariant must be robust against.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.brokers import (
    BrokerRegistry,
    LinkBandwidthBroker,
    LocalResourceBroker,
    PathBroker,
)
from repro.core import BasicPlanner
from repro.des.engine import Environment
from repro.faults import (
    FAULT_SEED_INDEX,
    FaultConfig,
    FaultInjector,
    FaultPlan,
    assert_capacity_conserved,
)
from repro.obs import EventLog, event_logging
from repro.runtime import ComponentHost, ModelStore, ReservationCoordinator
from repro.sim.experiment import derive_run_seed

from tests.test_faults import ScriptedInjector, build_ft_rig

rates = st.floats(min_value=0.0, max_value=0.6, allow_nan=False)
window_rates = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)


@st.composite
def fault_configs(draw):
    return FaultConfig(
        drop_rate=draw(rates),
        stale_rate=draw(rates),
        crash_rate=draw(window_rates),
        crash_duration=draw(st.floats(min_value=1.0, max_value=40.0)),
        partition_rate=draw(window_rates),
        partition_duration=draw(st.floats(min_value=1.0, max_value=20.0)),
        max_retries=draw(st.integers(min_value=0, max_value=3)),
        max_replans=draw(st.integers(min_value=0, max_value=2)),
        lease_ttl=draw(st.floats(min_value=1.0, max_value=60.0)),
    )


class FakeClock:
    """A controllable clock so crash/partition windows actually bite."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(config=fault_configs(), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_no_fault_schedule_leaks_capacity(small_service, small_binding, config, seed):
    clock = FakeClock()
    plan = FaultPlan.generate(
        config,
        seed=derive_run_seed(seed, FAULT_SEED_INDEX),
        horizon=120.0,
        hosts=("H1", "H2"),
    )
    injector = FaultInjector(plan, clock=clock)
    registry, coordinator, proxies = build_ft_rig(small_service, injector)

    established = []
    for n in range(10):
        clock.now = 12.0 * n  # walk through the fault windows
        result = coordinator.establish(f"s{n}", "small", small_binding, BasicPlanner())
        if result.success:
            established.append(f"s{n}")
        # The invariant must hold at every instant, including mid-run
        # with orphaned leases outstanding.
        assert_capacity_conserved(registry, proxies)
        if len(established) >= 2:  # churn: keep contention, free capacity
            coordinator.teardown(established.pop(0))
            assert_capacity_conserved(registry, proxies)

    for session_id in established:
        coordinator.teardown(session_id)
    coordinator.reap_orphans(force=True)
    assert_capacity_conserved(registry, proxies)
    registry.assert_quiescent()
    for proxy in proxies.values():
        for session_id in list(getattr(proxy, "_held", {})):
            assert proxy.held_for(session_id) == ()


def build_ft_distributed_rig(small_service, injector, clock, env=None):
    """The test_distributed rig behind the fault boundary: component
    definitions stored host-side, fragments priced there (§3)."""
    registry = BrokerRegistry()
    cpu = LocalResourceBroker("H1", "cpu", 100.0, clock=clock)
    link = LinkBandwidthBroker("L1", "H1", "H2", 100.0, clock=clock)
    path = PathBroker("net:L1", [link], clock=clock)
    for broker in (cpu, link, path):
        registry.register(broker)
    host1 = ComponentHost("H1", registry)
    host1.store_component(small_service.component("c1"))
    host2 = ComponentHost("H2", registry)
    host2.store_component(small_service.component("c2"))
    structure = ModelStore()
    structure.register(small_service)
    proxies = {"H1": host1, "H2": host2}
    coordinator = ReservationCoordinator(
        registry, structure, proxies, injector=injector, env=env
    )
    return registry, coordinator, proxies


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(config=fault_configs(), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_no_fault_schedule_leaks_capacity_distributed(
    small_service, small_binding, config, seed
):
    """The §3 fragment-dispatch path conserves capacity under any
    schedule, exactly like the centralized protocol."""
    clock = FakeClock()
    plan = FaultPlan.generate(
        config,
        seed=derive_run_seed(seed, FAULT_SEED_INDEX),
        horizon=120.0,
        hosts=("H1", "H2"),
    )
    injector = FaultInjector(plan, clock=clock)
    registry, coordinator, proxies = build_ft_distributed_rig(
        small_service, injector, clock
    )

    established = []
    log = EventLog()
    with event_logging(log):
        for n in range(10):
            clock.now = 12.0 * n
            result = coordinator.establish(
                f"d{n}", "small", small_binding, BasicPlanner()
            )
            if result.success:
                established.append(f"d{n}")
            assert_capacity_conserved(registry, proxies)
            if len(established) >= 2:
                coordinator.teardown(established.pop(0))
                assert_capacity_conserved(registry, proxies)

        for session_id in established:
            coordinator.teardown(session_id)
        coordinator.reap_orphans(force=True)
    assert_capacity_conserved(registry, proxies)
    registry.assert_quiescent()
    for proxy in proxies.values():
        for session_id in list(getattr(proxy, "_held", {})):
            assert proxy.held_for(session_id) == ()

    # The fragment path runs behind the *shared* fault boundary: every
    # lost availability/reserve/ack message is a segment.timeout, and
    # every reaped orphan (a lost release order) a lease.expired.
    lost = [
        dict(fault.detail)["channel"]
        for fault in injector.injected
        if fault.kind in ("message_drop", "broker_crash", "proxy_partition")
    ]
    assert log.count("segment.timeout") == len(lost) - lost.count("release")
    assert log.count("lease.expired") == coordinator.leases_reaped
    assert coordinator.leases_reaped <= lost.count("release")
    assert coordinator.pending_leases() == ()


def test_distributed_lost_ack_and_release_go_through_the_shared_boundary(
    small_service, small_binding
):
    """Scripted: the first ack and its compensating release are lost on
    the fragment path -- the events and the orphan are the centralized
    boundary's, because it *is* the centralized boundary."""
    clock = FakeClock()
    injector = ScriptedInjector(
        {"ack": ["message_drop"], "release": ["message_drop"]}, clock=clock
    )
    registry, coordinator, proxies = build_ft_distributed_rig(
        small_service, injector, clock
    )
    log = EventLog()
    with event_logging(log):
        result = coordinator.establish("d1", "small", small_binding, BasicPlanner())
        assert result.success
        (orphan,) = coordinator.pending_leases()
        assert coordinator.reap_orphans(now=orphan.expires_at - 1.0) == 0
        clock.now = orphan.expires_at
        assert coordinator.reap_orphans() == 1
        coordinator.teardown("d1")
    assert log.count("segment.timeout") == 1
    assert log.count("segment.retry") == 1
    assert log.count("lease.expired") == 1
    assert_capacity_conserved(registry, proxies)
    registry.assert_quiescent()


def test_distributed_orphan_is_reaped_on_time_under_the_des_driver(
    small_service, small_binding
):
    """§3 fragment pricing under the DES driver with faults: the first
    ack and its compensating release are lost, and the orphan's DES
    watchdog reaps it at ``expires_at`` while the session still holds
    the lease its retry committed.  Capacity is conserved at every
    instant the clock stops at."""
    env = Environment()
    clock = lambda: env.now  # noqa: E731
    injector = ScriptedInjector(
        {"ack": ["message_drop"], "release": ["message_drop"]}, clock=clock
    )
    registry, coordinator, proxies = build_ft_distributed_rig(
        small_service, injector, clock, env=env
    )
    priced = []

    def counting(price):
        def wrapper(request, *args, **kwargs):
            priced.append(request.component)
            return price(request, *args, **kwargs)

        return wrapper

    for host in proxies.values():
        host.price_fragment = counting(host.price_fragment)

    orphans = []

    def session():
        result = yield from coordinator.establish_process(
            env, 0.4, "d1", "small", small_binding, BasicPlanner()
        )
        assert result.success
        orphans.extend(coordinator.pending_leases())
        yield env.timeout(orphans[0].expires_at - env.now + 1.0)
        coordinator.teardown("d1")

    env.process(session())
    log = EventLog()
    with event_logging(log):
        while env.peek() < math.inf:
            env.run(until=env.peek())
            assert_capacity_conserved(registry, proxies)

    assert priced == ["c1", "c2"]
    (orphan,) = orphans
    expired = [event for event in log if event.kind == "lease.expired"]
    assert [(event.time, event.attributes["lease"]) for event in expired] == [
        (orphan.expires_at, orphan.lease_id)
    ]
    assert coordinator.leases_reaped == 1
    assert coordinator.pending_leases() == ()
    registry.assert_quiescent()
