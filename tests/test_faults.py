"""The repro.faults subsystem: plans, injection, recovery, conservation.

The three contracts under test:

* **Determinism** -- a fault plan (and every decision derived from it)
  is a pure function of ``(config, seed, horizon, hosts)``, and a
  faulty simulation is a pure function of its config;
* **Zero-fault byte-identity** -- with an all-zero :class:`FaultConfig`
  the coordinator under a zero injector runs the protocol it runs
  without one and records what it records: same
  ``EstablishmentResult``s, events and spans, same full-simulation
  metrics;
* **No capacity leaks** -- whatever is injected, the brokers' and
  proxies' reservation books agree (``capacity_conservation``) and the
  registry is quiescent once sessions are torn down and orphaned
  leases reaped.
"""

import math

import pytest

from repro.brokers import (
    BrokerRegistry,
    LinkBandwidthBroker,
    LocalResourceBroker,
    PathBroker,
)
from repro.core import BasicPlanner
from repro.core.errors import ModelError
from repro.des import Environment
from repro.faults import (
    CapacityConservationError,
    FaultConfig,
    FaultInjector,
    FaultPlan,
    FaultWindow,
    assert_capacity_conserved,
    capacity_conservation,
)
from repro.obs import EventLog, ObservabilityConfig, event_logging
from repro.obs.trace import Tracer, tracing
from repro.runtime import ModelStore, QoSProxy, ReservationCoordinator, ServiceSession
from repro.runtime.messages import PlanSegment
from repro.sim import SimulationConfig, WorkloadSpec, run_simulation

HOSTS = ("H1", "H2", "H3")


def faulty_config(**kw):
    defaults = dict(
        seed=11,
        workload=WorkloadSpec(rate_per_60tu=100.0, horizon=250.0),
        faults=FaultConfig(drop_rate=0.1, crash_rate=0.1, stale_rate=0.1),
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


def build_ft_rig(small_service, injector, env=None):
    """The test_coordinator_edges rig, its coordinator under ``injector``."""
    registry = BrokerRegistry()
    clock = (lambda: env.now) if env is not None else None
    cpu = LocalResourceBroker("H1", "cpu", 100.0, clock=clock)
    link = LinkBandwidthBroker("L1", "H1", "H2", 100.0, clock=clock)
    path = PathBroker("net:L1", [link], clock=clock)
    for broker in (cpu, link, path):
        registry.register(broker)
    proxy_h1 = QoSProxy("H1", registry)
    proxy_h1.own("cpu:H1")
    proxy_h2 = QoSProxy("H2", registry)
    proxy_h2.own("net:L1")
    store = ModelStore()
    store.register(small_service)
    proxies = {"H1": proxy_h1, "H2": proxy_h2}
    coordinator = ReservationCoordinator(
        registry, store, proxies, injector=injector, env=env
    )
    return registry, coordinator, proxies


class ScriptedInjector(FaultInjector):
    """An injector whose per-channel decisions come from a fixed script.

    ``script`` maps a message channel to the fault kinds (or ``None``)
    of its successive calls; exhausted scripts deliver everything.
    Fired faults are recorded/emitted exactly like real ones.
    """

    def __init__(self, script, *, clock=None):
        # A non-zero config so the coordinator takes the tolerant path.
        plan = FaultPlan.generate(
            FaultConfig(drop_rate=0.5), seed=1, horizon=0.0, hosts=()
        )
        super().__init__(plan, clock=clock)
        self.script = {channel: list(entries) for channel, entries in script.items()}

    def message_fault(self, channel, host, session):
        entries = self.script.get(channel)
        if entries:
            kind = entries.pop(0)
            if kind is not None:
                self._record(kind, host=host, session=session, channel=channel)
                return kind
        return None

    def message_delay(self, channel, host, session):
        return 0.0

    def stale_age_for(self, host, session):
        return None


# -- FaultConfig / FaultPlan ------------------------------------------------


class TestFaultConfig:
    def test_default_is_zero(self):
        assert FaultConfig().is_zero

    def test_any_rate_makes_it_nonzero(self):
        for knob in ("drop_rate", "delay_rate", "crash_rate", "partition_rate", "stale_rate"):
            assert not FaultConfig(**{knob: 0.1}).is_zero

    @pytest.mark.parametrize(
        "bad",
        [
            dict(drop_rate=1.5),
            dict(stale_rate=-0.1),
            dict(crash_rate=-1.0),
            dict(lease_ttl=0.0),
            dict(crash_duration=-3.0),
            dict(max_retries=-1),
            dict(backoff_jitter=-0.5),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ModelError):
            FaultConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(max_retries=1.5),
            dict(max_replans=True),
            dict(lease_ttl=math.nan),
            dict(lease_ttl=math.inf),
            dict(crash_duration=math.inf),
            dict(backoff_base=math.nan),
            dict(crash_rate=math.inf),
            dict(backoff_jitter=math.nan),
        ],
    )
    def test_non_finite_numbers_and_non_int_counts_are_refused(self, bad):
        with pytest.raises(ModelError):
            FaultConfig(**bad)


class TestFaultPlan:
    def test_same_inputs_same_plan(self):
        config = FaultConfig(crash_rate=2.0, partition_rate=1.0)
        a = FaultPlan.generate(config, seed=42, horizon=600.0, hosts=HOSTS)
        b = FaultPlan.generate(config, seed=42, horizon=600.0, hosts=HOSTS)
        assert a == b
        assert a.windows and a.windows == b.windows

    def test_different_seed_different_windows(self):
        config = FaultConfig(crash_rate=2.0)
        a = FaultPlan.generate(config, seed=1, horizon=600.0, hosts=HOSTS)
        b = FaultPlan.generate(config, seed=2, horizon=600.0, hosts=HOSTS)
        assert a.windows != b.windows

    def test_adding_a_host_preserves_other_schedules(self):
        config = FaultConfig(crash_rate=2.0)
        small = FaultPlan.generate(config, seed=3, horizon=600.0, hosts=("H1", "H2"))
        grown = FaultPlan.generate(config, seed=3, horizon=600.0, hosts=HOSTS)
        for host in ("H1", "H2"):
            assert small.windows_for(host) == grown.windows_for(host)

    def test_windows_per_host_never_overlap(self):
        config = FaultConfig(crash_rate=10.0, crash_duration=15.0)
        plan = FaultPlan.generate(config, seed=5, horizon=2000.0, hosts=HOSTS)
        for host in HOSTS:
            windows = plan.windows_for(host)
            assert windows, "a 10/60TU rate over 2000 TU must produce windows"
            for earlier, later in zip(windows, windows[1:]):
                assert earlier.end <= later.start

    def test_active_window_lookup(self):
        config = FaultConfig(crash_rate=2.0, crash_duration=20.0)
        plan = FaultPlan.generate(config, seed=7, horizon=600.0, hosts=("H1",))
        window = plan.windows_for("H1")[0]
        assert plan.active_window("H1", window.start) is window
        assert plan.active_window("H1", window.end) is not window
        assert plan.active_window("H9", window.start) is None

    def test_zero_plan(self):
        assert FaultPlan.zero().is_zero
        assert FaultPlan.generate(
            FaultConfig(), seed=0, horizon=600.0, hosts=HOSTS
        ).is_zero


class TestFaultInjector:
    def test_disabled_injector_is_zero_and_never_fires(self):
        injector = FaultInjector.disabled()
        assert injector.is_zero
        for channel in ("availability", "reserve", "ack", "release"):
            assert injector.message_fault(channel, "H1", "s1") is None
            assert injector.message_delay(channel, "H1", "s1") == 0.0
        assert injector.stale_age_for("H1", "s1") is None
        assert injector.injected == []

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown message channel"):
            FaultInjector.disabled().message_fault("gossip", "H1", "s1")

    def test_decisions_replay_identically(self):
        config = FaultConfig(drop_rate=0.3, delay_rate=0.3, stale_rate=0.3)
        plan = FaultPlan.generate(config, seed=9, horizon=600.0, hosts=HOSTS)

        def run_one():
            injector = FaultInjector(plan)
            decisions = []
            for n in range(200):
                host = HOSTS[n % len(HOSTS)]
                decisions.append(injector.message_fault("reserve", host, "s"))
                decisions.append(injector.message_delay("ack", host, "s"))
                decisions.append(injector.stale_age_for(host, "s"))
                decisions.append(injector.backoff(n % 3))
            return decisions, injector.injected_counts()

        assert run_one() == run_one()

    def test_outage_window_beats_the_drop_draw(self):
        config = FaultConfig(crash_rate=2.0, crash_duration=20.0)
        plan = FaultPlan.generate(config, seed=9, horizon=600.0, hosts=("H1",))
        window = plan.windows_for("H1")[0]
        injector = FaultInjector(plan, clock=lambda: window.start + 1.0)
        assert injector.message_fault("reserve", "H1", "s1") == "broker_crash"
        assert injector.injected_counts() == {"broker_crash": 1}

    def test_backoff_is_bounded(self):
        config = FaultConfig(
            drop_rate=0.1, backoff_base=0.25, backoff_cap=4.0, backoff_jitter=0.5
        )
        plan = FaultPlan.generate(config, seed=1, horizon=0.0, hosts=())
        injector = FaultInjector(plan)
        for attempt in range(8):
            delay = injector.backoff(attempt)
            assert 0.25 <= delay <= 4.0 * 1.5


# -- zero-fault byte-identity ----------------------------------------------


class TestZeroFaultIdentity:
    def test_direct_results_match_plain_coordinator(self, small_service, small_binding):
        registry, ft, proxies = build_ft_rig(small_service, FaultInjector.disabled())
        plain_registry = BrokerRegistry()
        cpu = LocalResourceBroker("H1", "cpu", 100.0)
        link = LinkBandwidthBroker("L1", "H1", "H2", 100.0)
        path = PathBroker("net:L1", [link])
        for broker in (cpu, link, path):
            plain_registry.register(broker)
        p1 = QoSProxy("H1", plain_registry)
        p1.own("cpu:H1")
        p2 = QoSProxy("H2", plain_registry)
        p2.own("net:L1")
        store = ModelStore()
        store.register(small_service)
        plain = ReservationCoordinator(plain_registry, store, {"H1": p1, "H2": p2})

        records = {}
        for name, coordinator in (("ft", ft), ("plain", plain)):
            tracer, log = Tracer(), EventLog()
            with tracing(tracer), event_logging(log):
                results = [
                    coordinator.establish(f"s{n}", "small", small_binding, BasicPlanner())
                    for n in range(6)
                ]
                released = coordinator.teardown("s0")
            records[name] = (
                results,
                released,
                [
                    {key: value for key, value in event.items() if key != "wall"}
                    for event in log.to_dicts()
                ],
                [(r.name, r.depth, r.index, r.parent_index, r.attributes)
                 for r in tracer.records],
            )
        assert records["ft"] == records["plain"]
        assert records["ft"][2] and records["ft"][3]

    def test_simulation_metrics_identical(self):
        base = dict(seed=11, workload=WorkloadSpec(rate_per_60tu=100.0, horizon=250.0))
        plain = run_simulation(SimulationConfig(**base))
        zero = run_simulation(SimulationConfig(faults=FaultConfig(), **base))
        assert zero.metrics == plain.metrics
        assert zero.paths == plain.paths
        assert zero.fault_stats == {"orphans_reaped": 0}

    def test_des_driver_records_identical(self):
        # Every simulated session runs establish_process, which drives
        # the one protocol generator on the DES clock: a zero plan yields
        # no delay, so the interleaving and every record are the same.
        def records(**faults):
            result = run_simulation(
                SimulationConfig(
                    seed=11,
                    workload=WorkloadSpec(rate_per_60tu=100.0, horizon=150.0),
                    observability=ObservabilityConfig(),
                    **faults,
                )
            )
            observation = result.observation
            return (
                result.metrics,
                [
                    {key: value for key, value in event.items() if key != "wall"}
                    for event in observation.event_log.to_dicts()
                ],
                [(r.name, r.depth, r.index, r.parent_index, r.attributes)
                 for r in observation.tracer.records],
            )

        assert records(faults=FaultConfig()) == records()


# -- faulty full simulations -----------------------------------------------


class LateReports(FaultInjector):
    """The plan's outage windows, no random fault, and every phase-1
    report arriving ``delay`` TU late."""

    def __init__(self, plan, delay, *, clock):
        super().__init__(plan, clock=clock)
        self.delay = delay

    def message_delay(self, channel, host, session):
        return self.delay if channel == "availability" else 0.0


class TestSimulatedTime:
    """Every simulated session runs the protocol on the DES clock."""

    def test_a_session_backs_off_past_a_crash_window(self, small_service, small_binding):
        # Phase 1's two reports arrive at t = 2; H1 is down in [1.5, 2.2),
        # so the first reserve to H1 is lost, and its retry after a
        # 0.25 TU backoff lands once the window has passed.
        env = Environment()
        plan = FaultPlan(
            config=FaultConfig(backoff_jitter=0.0),
            seed=1,
            horizon=10.0,
            hosts=("H1", "H2"),
            windows=(FaultWindow("broker_crash", "H1", start=1.5, duration=0.7),),
        )
        injector = LateReports(plan, 1.0, clock=lambda: env.now)
        registry, coordinator, proxies = build_ft_rig(small_service, injector, env)
        session = ServiceSession(
            env, coordinator, "s1", "small", small_binding, BasicPlanner(),
            duration=10.0,
        )
        process = env.process(session.run())
        log = EventLog()
        with event_logging(log):
            env.run()
        outcome = process.value
        assert outcome.success
        assert outcome.ended_at == 2.25 + 10.0
        assert [(event.time, event.attributes["host"]) for event in log
                if event.kind == "segment.timeout"] == [(2.0, "H1")]
        assert injector.injected_counts() == {"broker_crash": 1}
        assert_capacity_conserved(registry, proxies)
        registry.assert_quiescent()

    def test_suspended_sessions_nest_no_establish_span(self):
        def spans(**changes):
            result = run_simulation(
                faulty_config(
                    algorithm="tradeoff",
                    seed=7,
                    workload=WorkloadSpec(rate_per_60tu=120.0, horizon=200.0),
                    observability=ObservabilityConfig(),
                    **changes,
                )
            )
            return result.observation.tracer.records

        faulty = spans()
        establish = [record for record in faulty if record.name == "establish"]
        assert establish
        assert [record for record in establish if record.parent_index is not None] == []
        fault_free = spans(faults=None)
        assert max(r.depth for r in faulty) == max(r.depth for r in fault_free)


class TestFaultySimulation:
    def test_deterministic_given_seed(self):
        a = run_simulation(faulty_config())
        b = run_simulation(faulty_config())
        assert a.metrics == b.metrics
        assert a.fault_stats == b.fault_stats
        assert sum(a.fault_stats.values()) > 0

    def test_different_fault_seed_differs(self):
        a = run_simulation(faulty_config(seed=11))
        b = run_simulation(faulty_config(seed=12))
        assert a.fault_stats != b.fault_stats or a.metrics != b.metrics

    def test_every_injected_fault_reaches_the_event_log(self, tmp_path):
        trace = tmp_path / "trace.json"
        result = run_simulation(
            faulty_config(
                observability=ObservabilityConfig(trace_path=str(trace))
            )
        )
        injected = sum(
            count
            for kind, count in result.fault_stats.items()
            if kind != "orphans_reaped"
        )
        assert injected > 0
        import json

        document = json.loads(trace.read_text())
        assert document["event_counts"].get("fault.injected", 0) == injected

    def test_cli_summarize_renders_the_fault_section(self, tmp_path, capsys):
        from repro.obs.cli import main

        trace = tmp_path / "trace.json"
        run_simulation(
            faulty_config(observability=ObservabilityConfig(trace_path=str(trace)))
        )
        assert main(["summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "fault injection (" in out
        assert "faults fired" in out

    def test_parallel_sweep_matches_serial_under_faults(self, monkeypatch):
        from repro.sim.experiment import run_configs

        configs = [faulty_config(seed=s) for s in (3, 4)]
        serial = run_configs(configs, workers=1)
        # A real pool even on a 1-CPU box: the process boundary is the
        # thing under test.
        monkeypatch.setattr("repro.sim.experiment._available_cpus", lambda: 2)
        parallel = run_configs(configs, workers=2)
        for s, p in zip(serial, parallel):
            assert p.metrics == s.metrics
            assert p.fault_stats == s.fault_stats
            assert sum(p.fault_stats.values()) > 0

    def test_fault_summary_aggregates(self, tmp_path):
        from repro.obs.analyze import fault_summary, load_trace

        trace = tmp_path / "trace.json"
        run_simulation(
            faulty_config(observability=ObservabilityConfig(trace_path=str(trace)))
        )
        summary = fault_summary(load_trace(str(trace)))
        assert not summary.empty
        assert summary.total_injected == sum(summary.injected.values())
        assert all(count > 0 for count in summary.injected.values())


# -- the recovery protocol, scripted ---------------------------------------


class TestRecoveryProtocol:
    def test_lost_ack_then_lost_release_orphans_a_lease(
        self, small_service, small_binding
    ):
        # First phase-3 ack drops, its compensating release drops too:
        # the lease is orphaned; the bounded retry then commits.
        injector = ScriptedInjector(
            {"ack": ["message_drop"], "release": ["message_drop"]}
        )
        registry, coordinator, proxies = build_ft_rig(small_service, injector)
        log = EventLog()
        with event_logging(log):
            result = coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert result.success
        assert len(coordinator.pending_leases()) == 1

        # The orphan sits on both books: capacity is conserved mid-fault.
        assert capacity_conservation(registry, proxies).ok

        with event_logging(log):
            assert coordinator.reap_orphans(force=True) == 1
        assert coordinator.pending_leases() == ()
        assert coordinator.leases_reaped == 1
        assert [e.kind for e in log if e.kind == "lease.expired"] == ["lease.expired"]

        coordinator.teardown("s1")
        assert_capacity_conserved(registry, proxies)
        registry.assert_quiescent()

    def test_unexpired_orphans_survive_a_lazy_reap(self, small_service, small_binding):
        injector = ScriptedInjector(
            {"ack": ["message_drop"], "release": ["message_drop"]}
        )
        _registry, coordinator, _proxies = build_ft_rig(small_service, injector)
        coordinator.establish("s1", "small", small_binding, BasicPlanner())
        lease = coordinator.pending_leases()[0]
        assert coordinator.reap_orphans(now=lease.expires_at - 1.0) == 0
        assert coordinator.reap_orphans(now=lease.expires_at) == 1

    def test_teardown_retires_the_sessions_orphans(self, small_service, small_binding):
        injector = ScriptedInjector(
            {"ack": ["message_drop"], "release": ["message_drop"]}
        )
        registry, coordinator, proxies = build_ft_rig(small_service, injector)
        coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert len(coordinator.pending_leases()) == 1
        coordinator.teardown("s1")
        assert coordinator.pending_leases() == ()
        # The late reaper finds nothing; nothing is double-released.
        assert coordinator.reap_orphans(force=True) == 0
        assert_capacity_conserved(registry, proxies)
        registry.assert_quiescent()

    def test_exhausted_reserve_retries_exclude_the_host(
        self, small_service, small_binding
    ):
        # Every reserve to the first host is lost; the replan excludes it,
        # which leaves the binding infeasible -> clean rejection, no leak.
        retries = FaultConfig(drop_rate=0.5).max_retries
        injector = ScriptedInjector({"reserve": ["message_drop"] * (retries + 1)})
        registry, coordinator, proxies = build_ft_rig(small_service, injector)
        log = EventLog()
        with event_logging(log):
            result = coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert not result.success
        kinds = [event.kind for event in log]
        assert kinds.count("segment.timeout") == retries + 1
        assert kinds.count("segment.retry") == retries
        assert "session.replanned" in kinds
        replanned = next(e for e in log if e.kind == "session.replanned")
        assert replanned.attributes["reason"] == "host_unreachable"
        assert replanned.attributes["excluded"] == ["H1"]
        assert_capacity_conserved(registry, proxies)
        registry.assert_quiescent()

    def test_unreachable_availability_synthesises_zero_and_rejects(
        self, small_service, small_binding
    ):
        retries = FaultConfig(drop_rate=0.5).max_retries
        # Both proxies' availability exchanges fail on every attempt,
        # and on the replan too: the planner sees zero everywhere.
        script = {"availability": ["message_drop"] * (retries + 1) * 4}
        injector = ScriptedInjector(script)
        registry, coordinator, proxies = build_ft_rig(small_service, injector)
        result = coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert not result.success
        assert_capacity_conserved(registry, proxies)
        registry.assert_quiescent()


# -- the conservation checker ----------------------------------------------


class TestPerHostSkeletonInvalidation:
    def test_host_exclusion_keeps_other_hosts_skeletons_warm(
        self, small_service, small_binding
    ):
        from repro.core.component import Binding

        retries = FaultConfig(drop_rate=0.5).max_retries
        injector = ScriptedInjector({"reserve": ["message_drop"] * (retries + 1)})
        registry, coordinator, proxies = build_ft_rig(small_service, injector)
        # A second placement of the same service that avoids H1 entirely.
        cpu3 = LocalResourceBroker("H3", "cpu", 100.0)
        registry.register(cpu3)
        proxy_h3 = QoSProxy("H3", registry)
        proxy_h3.own("cpu:H3")
        coordinator.proxies["H3"] = proxy_h3
        proxies["H3"] = proxy_h3
        other_binding = Binding({("c1", "cpu"): "cpu:H3", ("c2", "net"): "net:L1"})

        cache = coordinator.qrg_skeletons
        # Warm both placements (extra=(1.0,) matches the coordinator's
        # demand_scale discriminator).
        cache.skeleton_for(small_service, small_binding, extra=(1.0,))
        cache.skeleton_for(small_service, other_binding, extra=(1.0,))
        assert cache.stats() == {"hits": 0, "misses": 2, "size": 2}

        # Exhausted reserve retries exclude H1; the exclusion must drop
        # only the H1-bound skeleton.  The replan then rebuilds it (the
        # extra miss below is the proof the drop happened), while the
        # H3 placement's entry survives the whole fault.
        result = coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert not result.success
        assert cache.stats() == {"hits": 1, "misses": 3, "size": 2}

        # Warm-speedup regression: the unaffected placement still hits.
        cache.skeleton_for(small_service, other_binding, extra=(1.0,))
        assert cache.stats() == {"hits": 2, "misses": 3, "size": 2}

    def test_unknown_host_invalidates_nothing(self, small_service, small_binding):
        injector = ScriptedInjector({})
        _registry, coordinator, _proxies = build_ft_rig(small_service, injector)
        coordinator.qrg_skeletons.skeleton_for(small_service, small_binding)
        assert coordinator.invalidate_qrg_cache_for_host("H9") == 0
        assert len(coordinator.qrg_skeletons) == 1
        # A known host drops exactly its bound skeletons.
        assert coordinator.invalidate_qrg_cache_for_host("H1") == 1
        assert len(coordinator.qrg_skeletons) == 0


class TestCapacityConservation:
    def test_clean_rig_conserves(self, small_service, small_binding):
        registry, coordinator, proxies = build_ft_rig(
            small_service, FaultInjector.disabled()
        )
        coordinator.establish("s1", "small", small_binding, BasicPlanner())
        report = capacity_conservation(registry, proxies)
        assert report.ok
        assert report.broker_outstanding == report.proxy_outstanding > 0
        assert "capacity conserved" in report.describe()

    def test_path_reservations_expand_to_links(self, small_service):
        registry, _coordinator, proxies = build_ft_rig(
            small_service, FaultInjector.disabled()
        )
        proxies["H2"].apply_segment(PlanSegment("s1", "H2", {"net:L1": 30.0}))
        report = capacity_conservation(registry, proxies)
        assert report.ok
        # The composite path resource is accounted in link coordinates.
        assert report.broker_reserved["link:L1"] == pytest.approx(30.0)
        assert "net:L1" not in report.broker_reserved

    def test_broker_side_leak_detected(self, small_service):
        registry, _coordinator, proxies = build_ft_rig(
            small_service, FaultInjector.disabled()
        )
        registry.broker("cpu:H1").reserve(25.0, "ghost")  # no proxy knows
        report = capacity_conservation(registry, proxies)
        assert not report.ok
        assert ("cpu:H1", 25.0, 0.0) in report.mismatches
        with pytest.raises(CapacityConservationError, match="NOT conserved"):
            assert_capacity_conserved(registry, proxies)

    def test_accepts_an_iterable_of_proxies(self, small_service, small_binding):
        registry, coordinator, proxies = build_ft_rig(
            small_service, FaultInjector.disabled()
        )
        coordinator.establish("s1", "small", small_binding, BasicPlanner())
        assert capacity_conservation(registry, list(proxies.values())).ok
