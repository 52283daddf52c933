"""The fault boundary's records, pinned.

Handed a fault injector, the one
:class:`~repro.runtime.coordinator.ReservationCoordinator` runs its
establishment protocol through the seams a fault changes (delivery,
dispatch, re-planning).  These tests pin what that protocol records
under every fault kind -- the causal event stream, the span records,
the run's results and its fault statistics -- as sha256 digests, for
both simulation drivers (no latency: the synchronous driver; latency:
the DES driver), a monitored run that renegotiates under faults, and a
synchronous schedule over §3's distributed placement (ComponentHost
proxies pricing their own fragments).  A change that alters any
record, a retry's timing or a decision fails here.
"""

import hashlib
import json

from repro.core import BasicPlanner
from repro.faults import FAULT_SEED_INDEX, FaultConfig, FaultInjector, FaultPlan
from repro.obs import EventLog, ObservabilityConfig, event_logging
from repro.obs.metrics import MetricsRegistry, metering
from repro.obs.monitor import MonitorConfig
from repro.obs.trace import Tracer, tracing
from repro.sim import SimulationConfig, WorkloadSpec, run_simulation
from repro.sim.experiment import derive_run_seed

from tests.test_fault_properties import FakeClock, build_ft_distributed_rig

#: Every fault kind at once: message drops, delays and stale reports,
#: plus crash and partition windows.
EVERY_FAULT = FaultConfig(
    drop_rate=0.1,
    delay_rate=0.2,
    crash_rate=0.3,
    partition_rate=0.3,
    stale_rate=0.1,
)

#: sha256 digests of each run's records (see ``_digests``), computed
#: while the fault boundary still kept its own copy of the three phases.
#: ``events`` and ``spans`` (and the monitored run's ``results``, whose
#: monitor stats count the events seen) were re-derived from those runs'
#: records with the event kinds and span names phases 2 and 3 no longer
#: record removed and seq and index renumbered.
PINNED = {
    "sync": {
        "counters": "4f08dccae0163393e1f9de067ab1f97f1ad04a3c14355d454df85ec06594a3b4",
        "events": "e9e82c0ad60560b9d2726db2441f3b3123af16f3fa3069c721b82367588ee817",
        "fault_stats": "d0754e927776cc2c815ce9b80970716f2cd124dc2d625bfb1c59f2edbff34426",
        "results": "d83cd812458b592c981a34934bba565a83208e3d1c6d3f24498a299deae2ba10",
        "spans": "6ab9bf9ce0fe704ded2ec6830d8c6e096f3812fbb21380720c8cb6ec5334d175",
    },
    "des": {
        "counters": "bd344f306f01ee3babfa91d30740b0da3504ef2f6426408151462d477880e3fe",
        "events": "1ea0c2311129c2fec4ef7537fcf95196967da23de294770bf66d90dadd3df43e",
        "fault_stats": "fc600c4331fa9a20c085dc9d6cafc8eb372a404f09391405fcb5013df1242dce",
        "results": "8d6694c75fc56a9fadef74f22386f162bcf03157d75c359779ac091b7e01acf9",
        "spans": "f2e4afee3b5210d9bd7f56e24360bd42ed3ae3172c6c3fa002f2a961f809a3d6",
    },
    "monitored": {
        "counters": "369cf7ed4ea49d10d01eeaf9567864574825ffdaf6523060e8c60ea086bd210b",
        "events": "6a9c6fe5ce906703718a48adee8bc573fc83ba93dd63d96169562ce9b6513bdc",
        "fault_stats": "8dd72ed0c1b482a94ec6f2c4d7715b6599c83d421f4b860487b14b5357c375a5",
        "results": "52635c122f8089033fd3e89ebbc5a55de550b0610b3ad2edac8c7c17926c2cbb",
        "spans": "ea5f6813f7ea84946be6faa3de766c1d0976b1c5403291801284af3a3bf897fd",
    },
    "distributed": {
        "counters": "1f2db8b07d7e01b2be21faf8064fd865fe11a05b4e9740b2ed7bf6853d6f1660",
        "events": "2facc3a6e384147dee517246fe822bf0ac242fa3fa79a58c2d100fa827450245",
        "fault_stats": "1562242035724e19ee571b7671c75c93227de289d266b59e7dd435c81fb456cd",
        "results": "5aeacf30a0a8aff7d8dbf936012bb51c43efbf3144f45763aa956d54e674de6c",
        "spans": "f847d3df3512c0fc06f26934120f5e4fe36c3364560b6d6db2a465a0bb472341",
    },
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _spans(records):
    return [
        (r.name, r.depth, r.index, r.parent_index, r.attributes) for r in records
    ]


def _events(log):
    return [
        {key: value for key, value in payload.items() if key != "wall"}
        for payload in log.to_dicts()
    ]


def _digests(*, events, spans, results, fault_stats, counters) -> dict:
    return {
        "events": _digest(events),
        "spans": _digest(spans),
        "results": _digest(results),
        "fault_stats": _digest(fault_stats),
        "counters": _digest(counters),
    }


def simulation_digests(**changes) -> dict:
    config = SimulationConfig(
        seed=11,
        workload=WorkloadSpec(rate_per_60tu=120.0, horizon=200.0),
        faults=EVERY_FAULT,
        observability=ObservabilityConfig(),
        **changes,
    )
    result = run_simulation(config)
    observation = result.observation
    return _digests(
        events=_events(observation.event_log),
        spans=_spans(observation.tracer.records),
        results=[result.metrics, result.paths._counts, result.monitor_stats],
        fault_stats=result.fault_stats,
        counters=observation.registry.snapshot()["counters"],
    )


def distributed_digests(small_service, small_binding) -> dict:
    """Two 30-session schedules on a fake clock, six sessions live at most.

    Without re-plans a lost reserve ends in ``host_unreachable`` and a
    stale report in ``admission_failed``; with one, the failed host is
    excluded and the session planned again.
    """
    tracer, log, registry = Tracer(), EventLog(), MetricsRegistry()
    results, fault_stats = [], []
    with tracing(tracer), event_logging(log), metering(registry):
        for max_replans in (0, 1):
            clock = FakeClock()
            config = FaultConfig(
                drop_rate=0.45,
                stale_rate=0.5,
                crash_rate=0.5,
                partition_rate=0.5,
                max_retries=1,
                max_replans=max_replans,
            )
            plan = FaultPlan.generate(
                config,
                seed=derive_run_seed(3, FAULT_SEED_INDEX),
                horizon=240.0,
                hosts=("H1", "H2"),
            )
            injector = FaultInjector(plan, clock=clock)
            _registry, coordinator, _proxies = build_ft_distributed_rig(
                small_service, injector, clock
            )
            live = []
            for n in range(30):
                clock.now = 8.0 * n
                result = coordinator.establish(
                    f"d{max_replans}.{n}", "small", small_binding, BasicPlanner()
                )
                results.append(
                    (result.session_id, result.success, result.reason,
                     result.failed_resource, result.qos_level)
                )
                if result.success:
                    live.append(result.session_id)
                if len(live) >= 6:
                    coordinator.teardown(live.pop(0))
                coordinator.reap_orphans()
            for session_id in live:
                coordinator.teardown(session_id)
            coordinator.reap_orphans(force=True)
            fault_stats.append([injector.injected, coordinator.leases_reaped])
    return _digests(
        events=_events(log),
        spans=_spans(tracer.records),
        results=results,
        fault_stats=fault_stats,
        counters=registry.snapshot()["counters"],
    )


def test_synchronous_driver_records_what_it_recorded_before():
    assert simulation_digests() == PINNED["sync"]


def test_des_driver_records_what_it_recorded_before():
    assert simulation_digests(latency=0.4) == PINNED["des"]


def test_monitored_run_under_faults_records_what_it_recorded_before():
    digests = simulation_digests(
        staleness=2.0, monitoring=MonitorConfig(adapt=True)
    )
    assert digests == PINNED["monitored"]


def test_distributed_schedule_records_what_it_recorded_before(
    small_service, small_binding
):
    assert distributed_digests(small_service, small_binding) == PINNED["distributed"]
