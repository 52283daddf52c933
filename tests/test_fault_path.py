"""The fault boundary's records, pinned.

Handed a fault injector, the one
:class:`~repro.runtime.coordinator.ReservationCoordinator` runs its
establishment protocol through the seams a fault changes (delivery,
dispatch, re-planning).  These tests pin what that protocol records
under every fault kind -- the causal event stream, the span records,
the run's results and its fault statistics -- as sha256 digests, for
the simulation (whose sessions wait out every backoff and message
delay on the DES clock), a monitored run that renegotiates under faults,
and a synchronous schedule over §3's distributed placement
(ComponentHost proxies pricing their own fragments).  A change that
alters any record, a retry's timing or a decision fails here.
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

#: sha256 digests of each run's records (see ``_digests``).  The
#: ``distributed`` digests were computed while the fault boundary still
#: kept its own copy of the three phases; their ``events`` and ``spans``
#: were re-derived from that run's records with the event kinds and span
#: names phases 2 and 3 no longer record removed and seq and index
#: renumbered.  The ``sync`` and
#: ``monitored`` digests were computed when every simulated session began
#: to run on the DES clock, so a retry's backoff and a message's delay
#: became simulated time; before, these runs took the synchronous driver
#: (after which ``sync`` is named), which let every delay pass at once.
PINNED = {
    "sync": {
        "counters": "769fffdd25f2bd4ffd794d40dd58b9c715ad4fea9125139d2c7d7e84569801db",
        "events": "60bfd86410a6149d4f42c628c4ce6b3d1bf08bcf030e12c8336580ecac327751",
        "fault_stats": "c955506da15929bb205ed5cd45b16957c8d2e655b296f0512851aacadbdfc199",
        "results": "7e9bb7b11369e466cac31ccfe7d96f2cc9d04801ed9a6011384ab3c181169c29",
        "spans": "a0513075963926e8f1bac30fddae3f7cef5515dced24f480c11dbb5a6b481957",
    },
    "monitored": {
        "counters": "4c621876ef902959f3c4c98f5cf5895250cbae379906033b53a4e4ec6b5c2eba",
        "events": "d342b8f3656752cb4137fd7d2b089480812406d47160f1d37fb28e1f8a01862f",
        "fault_stats": "6c4c0bd28ac83317284683c9b649ad8fd632dd0044d1390112aa5bcf83e34f12",
        "results": "bcc15b8e2df792591c1675adae88038d44da50539fc9bd4d7e4eba1942e649b6",
        "spans": "0f41883cf59e0f214dd2c5d4f5e11a7e6c1cd1c353607ae47bf6dd6f0dae3255",
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


def test_monitored_run_under_faults_records_what_it_recorded_before():
    digests = simulation_digests(
        staleness=2.0, monitoring=MonitorConfig(adapt=True)
    )
    assert digests == PINNED["monitored"]


def test_distributed_schedule_records_what_it_recorded_before(
    small_service, small_binding
):
    assert distributed_digests(small_service, small_binding) == PINNED["distributed"]
