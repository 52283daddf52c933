"""The always-on observability plane: same records, fewer instructions.

A started :class:`~repro.service.ReservationService` keeps four records
of every admission -- the causal event log, the flight recorder's rings,
the metrics registry and the tracer.  These tests pin *what* they hold
to digests recorded before the plane's hot path was made cheaper, and
pin *how much work* recording takes as deterministic call counts, so a
change that alters a record or brings back a per-event lookup fails
here rather than in a benchmark.
"""

import hashlib
import heapq
import itertools
import json

import pytest

from repro.brokers.link import LinkBandwidthBroker
from repro.brokers.local import LocalResourceBroker
from repro.brokers.path import PathBroker
from repro.core.errors import AdmissionError
from repro.des.rng import RandomStreams
from repro.obs import (
    EventLog,
    Tracer,
    active_event_log,
    active_registry,
    active_tracer,
    event_logging,
    tracing,
)
from repro.obs import metrics as _metrics
from repro.obs.context import TraceContext, trace_context
from repro.obs.metrics import MetricsRegistry
from repro.service import DaemonConfig, ReservationService
from repro.service.loadgen import arrival_payload
from repro.sim.workload import WorkloadGenerator, WorkloadSpec
from tests.test_record_once import admit_and_release
from tests.test_service_daemon import VALID_PAIRS

SCRIPT_SEED = 7
SCRIPT_ARRIVALS = 600

#: sha256 digests of the seeded script's records, computed on the tree
#: before the plane's hot path changed (see ``plane_digests``).  The
#: ``query`` digest was taken on the tree before the WebSocket event
#: plane was deleted, with the plane's two ``event_log`` keys
#: (``subscribers``, ``fanned_out``) removed from that tree's document.
#: ``events``, ``spans``, ``flight_seqs``, ``query`` and
#: ``PINNED_EVENTS`` were then re-derived from the records of the tree
#: before phases 2 and 3 stopped recording the ``qrg_build`` / ``plan`` /
#: ``dijkstra`` / ``plan_assemble`` spans and the
#: ``proxy.segment_applied`` / ``proxy.segment_rejected`` /
#: ``lease.reserved`` events: those records removed (the span ring read
#: unbounded, then its newest 4,096 rows kept), seq and index renumbered.
#: When the daemon's two-phase leases moved into the coordinator's one
#: lease table, ``events`` was re-derived from the events of the tree
#: before, with the script's two lease ids renumbered from that shared
#: sequence (``twopc-1@shard-solo#1`` -> ``#328``, ``twopc-2...#2`` ->
#: ``#329``), and ``registry`` from that tree's registry read after a
#: ``/metrics`` scrape (the scrape used to create the ``daemon.sessions``
#: and ``daemon.lease_operations`` counters).  When the unsharded daemon
#: mode was deleted, ``events``, ``registry``, ``query`` and
#: ``metrics_series`` were re-derived from the tree before, run with an
#: explicit ``shard_index=0, shard_count=1``: the default daemon is now
#: that shard.  They differ from that tree's default daemon only in the
#: lease events' ``shard-solo`` -> ``shard-0`` label, the query's
#: ``shard`` section and the ``daemon.shard_index`` gauge.
PINNED = {
    "events": "46e826cb7c1817b49c3db8c82cb64877bc63c109010f728dc5c38c1dba81a1c0",
    "spans": "e3433cc4fc0431b90937f9f33a9603b6a1273326f83522cc40af18a093cd1250",
    "flight_seqs": "cc85bc08132fb239c7890364dbaf2521377cbf2d6e48e58657bba57efb0b99d6",
    "registry": "acfd08254092d9934bd3533814ccdb07c60a227a220a9432ad11359fafdabf2d",
    "query": "25da4fa4701d9fccd4d519adb9ec9fad6bf28e04b083565e15c974cc282889fb",
    "metrics_series": "928ebad3179347a16e2f1608ebf77b121669df5415813906bc9a5a2bc2a85db7",
}
#: Responses per route and status: the script's decisions are pinned
#: too, so a digest mismatch is never a changed decision in disguise.
PINNED_STATUSES = {
    "/v1/establish 200": 600,
    "/v1/establish 409": 1,
    "/v1/teardown 200": 246,
    "/v1/renegotiate 200": 1,
    "/v1/establish_batch 200": 1,
    "/v1/reserve 200": 2,
    "/v1/commit 200": 1,
    "/v1/abort 200": 1,
}
PINNED_EVENTS = 7690


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fixed_context(index: int) -> TraceContext:
    return TraceContext(
        trace_id=f"{index + 1:032x}",
        span_id=f"{index + 1:016x}",
        request_id=f"req-{index}",
    )


def script_arrivals(count: int = SCRIPT_ARRIVALS):
    spec = WorkloadSpec(rate_per_60tu=240.0, horizon=250.0)
    generator = WorkloadGenerator(spec, RandomStreams(13))
    arrivals = list(itertools.islice(generator.generate(), count))
    assert len(arrivals) == count
    return arrivals


def run_script(service: ReservationService) -> dict:
    """Drive the seeded script; returns status counts per route.

    Every request runs under its own fixed trace context.  Sessions are
    torn down once the arrival clock passes their end (a window of
    live sessions), and one of each rarer operation rides along: a
    duplicate establish (409), a renegotiation, a batch, and a
    reserve/commit plus a reserve/abort.
    """
    requests = itertools.count()
    statuses = {}

    def call(path: str, payload: dict):
        with trace_context(_fixed_context(next(requests))):
            status, document = service.handle("POST", path, {}, payload)
        key = f"{path} {status}"
        statuses[key] = statuses.get(key, 0) + 1
        return status, document

    live = []  # (end, session_id) heap
    payloads = {}
    for index, arrival in enumerate(script_arrivals()):
        while live and live[0][0] <= arrival.arrival_time:
            call("/v1/teardown", {"session_id": heapq.heappop(live)[1]})
        payloads[arrival.session_id] = arrival_payload(arrival)
        status, document = call("/v1/establish", payloads[arrival.session_id])
        if status == 200 and document["success"]:
            heapq.heappush(
                live, (arrival.arrival_time + arrival.duration, arrival.session_id)
            )
        if index == 100 and live:
            duplicate, _ = call("/v1/establish", payloads[live[0][1]])
            assert duplicate == 409
        if index == 200 and live:
            call("/v1/renegotiate", {"session_id": live[0][1]})
        if index == 300:
            batch = [
                {"service": service_name, "domain": domain, "session_id": f"batch-{n}"}
                for n, (service_name, domain) in enumerate(
                    [("S2", "D1"), ("S3", "D2"), ("S1", "D4")]
                )
            ]
            call("/v1/establish_batch", {"arrivals": batch})
        if index == 400:
            _, held = call(
                "/v1/reserve", {"session_id": "twopc-1", "demands": {"cpu:H1": 1.0}}
            )
            call("/v1/commit", {"lease_id": held["lease_id"]})
            _, held = call(
                "/v1/reserve", {"session_id": "twopc-2", "demands": {"cpu:H2": 1.0}}
            )
            call("/v1/abort", {"lease_id": held["lease_id"]})
    return statuses


def metrics_series(service: ReservationService):
    """Every sample name + label set on ``/metrics`` (values dropped)."""
    return sorted(
        line.rpartition(" ")[0]
        for line in service.metrics_exposition().splitlines()
        if line and not line.startswith("#")
    )


def plane_digests(service: ReservationService) -> dict:
    """sha256 of each record the plane keeps, minus wall-clock readings.

    The registry is read after a ``/metrics`` scrape, which sets the
    point-in-time gauges.
    """
    series = metrics_series(service)
    snapshot = service.registry.snapshot()
    query = service.query()
    query.pop("uptime_seconds")
    return {
        "events": _digest(
            [
                {key: value for key, value in payload.items() if key != "wall"}
                for payload in service.log.to_dicts()
            ]
        ),
        "spans": _digest(
            [
                (r.name, r.depth, r.index, r.parent_index, r.attributes,
                 r.trace_id, r.request_id)
                for r in service.flight.tracer.records
            ]
        ),
        "flight_seqs": _digest([event.seq for event in service.flight.log]),
        "registry": _digest(
            {
                "counters": snapshot["counters"],
                "gauges": snapshot["gauges"],
                "histograms": {
                    key: histogram["count"]
                    for key, histogram in snapshot["histograms"].items()
                },
            }
        ),
        "query": _digest(query),
        "metrics_series": _digest(series),
    }


def test_the_plane_records_what_it_recorded_before():
    service = ReservationService(DaemonConfig(seed=SCRIPT_SEED))
    service.start()
    try:
        statuses = run_script(service)
        digests = plane_digests(service)
        counters = service.query()["counters"]
    finally:
        service.close()
    assert statuses == PINNED_STATUSES
    assert counters == {"established": 455, "rejected": 149, "torn_down": 246}
    assert len(service.log) == service.flight.events_seen == PINNED_EVENTS
    assert digests == PINNED


# ---------------------------------------------------------------------------
# resolved-once instruments stay correct


def test_a_broker_writes_only_to_the_registry_installed_at_the_time():
    broker = LocalResourceBroker("H1", "cpu", 100.0)
    first, second = MetricsRegistry(), MetricsRegistry()
    with _metrics.metering(first):
        held = broker.reserve(10.0, "s1")
    unmetered = broker.reserve(10.0, "s2")  # no registry: nothing written
    broker.release(unmetered)
    with _metrics.metering(second):
        broker.release(held)
        refused = pytest.raises(AdmissionError, broker.reserve, 1000.0, "s3")
    assert refused.value.resource_id == "cpu:H1"
    labels = {"resource": "cpu:H1", "host": "H1", "kind": "cpu"}
    assert first.counter_value("broker.grants", **labels) == 1
    assert first.counter_total("broker.releases") == 0
    assert first.counter_total("broker.rejections") == 0
    assert first.snapshot()["gauges"] == {
        "broker.utilization{host=H1,kind=cpu,resource=cpu:H1}": {"value": 0.1}
    }
    assert second.counter_total("broker.grants") == 0
    assert second.counter_value("broker.releases", **labels) == 1
    assert second.counter_value("broker.rejections", **labels) == 1
    assert second.snapshot()["gauges"] == {
        "broker.utilization{host=H1,kind=cpu,resource=cpu:H1}": {"value": 0.0}
    }


def test_nothing_is_written_while_no_registry_is_installed():
    links = [
        LinkBandwidthBroker("L1", "A", "B", 50.0),
        LinkBandwidthBroker("L2", "B", "C", 40.0),
    ]
    path = PathBroker("net:A-C", links)
    held = path.reserve(5.0, "s1")
    path.release(held)
    with pytest.raises(AdmissionError):
        path.reserve(45.0, "s2")
    registry = MetricsRegistry()
    with _metrics.metering(registry):
        pass
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    with _metrics.metering(registry):
        path.release(path.reserve(5.0, "s3"))
    # A path keeps its hops label; its links are brokers of their own.
    assert sorted(registry.snapshot()["counters"]) == [
        "broker.grants{hops=2,resource=net:A-C}",
        "broker.grants{resource=link:L1}",
        "broker.grants{resource=link:L2}",
        "broker.releases{hops=2,resource=net:A-C}",
        "broker.releases{resource=link:L1}",
        "broker.releases{resource=link:L2}",
    ]
    assert registry.counter_value("broker.grants", resource="net:A-C", hops="2") == 1


#: A fresh daemon's ``/metrics`` series (count, digest): before anything
#: is admitted, after the first establish, after its teardown.  Read off
#: the tree before instruments were resolved once; a cache that creates
#: a series ahead of its first write changes them.  Re-derived, like
#: ``PINNED``, from the tree before the unsharded mode was deleted, run
#: as an explicit shard 0 of 1: each reading gains the
#: ``daemon.shard_index`` gauge.
FRESH_SERIES = [
    (11, "8600b19e8d8246897300b7be47dfa2064b238518032341fb74162028d34b0b24"),
    (44, "ede9d9eff60420e452b434aebd05c4587788cf7e84705936459de9ddc11b6b83"),
    (54, "dd1f87359da838db2528701b0487abdd9b95953a7737faa5410ac96a02438c77"),
]


def test_a_fresh_daemon_exposes_a_series_only_once_it_is_written():
    service = ReservationService(DaemonConfig(seed=SCRIPT_SEED))
    service.start()
    try:
        seen = [metrics_series(service)]
        first = {"service": "S2", "domain": "D1", "session_id": "first"}
        assert service.handle("POST", "/v1/establish", {}, first)[0] == 200
        seen.append(metrics_series(service))
        assert service.handle("POST", "/v1/teardown", {}, first)[0] == 200
        seen.append(metrics_series(service))
    finally:
        service.close()
    assert [(len(series), _digest(series)) for series in seen] == FRESH_SERIES
    assert 'repro_broker_grants_total{hops="1",resource="net:D1-H1"}' in seen[1]


def test_services_run_one_after_another_count_only_their_own_admissions():
    def admissions(service):
        return service.registry.counter_value(
            "coordinator.establish", outcome="established"
        )

    first = ReservationService(DaemonConfig(seed=3))
    first.start()
    try:
        admit_and_release(first, 3, "one")
    finally:
        first.close()
    before = first.registry.snapshot()
    second = ReservationService(DaemonConfig(seed=3))
    second.start()
    try:
        admit_and_release(second, 2, "two")
    finally:
        second.close()
    assert admissions(first) == 3
    assert admissions(second) == 2
    assert first.registry.snapshot() == before
    assert second.registry.counter_total("broker.grants") * 3 == (
        first.registry.counter_total("broker.grants") * 2
    )


def test_a_daemon_puts_back_the_handles_installed_before_it():
    """Start then close restores every handle installed before the start,
    the registry as well as the tracer; a start over another event log
    is refused and installs nothing."""
    outer, tracer = MetricsRegistry(), Tracer()
    service = ReservationService(DaemonConfig(seed=3))
    with _metrics.metering(outer), tracing(tracer):
        service.start()
        assert active_registry() is service.registry
        assert active_tracer() is service.flight.tracer
        assert active_event_log() is service.log
        service.close()
        assert (active_registry(), active_tracer(), active_event_log()) == (
            outer, tracer, None
        )
        other = EventLog()
        with event_logging(other):
            with pytest.raises(RuntimeError, match="already installed"):
                service.start()
            assert (active_registry(), active_tracer(), active_event_log()) == (
                outer, tracer, other
            )
    assert (active_registry(), active_tracer(), active_event_log()) == (None,) * 3


def _event_counts_agree(service: ReservationService) -> int:
    state = service.query()["event_log"]
    recorded = len(service.log)
    assert state["recorded"] == recorded
    assert service.flight.events_seen == recorded
    return recorded


def test_fanned_out_and_events_seen_count_every_event_watched_or_not():
    service = ReservationService(DaemonConfig(seed=3))
    service.start()
    try:
        admit_and_release(service, 4, "dark")
        joined_at = _event_counts_agree(service)
        received = []
        subscriber = service.log.subscribe(
            lambda event: received.append(event.to_dict())
        )
        admit_and_release(service, 4, "watched")
        _event_counts_agree(service)
        # A subscriber joining mid-stream receives every later event.
        assert received == service.log.to_dicts()[joined_at:]
        service.log.unsubscribe(subscriber)
        admit_and_release(service, 4, "dark-again")
        recorded = _event_counts_agree(service)
    finally:
        service.close()
    # Closing and restarting keeps both counts, and they keep counting.
    assert service.flight.events_seen == recorded
    service.start()
    try:
        assert _event_counts_agree(service) == recorded
        admit_and_release(service, 2, "restarted")
        assert _event_counts_agree(service) > recorded
    finally:
        service.close()


# ---------------------------------------------------------------------------
# the cost as deterministic counts


def _counting(monkeypatch, owner, name: str) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _python_level(callback) -> bool:
    return hasattr(getattr(callback, "__func__", callback), "__code__")


def test_a_warmed_admission_resolves_no_series_and_runs_no_python_subscriber(
    monkeypatch,
):
    series_keys = _counting(monkeypatch, MetricsRegistry, "_series_key")
    utilizations = _counting(monkeypatch, PathBroker, "utilization")
    service = ReservationService(DaemonConfig(seed=SCRIPT_SEED))
    service.start()
    try:
        # Twice: the first round misses the skeleton cache, the second hits.
        admit_and_release(service, 2 * len(VALID_PAIRS), "warm")
        del series_keys[:], utilizations[:]
        emitted = service.log.next_seq
        admit_and_release(service, len(VALID_PAIRS), "counted")
        path_bookings = sum(
            1
            for event in itertools.islice(service.log, emitted, None)
            if event.kind in ("broker.grant", "broker.release")
            and event.resource.startswith("net:")
        )
        assert path_bookings > 0
        # Every series the admissions write was resolved while warming.
        assert len(series_keys) == 0
        # Nothing but C appends hears an event.
        assert not any(_python_level(cb) for cb in service.log._subscribers)
        # A path's utilization is computed once per grant and release.
        assert len(utilizations) == path_bookings
    finally:
        service.close()
