"""The reservation service daemon: API, shutdown, identity.

Covers the PR's acceptance properties end to end over real sockets:
concurrent establish/teardown races stay consistent, shutdown drains
in-flight admissions while refusing new ones, and the daemon's admission
decisions are byte-identical to driving the coordinator in-process with
the same seeded workload.
"""

import asyncio
import json

import pytest

from repro.des.rng import RandomStreams
from repro.service import (
    DaemonConfig,
    ReservationDaemon,
    ReservationService,
    ServiceClient,
    ServiceClientError,
)
from repro.service.loadgen import LoadGenConfig, arrival_payload, run_load
from repro.sim.workload import WorkloadGenerator, WorkloadSpec

#: (service, domain) pairs that all clear the §5.1 exclusion rule.
VALID_PAIRS = [
    ("S2", "D1"), ("S3", "D2"), ("S4", "D3"), ("S1", "D4"),
    ("S1", "D5"), ("S2", "D6"), ("S1", "D7"), ("S2", "D8"),
]


def pair_for(index: int):
    return VALID_PAIRS[index % len(VALID_PAIRS)]


async def start_daemon(**overrides) -> ReservationDaemon:
    overrides.setdefault("port", 0)
    daemon = ReservationDaemon(DaemonConfig(**overrides))
    await daemon.start()
    return daemon


# ---------------------------------------------------------------------------
# admission API basics


def test_establish_teardown_roundtrip():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            outcome = await client.establish(
                service="S2", domain="D1", session_id="s-1", duration=30.0
            )
            assert outcome["success"] is True
            assert outcome["label"] in {"Qh", "Ql", "Qm"}
            assert outcome["level"] in {1, 2, 3}
            single = await client.query(session_id="s-1")
            assert single["service"] == "S2" and single["domain"] == "D1"
            released = await client.teardown("s-1")
            assert released["released"] > 0
            state = await client.query()
            assert state["active_sessions"] == 0
            assert state["counters"]["established"] == 1
            assert state["counters"]["torn_down"] == 1
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_api_error_statuses():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            await client.establish(service="S2", domain="D1", session_id="dup")
            with pytest.raises(ServiceClientError) as duplicate:
                await client.establish(service="S2", domain="D1", session_id="dup")
            assert duplicate.value.status == 409
            with pytest.raises(ServiceClientError) as excluded:
                # D1's excluded service is S1: server and proxy co-locate.
                await client.establish(service="S1", domain="D1")
            assert excluded.value.status == 400
            with pytest.raises(ServiceClientError) as unknown:
                await client.teardown("never-established")
            assert unknown.value.status == 404
            with pytest.raises(ServiceClientError) as missing:
                await client.query(session_id="never-established")
            assert missing.value.status == 404
            with pytest.raises(ServiceClientError) as empty_batch:
                await client.establish_batch([])
            assert empty_batch.value.status == 400
            with pytest.raises(ServiceClientError) as no_route:
                await client._call("GET", "/v1/nope")
            assert no_route.value.status == 405
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_metrics_exposition_is_scrapable():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            await client.establish(service="S2", domain="D1", session_id="m-1")
            text = await client.metrics()
            assert "repro_broker_grants_total" in text
            assert "repro_coordinator_establish_seconds_count" in text
            for line in text.splitlines():
                if line.startswith("#") or not line:
                    continue
                value = line.rsplit(" ", 1)[1]
                # Exposition values parse as Prometheus floats, never
                # Python's lowercase inf/nan spellings.
                assert value not in {"inf", "-inf", "nan"}
                float(value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# concurrency


def test_concurrent_establish_teardown_races_stay_consistent():
    async def scenario():
        daemon = await start_daemon(seed=5)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            admitted = 0
            rejected = 0

            async def one(index: int):
                nonlocal admitted, rejected
                service, domain = pair_for(index)
                outcome = await client.establish(
                    service=service, domain=domain, session_id=f"race-{index}"
                )
                if outcome["success"]:
                    admitted += 1
                    await client.teardown(f"race-{index}")
                else:
                    rejected += 1

            await asyncio.gather(*(one(i) for i in range(32)))
            state = await client.query()
            assert admitted + rejected == 32
            assert state["active_sessions"] == 0
            assert state["counters"]["established"] == admitted
            assert state["counters"]["rejected"] == rejected
            assert state["counters"]["torn_down"] == admitted
            # Everything released: no broker retains load from the race
            # (beyond float dust from reserve/release accumulation).
            assert all(u < 1e-9 for u in state["utilization"].values())
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_duplicate_session_race_admits_exactly_once():
    async def scenario():
        daemon = await start_daemon(seed=5)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:

            async def claim():
                try:
                    outcome = await client.establish(
                        service="S2", domain="D1", session_id="contested"
                    )
                    return outcome["success"]
                except ServiceClientError as exc:
                    assert exc.status == 409
                    return False

            outcomes = await asyncio.gather(*(claim() for _ in range(8)))
            assert sum(outcomes) == 1
            state = await client.query()
            assert state["active_sessions"] == 1
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# graceful shutdown


def test_shutdown_drains_inflight_and_refuses_new_admissions():
    async def scenario():
        daemon = await start_daemon(seed=9)
        client = ServiceClient("127.0.0.1", daemon.port)
        # Hold the admission lock so an in-flight request is provably
        # mid-admission when shutdown begins.
        await daemon._lock.acquire()
        inflight = asyncio.create_task(
            client.establish(service="S2", domain="D1", session_id="drain-1")
        )
        await asyncio.sleep(0.1)
        shutdown = asyncio.create_task(daemon.shutdown(drain=True))
        await asyncio.sleep(0.1)
        assert not shutdown.done()  # waiting on the drain barrier
        # New admissions are refused the moment draining starts...
        with pytest.raises(ServiceClientError) as refused:
            await client.establish(service="S3", domain="D2", session_id="late")
        assert refused.value.status == 503
        # ...but the in-flight one completes once the lock frees.
        daemon._lock.release()
        outcome = await inflight
        assert outcome["success"] is True
        await shutdown
        # The daemon is gone: the socket no longer accepts connections.
        with pytest.raises((ConnectionError, OSError)):
            await client.healthz()
        await client.aclose()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# byte-identity with the in-process coordinator


def _seeded_operations(count: int = 24):
    """(op, payload) admission script from a seeded workload."""
    spec = WorkloadSpec(rate_per_60tu=240.0, horizon=60.0)
    generator = WorkloadGenerator(spec, RandomStreams(13))
    operations = []
    for index, arrival in enumerate(generator.generate()):
        if len(operations) >= count:
            break
        operations.append(("establish", arrival_payload(arrival)))
        if index % 3 == 2:
            operations.append(
                ("teardown", {"session_id": arrival.session_id})
            )
    return operations


def test_daemon_decisions_byte_identical_to_in_process():
    config = dict(seed=23, algorithm="basic")
    operations = _seeded_operations()

    async def through_api():
        daemon = await start_daemon(**config)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            bodies = []
            for op, payload in operations:
                response = await client.request("POST", f"/v1/{op}", payload)
                assert response.status == 200
                bodies.append(response.body)
            return bodies
        finally:
            await client.aclose()
            await daemon.shutdown()

    api_bodies = asyncio.run(through_api())

    service = ReservationService(DaemonConfig(port=0, **config))
    service.start()
    try:
        local_bodies = []
        for op, payload in operations:
            document = getattr(service, op)(payload)
            local_bodies.append(
                json.dumps(document, sort_keys=True).encode("utf-8")
            )
    finally:
        service.close()

    assert api_bodies == local_bodies


# ---------------------------------------------------------------------------
# the load generator


def test_load_generator_open_loop_run():
    async def scenario():
        daemon = await start_daemon(seed=11)
        try:
            config = LoadGenConfig(
                workload=WorkloadSpec(rate_per_60tu=600.0, horizon=5.0),
                seed=7,
                time_scale=0.002,
                max_hold_seconds=0.05,
            )
            report = await run_load("127.0.0.1", daemon.port, config)
            assert report.errors == 0
            assert report.sessions == report.admitted + report.rejected
            assert report.torn_down == report.admitted
            assert report.peak_inflight >= 2
            document = report.to_dict()
            assert document["throughput_per_wall_second"] > 0
            assert (
                document["admission_latency_p50_ms"]
                <= document["admission_latency_p99_ms"]
            )
            client = ServiceClient("127.0.0.1", daemon.port)
            state = await client.query()
            await client.aclose()
            assert state["active_sessions"] == 0
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())
