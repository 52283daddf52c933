"""End-to-end tracing across the service boundary.

A client-bound trace context must ride the ``traceparent`` header into
the daemon, stamp every daemon-side span and event for that admission,
and come back out through the flight recorder so ``repro-obs stitch``
can join the two sides.  Malformed propagation must degrade to a fresh
root trace, never to an error; concurrent admissions must never bleed
into each other's traces.
"""

import asyncio
import json
import signal

import pytest

from repro.obs import analyze
from repro.obs import context as obs_context
from repro.obs import trace as trace_mod
from repro.runtime.coordinator import PHASE2_SPAN, PHASE3_SPAN
from repro.service import DaemonConfig, ReservationDaemon, ServiceClient
from repro.service.cli import build_config
from repro.service.loadgen import LoadGenConfig, run_load
from repro.sim.workload import WorkloadSpec


async def start_daemon(**overrides) -> ReservationDaemon:
    overrides.setdefault("port", 0)
    daemon = ReservationDaemon(DaemonConfig(**overrides))
    await daemon.start()
    return daemon


# ---------------------------------------------------------------------------
# header propagation


def test_traceparent_propagates_to_daemon_events():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            context = obs_context.new_trace_context(request_id="req-prop")
            with obs_context.trace_context(context):
                outcome = await client.establish(
                    service="S2", domain="D1", session_id="s-prop"
                )
            assert outcome["success"] is True
            # Every daemon-side event of the admission carries the
            # client's trace id and request id.
            stamped = daemon.service.log.for_trace(context.trace_id)
            assert stamped, "no daemon events carried the client trace id"
            assert {e.request_id for e in stamped} == {"req-prop"}
            assert any(e.kind == "session.admitted" for e in stamped)
            # ... and so do the flight recorder's spans.
            spans = daemon.service.flight.tracer.records_for_trace(
                context.trace_id
            )
            names = {record.name for record in spans}
            assert "daemon.establish" in names
            assert "establish" in names  # the coordinator's span
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_trace_ids_never_leak_into_response_bodies():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            context = obs_context.new_trace_context(request_id="req-leak")
            with obs_context.trace_context(context):
                response = await client.request(
                    "POST",
                    "/v1/establish",
                    {"service": "S2", "domain": "D1", "session_id": "s-leak"},
                )
            assert response.status == 200
            assert context.trace_id not in response.body.decode("utf-8")
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "header",
    [
        "garbage",
        "00-short-bad-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",
        "00-" + "a" * 32 + "-" + "1" * 16,  # truncated
    ],
)
def test_malformed_traceparent_gets_fresh_root_not_500(header):
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            response = await client.request(
                "POST",
                "/v1/establish",
                {"service": "S2", "domain": "D1", "session_id": "s-mal"},
                headers={"traceparent": header, "x-request-id": "req-mal"},
            )
            assert response.status == 200
            # The daemon minted a fresh root: events are stamped with
            # *some* trace id, just not one derived from the bad header.
            stamped = [e for e in daemon.service.log if e.trace_id]
            assert stamped
            assert all(e.request_id == "req-mal" for e in stamped)
            if header.startswith("00-a"):
                assert all(e.trace_id != "a" * 32 for e in stamped)
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_batch_fan_out_shares_one_trace():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            context = obs_context.new_trace_context(request_id="req-batch")
            arrivals = [
                {"session_id": f"b-{i}", "service": "S2", "domain": "D1"}
                for i in range(4)
            ]
            with obs_context.trace_context(context):
                outcomes = await client.establish_batch(arrivals)
            assert len(outcomes) == 4
            stamped = daemon.service.log.for_trace(context.trace_id)
            sessions = {e.session for e in stamped if e.session}
            # Every arrival's events came out of the fan-out with the
            # one batch trace id attached.
            assert {f"b-{i}" for i in range(4)} <= sessions
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_concurrent_admissions_never_share_a_trace():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            contexts = {}

            async def admit(i):
                context = obs_context.new_trace_context(request_id=f"req-{i}")
                contexts[f"c-{i}"] = context
                with obs_context.trace_context(context):
                    await client.establish(
                        service="S2", domain="D1", session_id=f"c-{i}"
                    )

            await asyncio.gather(*(admit(i) for i in range(6)))
            # Each session's events carry exactly its own client's trace.
            for i in range(6):
                session = f"c-{i}"
                events = [
                    e for e in daemon.service.log if e.session == session
                ]
                assert events
                trace_ids = {e.trace_id for e in events}
                assert trace_ids == {contexts[session].trace_id}
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# phase histograms


def test_admission_phase_histograms_with_exemplars():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            context = obs_context.new_trace_context(request_id="req-ph")
            with obs_context.trace_context(context):
                await client.establish(
                    service="S2", domain="D1", session_id="s-ph"
                )
            registry = daemon.service.registry
            for phase in ("parse", "queue_wait", "plan", "commit", "serialize"):
                histogram = registry.histogram(
                    "daemon.admission_phase_seconds", phase=phase
                )
                assert histogram.count == 1, phase
                assert histogram.exemplars, phase
                for _value, trace_id in histogram.exemplars.values():
                    assert trace_id == context.trace_id
            # Planning did real work, so plan time is non-zero.
            plan = registry.histogram(
                "daemon.admission_phase_seconds", phase="plan"
            )
            assert plan.sum > 0.0
            # Exemplars surface in the exposition as comment lines that
            # classic Prometheus parsers skip.
            text = await client.metrics()
            assert f"trace_id={context.trace_id}" in text
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_phase_histograms_count_each_request_once_under_a_shared_trace():
    # `repro-loadgen --trace` binds ONE trace per session, so a teardown
    # directly follows its establish under the same trace id.  Phase
    # attribution is per request: the teardown must not re-read the
    # establish's planning spans.
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            pairs = 20
            for i in range(pairs):
                context = obs_context.new_trace_context(request_id=f"req-sh-{i}")
                with obs_context.trace_context(context):
                    outcome = await client.establish(
                        service="S2", domain="D1", session_id=f"s-sh-{i}"
                    )
                    assert outcome["success"] is True
                    await client.teardown(f"s-sh-{i}")
            tracer = daemon.service.flight.tracer
            registry = daemon.service.registry
            for phase, span_name in (
                ("plan", "phase2_plan"),
                ("commit", "phase3_dispatch"),
            ):
                histogram = registry.histogram(
                    "daemon.admission_phase_seconds", phase=phase
                )
                assert histogram.count == 2 * pairs
                assert tracer.count(span_name) == pairs
                assert histogram.sum == pytest.approx(
                    tracer.total_time(span_name), rel=1e-9
                )
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# healthz + debug dump + access log


def test_healthz_reports_uptime_inflight_and_drain_state():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            health = await client.healthz()
            assert health["status"] == "ok"
            assert health["draining"] is False
            assert health["uptime_seconds"] >= 0.0
            assert health["inflight_admissions"] == 0
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_debug_dump_endpoint_returns_snapshot_and_writes_file(tmp_path):
    async def scenario():
        daemon = await start_daemon(seed=3, flight_dir=str(tmp_path))
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            context = obs_context.new_trace_context(request_id="req-dump")
            with obs_context.trace_context(context):
                await client.establish(
                    service="S2", domain="D1", session_id="s-dump"
                )
            dump = await client._call("POST", "/v1/debug/dump")
            assert dump["path"] is not None
            document = dump["document"]
            assert document["schema_version"] == 4
            assert document["meta"]["reason"] == "debug_endpoint"
            assert any(
                e.get("trace_id") == context.trace_id
                for e in document["events"]
            )
            # The on-disk dump is a loadable trace document.
            on_disk = analyze.load_trace(dump["path"])
            assert on_disk.schema_version == 4
            assert any(e.trace_id == context.trace_id for e in on_disk.events)
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_debug_dump_without_flight_dir_is_in_band_only():
    async def scenario():
        daemon = await start_daemon(seed=3)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            dump = await client._call("POST", "/v1/debug/dump")
            assert dump["path"] is None
            assert dump["document"]["schema_version"] == 4
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_access_log_lines_are_structured_json(capsys):
    async def scenario():
        daemon = await start_daemon(seed=3, access_log=True)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            context = obs_context.new_trace_context(request_id="req-log")
            with obs_context.trace_context(context):
                await client.establish(
                    service="S2", domain="D1", session_id="s-log"
                )
            await client.healthz()
            return context
        finally:
            await client.aclose()
            await daemon.shutdown()

    context = asyncio.run(scenario())
    lines = [
        json.loads(line)
        for line in capsys.readouterr().err.splitlines()
        if line.startswith("{")
    ]
    assert len(lines) == 2
    establish, health = lines
    assert establish["method"] == "POST"
    assert establish["path"] == "/v1/establish"
    assert establish["status"] == 200
    assert establish["duration_ms"] >= 0.0
    assert establish["trace_id"] == context.trace_id
    assert establish["request_id"] == "req-log"
    assert health["path"] == "/healthz"


# ---------------------------------------------------------------------------
# loadgen tracing + stitch (the acceptance gate, in-process)


def test_loadgen_trace_stitches_completely_against_flight_dump():
    async def scenario():
        daemon = await start_daemon(seed=3)
        try:
            config = LoadGenConfig(
                workload=WorkloadSpec(rate_per_60tu=400.0, horizon=6.0),
                seed=11,
                time_scale=0.001,
                max_hold_seconds=0.0,
                trace=True,
            )
            report = await run_load("127.0.0.1", daemon.port, config)
            assert report.sessions > 0 and report.errors == 0
            snapshot = daemon.service.flight_snapshot("test")
            return report, snapshot
        finally:
            await daemon.shutdown()

    report, snapshot = asyncio.run(scenario())
    client_doc = analyze.TraceDocument.from_dict(report.trace_document)
    daemon_doc = analyze.TraceDocument.from_dict(snapshot)
    stitched = analyze.stitch_traces(client_doc, daemon_doc)
    # The acceptance gate: every client request links to daemon-side
    # spans/events -- zero orphan client traces.
    assert stitched.complete, stitched.orphan_client
    assert len(stitched.timelines) == report.sessions
    for timeline in stitched.timelines:
        assert timeline.client_spans and timeline.daemon_events
        assert timeline.session is not None


def test_loadgen_without_tracing_has_no_document_and_no_headers():
    async def scenario():
        daemon = await start_daemon(seed=3)
        try:
            config = LoadGenConfig(
                workload=WorkloadSpec(rate_per_60tu=200.0, horizon=4.0),
                seed=11,
                time_scale=0.001,
                max_hold_seconds=0.0,
            )
            report = await run_load("127.0.0.1", daemon.port, config)
            assert report.trace_document is None
            # The daemon still mints fresh roots for unpropagated
            # requests, but request ids are its own counters -- proof no
            # client headers arrived.
            stamped = [e for e in daemon.service.log if e.request_id]
            assert stamped
            assert all(e.request_id.startswith("req-") for e in stamped)
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# flight recorder + CLI config


def test_flight_dump_files_are_sequenced(tmp_path):
    async def scenario():
        daemon = await start_daemon(seed=3, flight_dir=str(tmp_path))
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            await client.establish(service="S2", domain="D1", session_id="f-1")
            first = daemon.service.flight_dump("sigquit")
            second = daemon.service.flight_dump("sigquit")
            assert first != second
            assert first.name.startswith("flight-sigquit-")
            assert first.exists() and second.exists()
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_build_config_wires_tracing_flags(tmp_path):
    config = build_config(
        ["--access-log", "--flight-dir", str(tmp_path), "--port", "0"]
    )
    assert config.access_log is True
    assert config.flight_dir == str(tmp_path)
    assert signal.Signals  # SIGQUIT wiring is exercised in CI smoke


# ---------------------------------------------------------------------------
# phase attribution from the span ring


def request_phase_sums(tracer, first_span: int):
    """(plan, commit) summed over the records of spans opened from ``first_span``."""
    mine = [record for record in tracer.records if record.index >= first_span]
    return tuple(
        sum(record.duration for record in mine if record.name == name)
        for name in (PHASE2_SPAN, PHASE3_SPAN)
    )


def test_planning_phases_are_the_requests_record_durations():
    daemon = ReservationDaemon(DaemonConfig(port=0, seed=3))
    service = daemon.service
    tracer = service.flight.tracer
    service.start()
    try:
        # An earlier request's phases sit below the watermark.
        service.handle("POST", "/v1/establish", {},
                       {"service": "S2", "domain": "D1", "session_id": "early"})
        first_span = tracer.next_index
        context = obs_context.new_trace_context(request_id="req-phases")
        with obs_context.trace_context(context), trace_mod.tracing(tracer):
            with trace_mod.span("daemon.establish"):
                status, _ = service.handle(
                    "POST", "/v1/establish", {},
                    {"service": "S3", "domain": "D2", "session_id": "late"},
                )
                assert status == 200
                with trace_mod.span(PHASE2_SPAN):
                    with trace_mod.span(PHASE2_SPAN):
                        pass
                with pytest.raises(ValueError):
                    with trace_mod.span(PHASE3_SPAN):
                        raise ValueError("lost segment")
        plan, commit = daemon._planning_phases(first_span)
        expected = request_phase_sums(tracer, first_span)
        stamped = tracer.records_for_trace(context.trace_id)
    finally:
        service.close()
    assert plan > 0 and commit > 0
    assert (plan, commit) == pytest.approx(expected, rel=1e-12)
    assert {record.name for record in stamped} >= {PHASE2_SPAN, PHASE3_SPAN}
    assert any("error" in record.attributes for record in stamped)
