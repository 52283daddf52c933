"""One serving shell, one route table: the contracts every server shares.

``ReservationDaemon`` and ``ClusterDaemon`` run inside the same
:class:`~repro.service.server.ServingShell`, so what the shell owns --
keep-alive, ``Connection: close``, the two probes (``/healthz``,
``/metrics``), the 400 a malformed request earns, trace continuation,
405-before-404, and the drain barrier -- is checked once against all
three deployments.  And ``LocalShardClient``, the
in-process stand-in the Hypothesis cluster schedules race, answers from
the daemon's own route table: a table of requests (every route, the
malformed payloads, then everything again while draining) must come
back with the same ``(status, body)`` from the stand-in and from a real
daemon over HTTP.
"""

import asyncio
import json

import pytest

from repro.cluster import LocalShardClient
from repro.obs import context as obs_context
from repro.obs.events import EventLog
from repro.service import (
    DaemonConfig,
    ReservationDaemon,
    ReservationService,
    ServiceClient,
    ServiceDrainingError,
    ServiceResponse,
)
from repro.service.http import read_response

from tests.test_malformed_requests import GOOD, MALFORMED, MALFORMED_WIRE, _serve


async def _raw(port, wire):
    """Send raw bytes; returns (response, True when the server then closed)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(wire)
        await writer.drain()
        response = ServiceResponse(*await read_response(reader))
        try:
            closed = await asyncio.wait_for(reader.read(1), timeout=0.3) == b""
        except asyncio.TimeoutError:
            closed = False
        return response, closed
    finally:
        writer.close()


def _event_logs(daemon, running):
    """The event logs admissions through ``running[0]`` end up in."""
    if daemon is not None:
        return [daemon.service.log]
    return [shard.log for shard in running[0].coordinator.shards]


def _pending_leases(daemon, running):
    if daemon is not None:
        return daemon.service.leases.pending()
    return tuple(
        lease
        for shard in running[0].coordinator.shards
        for lease in shard.service.leases.pending()
    )


@pytest.mark.parametrize("target", ["daemon", "router-1-shard", "router-3-shards"])
def test_shell_contract(target):
    async def scenario():
        port, daemon, running = await _serve(target)
        server = running[0]
        try:
            # keep-alive: two sequential requests share one socket
            client = ServiceClient("127.0.0.1", port)
            assert (await client.healthz())["status"] == "ok"
            assert (await client.healthz())["requests"] == 2
            assert (client.connections_opened, client.connections_reused) == (1, 1)

            # the two probes are the shell's: the common /healthz keys
            # beside the role's own, the exposition type on /metrics
            health = await client.healthz()
            assert {
                "status", "role", "requests", "uptime_seconds",
                "inflight_admissions", "draining",
            } < set(health)
            assert ("shard_count" in health) == (target == "daemon")
            response = await client.request("GET", "/metrics")
            assert response.status == 200
            assert response.headers["content-type"] == "text/plain; version=0.0.4"
            assert response.body.startswith(b"# ")

            # Connection: close is honoured, keep-alive is the default
            head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            response, closed = await _raw(port, head + b"Connection: close\r\n\r\n")
            assert (response.status, response.headers["connection"], closed) == (
                200, "close", True
            )
            response, closed = await _raw(port, head + b"\r\n")
            assert (response.headers["connection"], closed) == ("keep-alive", False)

            # a malformed request is a 400 that closes the connection
            for wire in MALFORMED_WIRE:
                response, closed = await _raw(port, wire)
                assert (response.status, closed) == (400, True), wire
                assert "error" in response.json()

            # 405 before 404
            response = await client.request("GET", "/v1/establish")
            assert response.status == 405
            response = await client.request("POST", "/v1/nonsense", {})
            assert response.status == 404

            # a valid traceparent is continued, a malformed one starts a
            # fresh root -- never a failed request
            caller = obs_context.new_trace_context(request_id="req-shell")
            with obs_context.trace_context(caller):
                outcome = await client.establish(session_id="traced", **GOOD)
            assert outcome["success"] is True
            logs = _event_logs(daemon, running)
            assert any(log.for_trace(caller.trace_id) for log in logs)
            response = await client.request(
                "POST",
                "/v1/establish",
                dict(GOOD, session_id="untraced"),
                headers={obs_context.TRACEPARENT_HEADER: "00-zz-not-a-trace-01"},
            )
            assert response.status == 200
            fresh = {
                event.trace_id
                for log in logs
                for event in log
                if event.session == "untraced"
            }
            assert fresh and None not in fresh and caller.trace_id not in fresh

            # drain: shutdown waits for the admission already in flight,
            # refuses a late one with the typed error, then stops listening
            await server._lock.acquire()
            inflight = asyncio.create_task(
                client.establish(session_id="in-flight", **GOOD)
            )
            await asyncio.sleep(0.1)
            shutdown = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0.1)
            assert not shutdown.done()  # waiting on the drain barrier
            with pytest.raises(ServiceDrainingError):
                await client.establish(session_id="late", **GOOD)
            server._lock.release()
            assert (await inflight)["success"] is True
            await shutdown
            assert _pending_leases(daemon, running) == ()
            with pytest.raises((ConnectionError, OSError)):
                await client.healthz()
            await client.aclose()
        finally:
            for each in running:
                await each.shutdown()

    asyncio.run(scenario())


#: (method, target, payload) -- every route of the table, the probes the
#: stand-in used to get wrong, and the malformed payloads.  ``$lease`` is
#: the lease id the side under test last handed out.
ROUTES = [
    ("GET", "/v1/availability", None),
    ("GET", "/v1/nonsense", None),
    ("PUT", "/v1/establish", {}),
    ("POST", "/v1/nonsense", {}),
    ("POST", "/v1/establish", dict(GOOD, session_id="a b")),
    ("POST", "/v1/establish", dict(GOOD, session_id="a b")),
    ("GET", "/v1/query?session_id=a%20b", None),
    ("GET", "/v1/query?session_id=no-such", None),
    ("GET", "/v1/query", None),
    ("POST", "/v1/establish_batch",
     {"arrivals": [{"service": "S3", "domain": "D2"}, dict(GOOD)]}),
    ("POST", "/v1/renegotiate", {"session_id": "a b"}),
    ("POST", "/v1/renegotiate", {"session_id": "no-such"}),
    ("POST", "/v1/reserve", {"session_id": "r1", "demands": {"cpu:H1": 10}}),
    ("POST", "/v1/commit", {"lease_id": "$lease"}),
    ("POST", "/v1/reserve", {"session_id": "r2", "demands": {"cpu:H2": 10}}),
    ("POST", "/v1/abort", {"lease_id": "$lease"}),
    ("POST", "/v1/abort", {"lease_id": "$lease"}),
    ("POST", "/v1/commit", {"lease_id": "no-such"}),
    ("POST", "/v1/teardown", {"session_id": "r1"}),
    ("POST", "/v1/teardown", {"session_id": "no-such"}),
    ("POST", "/v1/debug/dump", {}),
    *(("POST", path, payload) for path, payload in MALFORMED),
    ("POST", "/v1/reserve", {"session_id": "r3", "demands": {"cpu:H1": 10}}),
]

#: What a draining shard must still serve: the round and the session
#: that already hold capacity are finished and freed, nothing new starts.
DRAINING_ROUTES = ROUTES[:-1] + [
    ("POST", "/v1/commit", {"lease_id": "$lease"}),
    ("POST", "/v1/teardown", {"session_id": "a b"}),
    ("POST", "/v1/teardown", {"session_id": "r3"}),
]


def _comparable(target, status, body):
    """``(status, document)`` minus what legitimately differs by process."""
    document = json.loads(body)
    if status == 200 and target == "/v1/query":
        for volatile in ("uptime_seconds", "event_log"):
            del document[volatile]
    if status == 200 and target == "/v1/debug/dump":
        document = {"path": document["path"], "document": sorted(document["document"])}
    return status, document


def test_local_shard_client_answers_like_the_daemon():
    async def scenario():
        # A TTL no run reaches: only the daemon reaps on a timer.
        daemon = ReservationDaemon(DaemonConfig(port=0, seed=11, lease_ttl=600.0))
        await daemon.start()
        local = LocalShardClient(
            0,
            ReservationService(DaemonConfig(seed=11, lease_ttl=600.0)),
            log=EventLog(),
        )
        client = ServiceClient("127.0.0.1", daemon.port)
        mismatches = []
        leases = {}
        try:
            for draining, rows in ((False, ROUTES), (True, DRAINING_ROUTES)):
                daemon._draining = local.draining = draining
                for method, target, payload in rows:
                    answers = []
                    for side in (client.request, local.send):
                        sent = payload
                        if payload and payload.get("lease_id") == "$lease":
                            sent = dict(payload, lease_id=leases.get(side))
                        try:
                            response = await side(method, target, sent)
                        except Exception as exc:  # a side that raises differs
                            answers.append(repr(exc))
                            continue
                        answers.append(
                            _comparable(target, response.status, response.body)
                        )
                        if "lease_id" in response.json():
                            leases[side] = response.json()["lease_id"]
                    if answers[0] != answers[1]:
                        mismatches.append((draining, method, target, payload, answers))
            assert "unhandled_exceptions" not in daemon.service.flight.wire
            assert daemon.service.leases.pending() == local.service.leases.pending() == ()
        finally:
            await client.aclose()
            await daemon.shutdown()
        return mismatches

    assert asyncio.run(scenario()) == []


@pytest.mark.parametrize("target", ["daemon", "router-3-shards"])
def test_a_route_that_raises_is_a_500_on_a_usable_connection(target, tmp_path):
    """The shell answers what a route raises with ``500 {"error": ...}``,
    counts it, and keeps the connection; the daemon's hook also dumps its
    flight recorder."""
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    async def scenario():
        if target == "daemon":
            server = ReservationDaemon(
                DaemonConfig(port=0, seed=11, flight_dir=str(tmp_path))
            )
            await server.start()
            server.service.route = boom
        else:
            port, _, running = await _serve(target)
            server = running[0]
            server.coordinator.establish = boom
        client = ServiceClient("127.0.0.1", server.port)
        try:
            response = await client.request("POST", "/v1/establish", GOOD)
            assert (response.status, response.json()) == (
                500,
                {"error": "RuntimeError: boom"},
            )
            assert (await client.healthz())["status"] == "ok"
            assert (client.connections_opened, client.connections_reused) == (1, 1)
            assert server.wire["unhandled_exceptions"] == 1
        finally:
            await client.aclose()
            await server.shutdown()
        if target == "daemon":
            assert server.service.flight.wire["unhandled_exceptions"] == 1
            assert [path.name.split("-")[1] for path in tmp_path.iterdir()] == [
                "exception"
            ]

    asyncio.run(scenario())
