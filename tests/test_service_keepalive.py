"""HTTP/1.1 keep-alive in the service client/daemon, and typed draining.

The client pools one connection per (host, port) and reuses it across
sequential requests; a ``Connection: close`` response ends the reuse.
A ``GET`` whose pooled socket died before any response bytes is resent
once on a fresh connection; any other method raises instead, because
the daemon may have run it before the socket died (RFC 9110 §9.2.2
allows an automatic retry only for idempotent methods).  A draining daemon's 503 surfaces as the typed
:class:`~repro.service.client.ServiceDrainingError` so callers can
distinguish "try another replica" from a real error, and the load
generator reports its connection economics in its report.
"""

import asyncio

import pytest

from repro.service import (
    DaemonConfig,
    ReservationDaemon,
    ServiceClient,
    ServiceClientError,
    ServiceDrainingError,
)
from repro.service import http as _http
from repro.service.client import UNREACHABLE
from repro.service.loadgen import LoadGenConfig, run_load
from repro.sim.workload import WorkloadSpec


async def start_daemon(**overrides) -> ReservationDaemon:
    overrides.setdefault("port", 0)
    daemon = ReservationDaemon(DaemonConfig(**overrides))
    await daemon.start()
    return daemon


def test_sequential_requests_reuse_one_connection():
    async def scenario():
        daemon = await start_daemon(seed=3)
        try:
            client = ServiceClient("127.0.0.1", daemon.port)
            for _ in range(6):
                await client.healthz()
            assert client.connections_opened == 1
            assert client.connections_reused == 5
            await client.aclose()
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())


def test_stale_pooled_connection_is_retried_once():
    async def scenario():
        daemon = await start_daemon(seed=3)
        port = daemon.port
        client = ServiceClient("127.0.0.1", port)
        await client.healthz()  # pools the socket
        await daemon.shutdown()  # kills it under the client
        # Same port, fresh daemon: the pooled socket is dead, the
        # client must transparently reconnect (the request never
        # reached a server, so the retry cannot double-execute).
        daemon = await start_daemon(seed=3, port=port)
        try:
            health = await client.healthz()
            assert health["status"] == "ok"
            assert client.connections_opened == 2
            await client.aclose()
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())


async def start_dropping_server(seen: list) -> asyncio.AbstractServer:
    """A server that answers a connection's first request and reads its
    second, then closes without replying (a daemon that died mid-call)."""

    async def handle(reader, writer):
        try:
            for position in range(2):
                request = await _http.read_request(reader)
                if request is None:
                    return
                seen.append((request.method, request.path))
                if position == 0:
                    writer.write(_http.json_response_bytes(200, {"status": "ok"}, close=False))
                    await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_a_post_on_a_dropped_connection_is_not_resent():
    async def scenario():
        seen = []
        server = await start_dropping_server(seen)
        client = ServiceClient("127.0.0.1", server.sockets[0].getsockname()[1])
        try:
            await client.healthz()  # pools the socket
            with pytest.raises(UNREACHABLE):
                await client.reserve("s1", {"cpu:H1": 1.0})
            # The server read the POST once: a resend would have made
            # it hold two leases.
            assert seen == [("GET", "/healthz"), ("POST", "/v1/reserve")]
            assert client.connections_opened == 1
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_a_get_on_a_dropped_connection_is_resent_once():
    async def scenario():
        seen = []
        server = await start_dropping_server(seen)
        client = ServiceClient("127.0.0.1", server.sockets[0].getsockname()[1])
        try:
            await client.healthz()
            assert (await client.query())["status"] == "ok"
            assert seen == [("GET", "/healthz"), ("GET", "/v1/query"),
                            ("GET", "/v1/query")]
            assert client.connections_opened == 2
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_draining_daemon_raises_typed_error():
    async def scenario():
        daemon = await start_daemon(seed=3)
        try:
            client = ServiceClient("127.0.0.1", daemon.port)
            outcome = await client.establish(
                service="S2", domain="D1", session_id="pre-drain"
            )
            assert outcome["success"] is True
            daemon._draining = True
            with pytest.raises(ServiceDrainingError) as drained:
                await client.establish(service="S3", domain="D2")
            assert drained.value.status == 503
            # The typed error is still a ServiceClientError, so
            # pre-existing broad handlers keep working.
            assert isinstance(drained.value, ServiceClientError)
            # Teardown is drain-exempt: drain refuses new work, never
            # the freeing of old work (a draining shard that refused
            # teardowns would strand its sessions' holds).
            released = await client.teardown("pre-drain")
            assert released["released"] > 0
            await client.aclose()
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())


def test_loadgen_reports_connection_reuse():
    async def scenario():
        daemon = await start_daemon(seed=11)
        try:
            config = LoadGenConfig(
                workload=WorkloadSpec(rate_per_60tu=600.0, horizon=3.0),
                seed=7,
                time_scale=0.001,
                max_hold_seconds=0.02,
            )
            report = await run_load("127.0.0.1", daemon.port, config)
            assert report.errors == 0
            assert report.connections_opened >= 1
            # An open-loop burst over one pooled client reuses sockets:
            # strictly fewer opens than requests (establish + teardown
            # per admitted session).  How many depends on how the burst
            # interleaves, so only the reuse itself is asserted.
            requests = report.sessions + report.torn_down
            assert report.connection_reuses > 0
            assert report.connections_opened < requests
            assert report.connections_opened + report.connection_reuses == requests
            document = report.to_dict()
            assert document["connections_opened"] == report.connections_opened
            assert document["connection_reuses"] == report.connection_reuses
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())
