"""Malformed and hostile requests are refused whole: a 4xx, nothing held.

Three defects the hand-rolled phase-3 copies had drifted into are pinned
here against the served API: a ``/v1/reserve`` that failed on its second
resource answered 400 but kept the first one reserved forever; a ``NaN``
demand was *granted* and poisoned the broker's availability for good;
and a non-object arrival in a batch was a 500 with a flight dump.  One
parametrized test then drives the daemon and the router (of one shard
and of three) with every malformed shape it serves and asserts a 4xx,
never a 5xx, and no unhandled exception on the wire counters.
"""

import asyncio
import json
import math

import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator, ClusterDaemon
from repro.service import (
    DaemonConfig,
    ReservationDaemon,
    ReservationService,
    ServiceClient,
)

from tests.test_cluster import make_local_shards

NAN = float("nan")
INF = float("inf")
GOOD = {"service": "S2", "domain": "D1"}

#: (path, payload) -- every one must be answered 4xx.
MALFORMED = [
    ("/v1/establish_batch", {"arrivals": ["x"]}),
    ("/v1/establish_batch", {"arrivals": [17, None]}),
    ("/v1/establish_batch", {"arrivals": []}),
    ("/v1/establish_batch", {"arrivals": "x"}),
    ("/v1/establish_batch", {"arrivals": [dict(GOOD, session_id="d"),
                                          dict(GOOD, session_id="d")]}),
    ("/v1/establish", {}),
    ("/v1/establish", {"service": "S2"}),
    ("/v1/establish", {"service": 5, "domain": {}}),
    ("/v1/establish", dict(GOOD, demand_scale="fat")),
    ("/v1/establish", dict(GOOD, duration=[1])),
    ("/v1/establish", dict(GOOD, demand_scale=0)),
    ("/v1/establish", dict(GOOD, demand_scale=NAN)),
    ("/v1/establish", dict(GOOD, demand_scale=INF)),
    ("/v1/establish", dict(GOOD, duration=NAN)),
    ("/v1/establish", dict(GOOD, arrival_time=-INF)),
    ("/v1/reserve", {"session_id": "r", "demands": {}}),
    ("/v1/reserve", {"session_id": "r", "demands": ["cpu:H1"]}),
    ("/v1/reserve", {"session_id": "r", "demands": {"cpu:H1": "lots"}}),
    ("/v1/reserve", {"session_id": "r", "demands": {"cpu:H1": NAN}}),
    ("/v1/reserve", {"session_id": "r", "demands": {"cpu:H1": INF}}),
    ("/v1/reserve", {"session_id": "r", "demands": {"cpu:H1": 10, "cpu:H2": 0}}),
    ("/v1/reserve", {"demands": {"cpu:H1": 10}}),
]

#: ``session_id`` values that are present but no string: each is a 400.
NON_STRING_IDS = [["x"], {"id": "x"}, 0, 7, 1.5, False, True]

#: Arrivals that name no session: each draws an id.
UNNAMED = [GOOD, dict(GOOD, session_id=None), dict(GOOD, session_id="")]

#: Raw requests the HTTP codec refuses -- every one must be answered 400.
MALFORMED_WIRE = [
    b"GARBAGE\r\n\r\n",
    b"POST /v1/establish HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json",
    b"GET http://[::1 HTTP/1.1\r\n\r\n",
    b"POST /v1/establish HTTP/1.1\r\nContent-Length: 100000\r\n\r\n" + b"[" * 100_000,
]


async def _serve(target):
    """Boot ``target``; returns (port to drive, daemon or None, shutdown)."""
    if target == "router-3-shards":
        shards = make_local_shards(3)
        router = ClusterDaemon(
            ClusterConfig(shards=(("127.0.0.1", 1),) * 3, port=0, seed=7),
            coordinator=ClusterCoordinator(shards, seed=7),
        )
        await router.start()
        return router.port, None, [router]
    daemon = ReservationDaemon(DaemonConfig(port=0, seed=11))
    await daemon.start()
    if target == "daemon":
        return daemon.port, daemon, [daemon]
    router = ClusterDaemon(
        ClusterConfig(shards=(("127.0.0.1", daemon.port),), port=0, seed=11)
    )
    await router.start()
    return router.port, daemon, [router, daemon]


@pytest.mark.parametrize("target", ["daemon", "router-1-shard", "router-3-shards"])
def test_malformed_payloads_are_4xx_never_5xx(target):
    async def scenario():
        port, daemon, running = await _serve(target)
        try:
            client = ServiceClient("127.0.0.1", port)
            for path, payload in MALFORMED:
                if target != "daemon" and path != "/v1/establish":
                    continue  # a router serves establish only, at any size
                response = await client.request("POST", path, payload)
                assert 400 <= response.status < 500, (path, payload, response.body)
            # a duplicate id is refused too, and the original stays intact
            first = await client.request(
                "POST", "/v1/establish", dict(GOOD, session_id="twice")
            )
            again = await client.request(
                "POST", "/v1/establish", dict(GOOD, session_id="twice")
            )
            assert (first.status, again.status) == (200, 409)
            await client.aclose()
            if daemon is not None:
                # three well-formed requests, the last one for the wrong
                # door: a session recorded by /v1/commit is a router's
                direct = ServiceClient("127.0.0.1", daemon.port)
                held = await direct.reserve("2pc", {"cpu:H1": 10})
                await direct.commit(held["lease_id"])  # 'session' is optional
                wrong_door = await direct.request(
                    "POST", "/v1/renegotiate", {"session_id": "2pc"}
                )
                assert wrong_door.status == 409, wrong_door.body
                await direct.aclose()
                assert "unhandled_exceptions" not in daemon.service.flight.wire
                assert daemon.service.leases.pending() == ()
        finally:
            for server in running:
                await server.shutdown()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "demands",
    [
        {"cpu:H1": 10, "net:H1-H2": -5},  # both fronted by the same proxy
        {"cpu:H1": 10, "cpu:H2": -5},  # two proxies
    ],
)
def test_a_reserve_failing_on_its_second_resource_leaks_nothing(demands):
    async def scenario():
        daemon = ReservationDaemon(DaemonConfig(port=0, seed=11))
        await daemon.start()
        try:
            client = ServiceClient("127.0.0.1", daemon.port)
            response = await client.request(
                "POST", "/v1/reserve", {"session_id": "z", "demands": demands}
            )
            await client.aclose()
            assert response.status == 400
            daemon.service.grid.registry.assert_quiescent()
            assert daemon.service.leases.pending() == ()
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())


def test_non_finite_numbers_never_reach_a_broker():
    """``json.loads`` accepts NaN / Infinity literals; the decoders must not."""

    async def scenario():
        daemon = ReservationDaemon(DaemonConfig(port=0, seed=11))
        await daemon.start()
        try:
            client = ServiceClient("127.0.0.1", daemon.port)
            for literal in ("NaN", "Infinity", "-Infinity"):
                for path, body in (
                    ("/v1/reserve", '{"session_id":"n","demands":{"cpu:H1":%s}}'),
                    ("/v1/establish", '{"service":"S2","domain":"D1","demand_scale":%s}'),
                ):
                    payload = json.loads(body % literal)
                    response = await client.request("POST", path, payload)
                    assert response.status == 400, (path, literal, response.body)
            availability = await client.availability()
            await client.aclose()
            for resource_id, fields in availability["resources"].items():
                assert math.isfinite(fields["available"]), resource_id
                assert math.isfinite(fields["alpha"]), resource_id
            daemon.service.grid.registry.assert_quiescent()
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())


def _establish_ids(establish):
    """Drive ``establish`` (payload -> ``(status, document)``) with every
    non-string id, then every unnamed arrival: the refusals' statuses and
    the unnamed arrivals' ids."""
    refused = [establish(dict(GOOD, session_id=sid))[0] for sid in NON_STRING_IDS]
    drawn = []
    for payload in UNNAMED:
        status, document = establish(payload)
        assert status == 200, document
        drawn.append(document["session_id"])
    return refused, drawn


def test_the_daemon_refuses_a_session_id_that_is_no_string():
    """A present ``session_id`` that is no string (a list, an object, a
    number, a boolean) is a 400: never stringified, never replaced by a
    drawn id.  An absent, null or empty one draws ``svc-N``."""
    service = ReservationService(DaemonConfig(seed=7))

    def establish(payload):
        return service.handle("POST", "/v1/establish", {}, payload)

    refused, drawn = _establish_ids(establish)
    assert refused == [400] * len(NON_STRING_IDS)
    assert drawn == ["svc-1", "svc-2", "svc-3"]


def test_the_router_refuses_a_session_id_that_is_no_string():
    """The router decodes arrivals with the daemon's decoder: the same
    400s, the same ids drawn, and nothing reserved for a refused one."""
    shards = make_local_shards(3)
    coordinator = ClusterCoordinator(shards, seed=7)

    def establish(payload):
        status, body = asyncio.run(coordinator.establish(payload))
        return status, json.loads(body)

    refused, drawn = _establish_ids(establish)
    assert refused == [400] * len(NON_STRING_IDS)
    assert drawn == ["svc-1", "svc-2", "svc-3"]
    assert sorted(coordinator.sessions) == drawn
    assert sum(shard.requests.count("/v1/reserve") for shard in shards) == 2 * len(drawn)
