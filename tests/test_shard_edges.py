"""A shard's fence at its edges, answered through ``ReservationService.handle``,
and the ``view`` a cluster router has not got."""

import asyncio

import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator, ClusterDaemon
from repro.faults.invariants import capacity_conservation
from repro.service import DaemonConfig, ReservationService, ServiceClient
from tests.test_cluster import make_local_shards

DEMANDS = {"cpu:H1": 1.0}


def _reserve(service, session_id, **fields):
    payload = {"session_id": session_id, "demands": DEMANDS, **fields}
    return service.handle("POST", "/v1/reserve", {}, payload)


def _fenced_at(generation):
    """A daemon whose fence a router's teardown raised to ``generation``."""
    service = ReservationService(DaemonConfig(seed=7))
    payload = {"session_id": "gone", "generation": generation}
    status, _ = service.handle("POST", "/v1/teardown", {}, payload)
    assert status == 404
    return service


def _refused_below(service, fence):
    status, document = _reserve(service, "below", generation=fence - 1)
    assert status == 409, document
    assert document["error"] == f"stale router generation (fence {fence})"


def test_a_reserve_without_a_generation_is_not_fenced():
    service = _fenced_at(5)
    status, document = _reserve(service, "plain")
    assert (status, document["reserved"]) == (200, True)
    _refused_below(service, 5)


@pytest.mark.parametrize("generation", [True, "3", 2.0])
def test_a_generation_that_is_not_an_integer_is_refused(generation):
    service = _fenced_at(5)
    status, document = _reserve(service, "odd", generation=generation)
    assert status == 400, document
    assert document == {"error": "'generation' must be an integer"}
    assert not service.leases.pending()
    _refused_below(service, 5)


def test_a_reserve_at_the_fence_is_admitted():
    service = _fenced_at(5)
    status, document = _reserve(service, "level", generation=5)
    assert (status, document["reserved"]) == (200, True)
    _refused_below(service, 5)


def test_a_teardown_answered_404_still_raises_the_fence():
    """The anti-entropy teardown of a session the shard never held is a
    404, and still fences off the reserve the router gave up on."""
    service = _fenced_at(5)
    status, document = _reserve(service, "below", generation=4, commit={})
    assert status == 409, document
    assert document["error"] == "stale router generation (fence 5)"
    assert not service.leases.pending()
    assert "below" not in service.sessions
    report = capacity_conservation(service.grid.registry, service.grid.proxies)
    assert report.ok, report.describe()
    assert all(broker.utilization() == 0 for broker in service.grid.registry.brokers())


@pytest.mark.parametrize("shard_count", [1, 3])
def test_a_router_answers_a_view_as_its_shards_do_or_refuses_it(shard_count):
    """A router of any size has no view: ``?view=`` is a 400, whatever
    view its shards answer, and a plain query is the cluster document."""

    async def scenario():
        shards = make_local_shards(shard_count)
        router = ClusterDaemon(
            ClusterConfig(shards=(("127.0.0.1", 1),) * shard_count, port=0, seed=7),
            coordinator=ClusterCoordinator(shards, seed=7),
        )
        await router.start()
        client = ServiceClient("127.0.0.1", router.port)
        try:
            shard_view = await client.request("GET", "/v1/query?view=shard")
            bogus = await client.request("GET", "/v1/query?view=bogus")
            full = await client.request("GET", "/v1/query")
        finally:
            await client.aclose()
            await router.shutdown()
        for refused in (shard_view, bogus):
            assert refused.status == 400 and "view" in refused.json()["error"]
        assert full.status == 200
        assert full.json()["shards"] == shard_count

    asyncio.run(scenario())
