"""The sharded cluster: shard map, 2PC router, reconciliation, identity.

Covers the PR's acceptance properties: the shard map partitions every
resource exactly once and deterministically, a single-shard cluster
router returns responses byte-identical to the bare daemon (and hence to
the in-process coordinator), cross-shard establishments either commit on
every involved shard or leave zero net capacity behind under admission
failure / drain / crash / a lost, garbled or wrong-shape shard reply /
a shard that never answers (with every committed slice held or owed a
teardown by the router),
stranded leases are reaped by TTL, and the
offline reconciler verifies global conservation from merged per-shard
event logs -- catching each violation class when fed corrupted books.
"""

import asyncio
import json
import time

import pytest

from repro.core.errors import ModelError
from repro.faults.invariants import (
    capacity_conservation,
    cross_tier_violations,
    reconcile_shard_events,
)
from repro.obs.events import EventLog
from repro.obs.prom import parse_exposition
from repro.service import (
    DaemonConfig,
    ReservationDaemon,
    ReservationService,
    ServiceClient,
    ServiceClientError,
    ServiceResponse,
)
from repro.service.client import UNREACHABLE
from repro.service.http import (
    MAX_BODY_BYTES,
    ProtocolError,
    json_response_bytes,
    read_request,
)
from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterDaemon,
    LocalShardClient,
    ShardMap,
)
from repro.cluster import router as cluster_router
from repro.cluster.router import HttpShardClient
from repro.sim.environment import GridEnvironment
from repro.des.engine import Environment
from repro.des.rng import RandomStreams

from tests.test_service_daemon import VALID_PAIRS, _seeded_operations


def _topology(seed: int = 0):
    return GridEnvironment(Environment(), RandomStreams(seed)).topology


class FaultyShardClient(LocalShardClient):
    """An in-process shard with the faults the router must absorb.

    ``crashed`` makes every call fail as if the shard were down.
    ``crash_on_next_reserve`` is the lost ack: the shard grants the next
    reserve, then dies before answering, so only its TTL reaper can free
    the lease.  ``lose_next_reply`` names a path whose next call the
    shard applies and stays up, but whose reply never arrives.
    ``garble_next_reply`` is a ``(path, body)`` pair: the shard applies
    the next call to ``path`` and answers it with ``body`` -- bytes that
    are no JSON, or JSON of the wrong shape.  A fault names a path and
    matches a request target with or without a query string.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.crashed = False
        self.crash_on_next_reserve = False
        self.lose_next_reply = None
        self.garble_next_reply = None

    def _check_alive(self):
        if self.crashed:
            raise ConnectionError(f"shard {self.label} is down")

    async def forward_raw(self, method, target, payload):
        self._check_alive()
        await asyncio.sleep(0)  # the shard may crash while the request travels
        self._check_alive()
        response = await super().forward_raw(method, target, payload)
        path = target.partition("?")[0]
        if self.crash_on_next_reserve and path == "/v1/reserve":
            if response.status == 200:
                self.crash_on_next_reserve = False
                self.crashed = True
                raise ConnectionError(f"shard {self.label} crashed mid-reserve")
        if path == self.lose_next_reply:
            self.lose_next_reply = None
            raise ConnectionError(f"shard {self.label}: reply to {path} lost")
        if self.garble_next_reply and self.garble_next_reply[0] == path:
            body = self.garble_next_reply[1]
            self.garble_next_reply = None
            return ServiceResponse(response.status, {}, body)
        return response


def make_local_shards(count: int, seed: int = 7, **overrides):
    """``count`` in-process shards (:class:`FaultyShardClient`, no fault
    armed) with per-shard event logs."""
    shards = []
    for index in range(count):
        config = DaemonConfig(
            seed=seed, shard_index=index, shard_count=count, **overrides
        )
        shards.append(
            FaultyShardClient(index, ReservationService(config), log=EventLog())
        )
    return shards


def assert_cluster_clean(shards, *, session_ids=()):
    """Every shard conserves capacity and holds nothing for the sessions."""
    for shard in shards:
        report = capacity_conservation(
            shard.service.grid.registry, shard.service.grid.proxies
        )
        assert report.ok, f"{shard.label}: {report.describe()}"
        for session_id in session_ids:
            for host, proxy in shard.service.grid.proxies.items():
                held = proxy.held_for(session_id)
                assert not held, (shard.label, host, session_id, held)


# ---------------------------------------------------------------------------
# the shard map


def test_shard_map_partitions_every_resource_exactly_once():
    topology = _topology()
    grid = GridEnvironment(Environment(), RandomStreams(0))
    for count in (1, 2, 3, 4):
        shard_map = ShardMap.from_topology(topology, count)
        owners = {}
        for rid in grid.registry.resource_ids():
            shard = shard_map.shard_of(rid)
            assert 0 <= shard < count
            owners[rid] = shard
        for index in range(count):
            owned = shard_map.owned_resource_ids(index, grid.registry.resource_ids())
            assert set(owned) == {r for r, s in owners.items() if s == index}
        assert set(owners.values()) == set(range(count))


def test_shard_map_is_deterministic_and_groups_domains_with_hosts():
    topology = _topology()
    a = ShardMap.from_topology(topology, 3)
    b = ShardMap.from_topology(topology, 3)
    assert a.assignments == b.assignments
    # A domain's access path lives with its proxy host's shard, so
    # cpu:H and the net: paths that end at H's domains can only split
    # across shards when the *other* endpoint owns the path.
    for domain, host in a.domain_proxy_hosts.items():
        assert a.shard_of_node(domain) == a.shard_of_node(host)


def test_shard_map_rejects_bad_counts_and_unknown_resources():
    topology = _topology()
    with pytest.raises(ModelError):
        ShardMap.from_topology(topology, 0)
    with pytest.raises(ModelError):
        ShardMap.from_topology(topology, 99)
    shard_map = ShardMap.from_topology(topology, 2)
    with pytest.raises(ModelError):
        shard_map.shard_of("link:L999")


@pytest.mark.parametrize(
    "field, value",
    [("algorithm", "nope"), ("contention_index", "bogus"), ("drain_timeout", -1)],
)
def test_router_refuses_what_the_daemon_refuses(field, value):
    with pytest.raises(ModelError):
        DaemonConfig(**{field: value})
    with pytest.raises(ModelError):
        ClusterConfig(shards=(("127.0.0.1", 1),), **{field: value})
    if field != "drain_timeout":
        with pytest.raises(ModelError):
            ClusterCoordinator(make_local_shards(1), **{field: value})


# ---------------------------------------------------------------------------
# single-shard byte-identity


def test_single_shard_router_byte_identical_to_bare_service():
    operations = _seeded_operations()

    async def through_router():
        shard = LocalShardClient(
            0, ReservationService(DaemonConfig(seed=23)), log=EventLog()
        )
        coordinator = ClusterCoordinator([shard], seed=23)
        bodies = []
        for op, payload in operations:
            if op == "establish":
                status, body = await coordinator.establish(payload)
            else:
                status, body = await coordinator.teardown(payload)
            assert status == 200
            bodies.append(body)
        return bodies

    router_bodies = asyncio.run(through_router())

    service = ReservationService(DaemonConfig(seed=23))
    local_bodies = []
    for op, payload in operations:
        document = getattr(service, op)(payload)
        local_bodies.append(json.dumps(document, sort_keys=True).encode("utf-8"))

    assert router_bodies == local_bodies


def test_single_shard_router_over_http_byte_identical():
    operations = _seeded_operations(count=10)

    service = ReservationService(DaemonConfig(seed=23))
    documents = [(200, getattr(service, op)(payload)) for op, payload in operations]
    # Reads are forwarded with their query string: one live session's
    # record, and the 404 of an unknown one.
    reads = [sorted(service.sessions)[0], "no-such"]
    documents.append((200, service.query(reads[0])))
    documents.append((404, {"error": "unknown session 'no-such'"}))
    local = [
        (status, json.dumps(document, sort_keys=True).encode("utf-8"))
        for status, document in documents
    ]

    async def scenario():
        daemon = ReservationDaemon(DaemonConfig(port=0, seed=23))
        await daemon.start()
        router = ClusterDaemon(
            ClusterConfig(shards=(("127.0.0.1", daemon.port),), port=0, seed=23)
        )
        await router.start()
        try:
            client = ServiceClient("127.0.0.1", router.port)
            answers = []
            for op, payload in operations:
                response = await client.request("POST", f"/v1/{op}", payload)
                answers.append((response.status, response.body))
            for session_id in reads:
                response = await client.request(
                    "GET", f"/v1/query?session_id={session_id}"
                )
                answers.append((response.status, response.body))
            await client.aclose()
            return answers
        finally:
            await router.shutdown()
            await daemon.shutdown()

    assert asyncio.run(scenario()) == local


# ---------------------------------------------------------------------------
# cross-shard two-phase commit


def test_cross_shard_establish_commits_on_every_involved_shard():
    async def scenario():
        shards = make_local_shards(3)
        coordinator = ClusterCoordinator(shards, seed=7)
        outcomes = []
        for index, (service_name, domain) in enumerate(VALID_PAIRS[:4]):
            status, body = await coordinator.establish(
                {
                    "service": service_name,
                    "domain": domain,
                    "session_id": f"s-{index}",
                }
            )
            assert status == 200
            outcomes.append(json.loads(body))
        admitted = [o for o in outcomes if o["success"]]
        assert admitted, outcomes
        for outcome in admitted:
            assert outcome["level"] in {1, 2, 3}
            assert outcome["psi"] is not None
        # Leases all settled: nothing pending on any shard.
        for shard in shards:
            assert not shard.service.leases.pending()
        # ?session_id= is answered from the router's own session table.
        known = admitted[0]["session_id"]
        status, body = await coordinator.query(session_id=known)
        assert status == 200
        assert json.loads(body) == dict(
            coordinator.sessions[known], session_id=known
        )
        status, body = await coordinator.query(session_id="no-such")
        assert (status, json.loads(body)) == (
            404, {"error": "unknown session 'no-such'"}
        )
        for shard in shards:
            report = capacity_conservation(
                shard.service.grid.registry, shard.service.grid.proxies
            )
            assert report.ok, report.describe()
        # Teardown returns the grid to empty on every shard.
        for outcome in admitted:
            status, body = await coordinator.teardown(
                {"session_id": outcome["session_id"]}
            )
            assert status == 200
            assert json.loads(body)["released"] > 0
        assert_cluster_clean(
            shards, session_ids=[o["session_id"] for o in outcomes]
        )
        # The merged logs reconcile with zero violations.
        report = reconcile_shard_events(
            {shard.label: list(shard.log) for shard in shards}
        )
        assert report.ok, report.describe()
        assert report.cross_shard_sessions >= 1

    asyncio.run(scenario())


def test_rejected_plan_reserves_nothing_anywhere():
    async def scenario():
        shards = make_local_shards(3)
        coordinator = ClusterCoordinator(shards, seed=7)
        status, body = await coordinator.establish(
            {
                "service": "S1",
                "domain": "D3",
                "session_id": "too-big",
                "demand_scale": 1e9,
            }
        )
        assert status == 200
        outcome = json.loads(body)
        assert outcome["success"] is False
        assert outcome["reason"] == "no_feasible_plan"
        for shard in shards:
            assert shard.service.lease_counters["reserved"] == 0
        assert_cluster_clean(shards, session_ids=["too-big"])

    asyncio.run(scenario())


def test_draining_shard_aborts_the_round_cleanly():
    async def scenario():
        shards = make_local_shards(3)
        coordinator = ClusterCoordinator(shards, seed=7)
        # Find a pair that spans at least two shards, then drain one of
        # the involved shards and re-try: the round must abort with
        # nothing held anywhere.
        for service_name, domain in VALID_PAIRS:
            binding = coordinator.grid.binding_for(service_name, domain)
            involved = sorted(
                {
                    coordinator.shard_map.shard_of(rid)
                    for rid in binding.resource_ids()
                }
            )
            if len(involved) >= 2:
                break
        else:
            pytest.skip("no cross-shard pair in this topology")
        shards[involved[-1]].draining = True
        status, body = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": "drained"}
        )
        assert status == 200
        outcome = json.loads(body)
        assert outcome["success"] is False
        assert outcome["reason"] == "shard_draining"
        assert_cluster_clean(shards, session_ids=["drained"])
        report = reconcile_shard_events(
            {shard.label: list(shard.log) for shard in shards}
        )
        assert report.ok, report.describe()

    asyncio.run(scenario())


def test_shard_crash_mid_reserve_strands_only_a_ttl_lease():
    async def scenario():
        shards = make_local_shards(3)
        coordinator = ClusterCoordinator(shards, seed=7)
        for service_name, domain in VALID_PAIRS:
            binding = coordinator.grid.binding_for(service_name, domain)
            involved = sorted(
                {
                    coordinator.shard_map.shard_of(rid)
                    for rid in binding.resource_ids()
                }
            )
            if len(involved) >= 2:
                break
        else:
            pytest.skip("no cross-shard pair in this topology")
        # The *first* involved shard grants, then dies before its ack
        # reaches the router (the lost-ack case).
        victim = shards[involved[0]]
        victim.crash_on_next_reserve = True
        status, body = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": "lost"}
        )
        outcome = json.loads(body)
        assert outcome["success"] is False
        assert outcome["reason"] == "shard_unreachable"
        # The dead shard holds the lease the router could not abort --
        # no capacity is lost for longer than the TTL.
        assert len(victim.service.leases.pending()) == 1
        reaped = await victim.reap(now=float("inf"))
        assert reaped == 1
        assert_cluster_clean(shards, session_ids=["lost"])
        report = reconcile_shard_events(
            {shard.label: list(shard.log) for shard in shards}
        )
        assert report.ok, report.describe()
        # The other involved shards never committed anything.
        for shard in shards:
            assert shard.service.lease_counters["committed"] == 0

    asyncio.run(scenario())


def _cross_shard_commits(shard_count):
    """``(service, domain, committing shards)``, one per distinct shard set."""
    async def probe():
        seen = {}
        for service_name, domain in VALID_PAIRS:
            coordinator = ClusterCoordinator(make_local_shards(shard_count), seed=7)
            await coordinator.establish(
                {"service": service_name, "domain": domain, "session_id": "probe"}
            )
            involved = tuple(coordinator.sessions["probe"]["shards"])
            if len(involved) >= 2:
                seen.setdefault(involved, (service_name, domain, involved))
        return list(seen.values())

    return asyncio.run(probe())


@pytest.mark.parametrize("shard_count", [2, 3])
def test_a_lost_commit_reply_is_torn_down_by_the_anti_entropy_pass(shard_count):
    """A shard applies ``/v1/commit``, stays up, and its reply is lost.

    The commit's outcome is unknown to the router, so an abort cannot
    undo it: the shard joins the session's teardown debt, and the next
    anti-entropy pass frees the committed slice.
    """
    cases = [
        (service_name, domain, victim)
        for service_name, domain, involved in _cross_shard_commits(shard_count)
        for victim in involved
    ]
    assert {victim for _, _, victim in cases} == set(range(shard_count))

    async def scenario(service_name, domain, victim_index):
        shards = make_local_shards(shard_count)
        coordinator = ClusterCoordinator(shards, seed=7)
        victim = shards[victim_index]
        victim.lose_next_reply = "/v1/commit"
        status, body = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": "lost"}
        )
        assert status == 200
        outcome = json.loads(body)
        assert outcome["success"] is False
        assert outcome["reason"] == "shard_unreachable"
        assert not victim.crashed
        status, _ = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": "lost"}
        )
        assert status == 409
        await _settle_unknown_commit(coordinator, shards, victim_index, "lost")

    for service_name, domain, victim_index in cases:
        asyncio.run(scenario(service_name, domain, victim_index))


def assert_tiers_agree(coordinator, shards):
    """Every slice a shard holds committed is one the router holds or owes."""
    violations = cross_tier_violations(
        coordinator.sessions,
        coordinator.pending_teardowns,
        {shard.index: shard.service.sessions for shard in shards},
    )
    assert not violations, violations


async def _settle_unknown_commit(coordinator, shards, victim_index, session_id):
    """The victim owes a teardown; one anti-entropy pass and a reap free all."""
    assert session_id not in coordinator.sessions
    assert victim_index in coordinator.pending_teardowns[session_id]
    assert_tiers_agree(coordinator, shards)
    await coordinator.flush_pending_teardowns()
    assert not coordinator.pending_teardowns
    for shard in shards:
        await shard.reap(now=float("inf"))
        assert session_id not in shard.service.sessions, shard.label
    assert_cluster_clean(shards, session_ids=[session_id])
    assert_tiers_agree(coordinator, shards)
    report = reconcile_shard_events({shard.label: list(shard.log) for shard in shards})
    assert report.ok, report.describe()
    for label, per_resource in report.outstanding.items():
        assert not per_resource, (label, per_resource)


@pytest.mark.parametrize("shard_count", [2, 3])
def test_a_garbled_commit_reply_is_an_unknown_outcome_not_a_leak(shard_count):
    """The shard committed; its reply does not parse.  Like a lost reply,
    the outcome is unknown: the router books a teardown debt and the
    anti-entropy pass frees the slice, instead of raising out of
    ``establish`` and leaving the session committed on the shard."""
    cases = [
        (service_name, domain, victim)
        for service_name, domain, involved in _cross_shard_commits(shard_count)
        for victim in involved
    ]

    async def scenario(service_name, domain, victim_index):
        shards = make_local_shards(shard_count)
        shards[victim_index].garble_next_reply = ("/v1/commit", b"<html>bad gateway")
        coordinator = ClusterCoordinator(shards, seed=7)
        status, body = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": "garbled"}
        )
        assert status == 200
        outcome = json.loads(body)
        assert (outcome["success"], outcome["reason"]) == (False, "shard_unreachable")
        await _settle_unknown_commit(coordinator, shards, victim_index, "garbled")

    for service_name, domain, victim_index in cases:
        asyncio.run(scenario(service_name, domain, victim_index))


#: Replies that are valid JSON of the wrong shape, per route; the shard
#: applied the call before answering.  ``"$rid"`` stands for a resource
#: the victim shard owns and the placement needs.
WRONG_SHAPES = [
    pytest.param("/v1/availability", [], id="availability-list"),
    pytest.param(
        "/v1/availability",
        {"resources": {"$rid": {"available": "x"}}},
        id="availability-not-a-number",
    ),
    pytest.param(
        "/v1/availability", {"resources": {}}, id="availability-omits-a-resource"
    ),
    pytest.param("/v1/reserve", [], id="reserve-list"),
    pytest.param("/v1/reserve", {"reserved": True}, id="reserve-no-lease"),
    pytest.param("/v1/commit", [], id="commit-list"),
    pytest.param("/v1/teardown", [], id="teardown-list"),
    pytest.param("/v1/teardown", {"released": "many"}, id="teardown-not-a-number"),
]


@pytest.mark.parametrize("shard_count", [2, 3])
@pytest.mark.parametrize("route,reply", WRONG_SHAPES)
def test_a_reply_of_the_wrong_shape_leaks_nothing(shard_count, route, reply):
    """A reply the router cannot read is an unknown outcome, on every route.

    Establishment and teardown answer 200 instead of raising; a call
    that can fail fails as ``shard_unreachable``; a shard that may have
    committed or torn down joins the teardown debt; and after one
    anti-entropy pass and a reap every shard is quiescent.  The garbled
    teardown hits the *first* shard of the session, so the router must
    still reach the others.
    """
    cases = [
        (service_name, domain, victim)
        for service_name, domain, involved in _cross_shard_commits(shard_count)
        for victim in (involved[:1] if route == "/v1/teardown" else involved)
    ]
    assert cases
    may_have_applied = route in ("/v1/commit", "/v1/teardown")

    async def scenario(service_name, domain, victim_index):
        shards = make_local_shards(shard_count)
        coordinator = ClusterCoordinator(shards, seed=7)
        rid = min(
            resource_id
            for resource_id in coordinator.grid.binding_for(
                service_name, domain
            ).resource_ids()
            if coordinator.shard_map.shard_of(resource_id) == victim_index
        )
        body = json.dumps(reply).replace("$rid", rid).encode()
        request = {"service": service_name, "domain": domain, "session_id": "shape"}
        if route == "/v1/teardown":
            status, outcome = await coordinator.establish(request)
            assert json.loads(outcome)["success"] is True
            shards[victim_index].garble_next_reply = (route, body)
            status, _ = await coordinator.teardown({"session_id": "shape"})
            assert status == 200
        else:
            shards[victim_index].garble_next_reply = (route, body)
            status, outcome = await coordinator.establish(request)
            assert status == 200
            outcome = json.loads(outcome)
            assert (outcome["success"], outcome["reason"]) == (
                False,
                "shard_unreachable",
            )
        assert shards[victim_index].garble_next_reply is None  # it was read
        assert "shape" not in coordinator.sessions
        owed = coordinator.pending_teardowns.get("shape", [])
        assert (victim_index in owed) == may_have_applied
        assert_tiers_agree(coordinator, shards)
        await coordinator.flush_pending_teardowns()
        assert not coordinator.pending_teardowns
        for shard in shards:
            await shard.reap(now=float("inf"))
            assert not shard.service.leases.pending(), shard.label
            assert "shape" not in shard.service.sessions, shard.label
        assert_cluster_clean(shards, session_ids=["shape"])
        report = reconcile_shard_events(
            {shard.label: list(shard.log) for shard in shards}
        )
        assert report.ok, report.describe()
        for label, per_resource in report.outstanding.items():
            assert not per_resource, (label, per_resource)

    for service_name, domain, victim_index in cases:
        asyncio.run(scenario(service_name, domain, victim_index))


def test_cross_tier_check_flags_a_committed_slice_the_router_forgot():
    committed = {"cluster": True}
    shard_sessions = {
        0: {"held": committed, "owed": committed, "local": {"service": "S2"}},
        1: {"held": committed},
    }
    assert not cross_tier_violations(
        {"held": {"shards": [0, 1]}}, {"owed": [0]}, shard_sessions
    )
    assert cross_tier_violations(
        {"held": {"shards": [1]}}, {"owed": [1]}, shard_sessions
    ) == [
        "shard 0: session held is committed but neither held nor owed a "
        "teardown by the router",
        "shard 0: session owed is committed but neither held nor owed a "
        "teardown by the router",
    ]


#: Replies ServiceClient must refuse with a ProtocolError, never a hang.
GARBLED_REPLIES = [
    b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n{}" % (MAX_BODY_BYTES + 1),
    b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: 17\r\n\r\n<html>bad gateway",
]


async def _commit_against(reply, expected):
    """``client.commit`` against a server answering ``reply`` (None: it
    closes without a byte) must raise ``expected`` within a second."""
    async def answer(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        if reply is not None:
            writer.write(reply)
            await writer.drain()
            await reader.read()  # hold the socket open until the client closes
        writer.close()

    server = await asyncio.start_server(answer, "127.0.0.1", 0)
    client = ServiceClient("127.0.0.1", server.sockets[0].getsockname()[1])
    try:
        with pytest.raises(expected):
            await asyncio.wait_for(client.commit("lease-1"), timeout=1.0)
    finally:
        await client.aclose()
        server.close()
        await server.wait_closed()


@pytest.mark.parametrize("reply", GARBLED_REPLIES)
def test_service_client_refuses_a_garbled_reply(reply):
    asyncio.run(_commit_against(reply, ProtocolError))


def test_a_silent_close_on_a_fresh_socket_is_unreachable():
    """No retry is safe on a fresh socket, so the error must be one the
    router reads as an unknown outcome."""
    asyncio.run(_commit_against(None, UNREACHABLE))


def test_a_lost_teardown_reply_is_settled_by_a_404():
    """The shard tore the session down; the retry finds nothing and settles."""
    async def scenario():
        shards = make_local_shards(2)
        coordinator = ClusterCoordinator(shards, seed=7)
        status, body = await coordinator.establish(
            {"service": "S2", "domain": "D1", "session_id": "s"}
        )
        assert json.loads(body)["success"] is True
        shards[1].lose_next_reply = "/v1/teardown"
        status, _ = await coordinator.teardown({"session_id": "s"})
        assert status == 200
        assert coordinator.pending_teardowns == {"s": [1]}
        assert await coordinator.flush_pending_teardowns() == 0
        assert not coordinator.pending_teardowns
        assert_cluster_clean(shards, session_ids=["s"])

    asyncio.run(scenario())


def test_unknown_session_teardown_is_404_multi_shard():
    async def scenario():
        shards = make_local_shards(2)
        coordinator = ClusterCoordinator(shards, seed=7)
        status, body = await coordinator.teardown({"session_id": "ghost"})
        assert status == 404

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# a shard that reads a request and never answers


#: The exchange bound the stall tests run the router with (seconds).
STALL_TIMEOUT = 0.2

#: Per case, the most a stalled establish or teardown may take beyond
#: one bound per unanswered exchange, and the guard that fails a case
#: whose router waits on a silent shard without a bound.
STALL_SLACK = 1.0
STALL_GUARD = 5.0


class StallingShard:
    """A shard daemon on a real socket that can go silent on some paths.

    Each request is read with the codec and applied through the
    service's own route table (:meth:`ReservationService.handle`), then
    answered -- except the next request to each path in ``stall``, which
    is applied and never answered: the server waits for the caller to
    hang up.  ``draining`` is the daemon's drain flag; ``stalled`` lists
    the paths left unanswered, in order.
    """

    def __init__(self, index: int, shard_count: int):
        self.index = index
        self.label = f"stalling-{index}"
        self.service = ReservationService(
            DaemonConfig(seed=7, shard_index=index, shard_count=shard_count)
        )
        self.stall = set()
        self.draining = False
        self.stalled = []
        self._server = None
        #: Open connections: writer -> the task serving it.
        self._connections = {}

    async def start(self) -> HttpShardClient:
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        port = self._server.sockets[0].getsockname()[1]
        return HttpShardClient(self.index, "127.0.0.1", port)

    async def _serve(self, reader, writer):
        self._connections[writer] = asyncio.current_task()
        try:
            while (request := await read_request(reader)) is not None:
                status, document = self.service.handle(
                    request.method,
                    request.path,
                    request.query,
                    request.json(),
                    draining=self.draining,
                )
                if request.path in self.stall:
                    self.stall.discard(request.path)
                    self.stalled.append(request.path)
                    await reader.read()
                    return
                writer.write(json_response_bytes(status, document, close=False))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            del self._connections[writer]
            writer.close()

    async def stop(self):
        """Close the listener and every connection, and await their tasks."""
        self._server.close()
        handlers = list(self._connections.values())
        for writer in list(self._connections):
            writer.close()
        await asyncio.gather(*handlers, return_exceptions=True)
        await self._server.wait_closed()


STALLED_ROUTES = [
    "/v1/availability", "/v1/reserve", "/v1/commit", "/v1/abort", "/v1/teardown"
]


async def _stalled_exchange(
    shard_count, route, service_name, domain, involved, victim
):
    """Stall ``victim`` on ``route``; the router must settle within bounds.

    ``involved`` are the shards the session commits on, in order.
    """
    servers = [StallingShard(index, shard_count) for index in range(shard_count)]
    coordinator = ClusterCoordinator(
        [await server.start() for server in servers], seed=7
    )
    request = {"service": service_name, "domain": domain, "session_id": "silent"}
    #: Shards that may hold the session after an unanswered exchange.
    owed = set()
    try:
        if route == "/v1/teardown":
            _, outcome = await coordinator.establish(request)
            assert json.loads(outcome)["success"] is True
            servers[victim].stall.add(route)
            started = time.monotonic()
            status, _ = await coordinator.teardown({"session_id": "silent"})
            owed.add(victim)
        else:
            servers[victim].stall.add(route)
            if route == "/v1/abort":
                # Something must fail after the victim holds its lease: a
                # later shard refusing its reserve, or, when the victim
                # reserves last, an earlier shard's silent commit.
                later = [index for index in involved if index > victim]
                if later:
                    servers[later[0]].draining = True
                else:
                    servers[involved[0]].stall.add("/v1/commit")
                    owed.add(involved[0])
            elif route == "/v1/commit":
                # The victim would leave an abort unanswered too; the
                # router must not send it one (a second bound under the
                # admission lock).
                servers[victim].stall.add("/v1/abort")
                owed.add(victim)
            started = time.monotonic()
            status, outcome = await coordinator.establish(request)
            assert json.loads(outcome)["success"] is False
        elapsed = time.monotonic() - started
        assert status == 200
        stalls = sum(len(server.stalled) for server in servers)
        assert servers[victim].stalled == [route]
        assert elapsed < stalls * STALL_TIMEOUT + STALL_SLACK, (elapsed, stalls)
        assert "silent" not in coordinator.sessions
        assert set(coordinator.pending_teardowns.get("silent", [])) == owed
        assert_tiers_agree(coordinator, servers)
        for server in servers:
            server.draining = False
        await coordinator.flush_pending_teardowns()
        assert not coordinator.pending_teardowns
        for server in servers:
            server.service.reap_expired_leases(float("inf"))
            assert not server.service.leases.pending(), server.label
            assert "silent" not in server.service.sessions, server.label
        assert_cluster_clean(servers, session_ids=["silent"])
        assert_tiers_agree(coordinator, servers)
    finally:
        await coordinator.aclose()
        for server in servers:
            await server.stop()


@pytest.mark.parametrize("shard_count", [2, 3])
@pytest.mark.parametrize("route", STALLED_ROUTES)
def test_a_silent_shard_is_an_unknown_outcome_not_a_hang(
    monkeypatch, shard_count, route
):
    """A shard reads the request, applies it, and never answers.

    Over real sockets, the router gives up after ``EXCHANGE_TIMEOUT``
    and reads the exchange as unknown: establish and teardown return
    within the bound, a debt is booked exactly for a silent commit or
    teardown, a shard whose commit went unanswered is sent no abort,
    and one anti-entropy pass and a reap leave every shard quiescent.
    """
    monkeypatch.setattr(
        cluster_router, "EXCHANGE_TIMEOUT", STALL_TIMEOUT, raising=False
    )
    cases = [
        (service_name, domain, involved, victim)
        for service_name, domain, involved in _cross_shard_commits(shard_count)
        for victim in involved
    ]
    assert {case[-1] for case in cases} == set(range(shard_count))

    async def guarded(case):
        await asyncio.wait_for(
            _stalled_exchange(shard_count, route, *case), STALL_GUARD
        )

    for case in cases:
        asyncio.run(guarded(case))


# ---------------------------------------------------------------------------
# the 2PC wire endpoints on a daemon


def test_reserve_commit_abort_over_http():
    async def scenario():
        daemon = ReservationDaemon(DaemonConfig(port=0, seed=3, lease_ttl=30.0))
        await daemon.start()
        try:
            client = ServiceClient("127.0.0.1", daemon.port)
            availability = await client.availability()
            assert availability["resources"]
            rid, fields = next(iter(sorted(availability["resources"].items())))
            amount = min(1.0, fields["available"] / 2)
            # reserve -> commit
            outcome = await client.reserve("lease-a", {rid: amount})
            assert outcome["reserved"] is True
            committed = await client.commit(
                outcome["lease_id"], session={"service": "S1", "domain": "D3"}
            )
            assert committed["committed"] is True
            state = await client.query()
            assert state["shard"]["lease_counters"]["committed"] == 1
            released = await client.teardown("lease-a")
            assert released["released"] > 0
            # reserve -> abort
            outcome = await client.reserve("lease-b", {rid: amount})
            aborted = await client.abort(outcome["lease_id"])
            assert aborted["aborted"] is True and aborted["released"] > 0
            # abort is idempotent; commit of an unknown lease is 404
            again = await client.abort(outcome["lease_id"])
            assert again["aborted"] is False
            with pytest.raises(ServiceClientError) as unknown:
                await client.commit("no-such-lease")
            assert unknown.value.status == 404
            # unknown resource is a 400
            with pytest.raises(ServiceClientError) as bad:
                await client.reserve("lease-c", {"cpu:H999": 1.0})
            assert bad.value.status == 400
            await client.aclose()
            report = capacity_conservation(
                daemon.service.grid.registry, daemon.service.grid.proxies
            )
            assert report.ok, report.describe()
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())


def test_sharded_daemon_refuses_unowned_resources():
    async def scenario():
        daemon = ReservationDaemon(
            DaemonConfig(port=0, seed=3, shard_index=0, shard_count=3)
        )
        await daemon.start()
        try:
            client = ServiceClient("127.0.0.1", daemon.port)
            shard_map = daemon.service.shard_map
            all_ids = daemon.service.grid.registry.resource_ids()
            foreign = next(
                rid for rid in all_ids if shard_map.shard_of(rid) != 0
            )
            with pytest.raises(ServiceClientError) as unowned:
                await client.reserve("s-x", {foreign: 1.0})
            assert unowned.value.status == 409
            # A placement touching another shard's resources is refused
            # on every route that plans one, before a broker is touched.
            # (S1/D3 crosses shards at this seed; S1/D7 is wholly shard 0's.)
            crossing = {"service": "S1", "domain": "D3"}
            mine = min((await client.availability())["resources"])
            held = await client.reserve("s-c", {mine: 1.0})
            await client.commit(held["lease_id"], session=crossing)
            for path, payload in (
                ("/v1/establish", crossing),
                ("/v1/establish_batch",
                 {"arrivals": [{"service": "S1", "domain": "D7"}, crossing]}),
                ("/v1/renegotiate", {"session_id": "s-c"}),
            ):
                refused = await client.request("POST", path, payload)
                assert refused.status == 409, (path, refused.body)
            await client.teardown("s-c")
            daemon.service.grid.registry.assert_quiescent()
            local = await client.establish(service="S1", domain="D7")
            assert local["success"] is True
            # availability reports only the owned slice
            availability = await client.availability()
            assert availability["shard"] == 0
            for rid in availability["resources"]:
                assert shard_map.shard_of(rid) == 0
            await client.aclose()
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())


def test_expired_lease_is_reaped_by_the_daemon():
    async def scenario():
        daemon = ReservationDaemon(DaemonConfig(port=0, seed=3, lease_ttl=0.05))
        await daemon.start()
        try:
            client = ServiceClient("127.0.0.1", daemon.port)
            availability = await client.availability()
            rid, fields = next(iter(sorted(availability["resources"].items())))
            outcome = await client.reserve("orphan", {rid: 1.0})
            assert outcome["reserved"] is True
            deadline = asyncio.get_running_loop().time() + 5.0
            while daemon.service.lease_counters["expired"] == 0:
                assert asyncio.get_running_loop().time() < deadline, (
                    "reaper never fired"
                )
                await asyncio.sleep(0.02)
            # The lease is gone and its capacity is back.
            with pytest.raises(ServiceClientError) as late:
                await client.commit(outcome["lease_id"])
            assert late.value.status == 404
            report = capacity_conservation(
                daemon.service.grid.registry, daemon.service.grid.proxies
            )
            assert report.ok, report.describe()
            assert daemon.service.log.count("lease.expired") == 1
            await client.aclose()
        finally:
            await daemon.shutdown()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# the scoped availability request (the router's phase 1)


def _scoped_shard():
    """Shard 0 of 3 at grid seed 11, and the ids a test names on it:
    ``mine`` (its cpu and path resources, sorted), ``link`` (a link it
    owns) and ``foreign`` (a path another shard owns)."""
    shard = make_local_shards(3, seed=11)[0]
    service = shard.service
    addressable_ids = {
        broker.resource_id
        for brokers in (service.grid.cpu_brokers, service.grid.path_brokers)
        for broker in brokers.values()
    }
    owned = service._owned_resources
    ids = {
        "mine": sorted(addressable_ids & owned),
        "link": min(owned - addressable_ids),
        "foreign": min(addressable_ids - owned),
    }
    return shard, ids


def _report_log_sizes(service):
    return {
        broker.resource_id: len(broker.history._reports)
        for broker in service.grid.registry.brokers()
    }


SCOPED_REFUSALS = [
    pytest.param("", 400, id="empty"),
    pytest.param("cpu:H99", 400, id="unknown"),
    pytest.param("$mine,cpu:H99", 400, id="unknown-after-a-valid-id"),
    pytest.param("$link", 400, id="link"),
    pytest.param("$mine,$mine", 400, id="repeated"),
    pytest.param("$mine,$foreign", 409, id="foreign"),
]


@pytest.mark.parametrize("resources,status", SCOPED_REFUSALS)
def test_a_refused_scoped_request_observes_nothing(resources, status):
    """Every named id is checked before any broker is observed: a refusal
    writes no availability report and emits no event."""
    shard, ids = _scoped_shard()
    resources = (
        resources.replace("$mine", ids["mine"][0])
        .replace("$link", ids["link"])
        .replace("$foreign", ids["foreign"])
    )
    before = _report_log_sizes(shard.service)

    response = asyncio.run(
        shard.forward_raw("GET", f"/v1/availability?resources={resources}", None)
    )

    assert response.status == status, response.body
    assert "error" in response.json()
    assert _report_log_sizes(shard.service) == before
    assert len(shard.log) == 0


def test_a_scoped_reply_holds_exactly_the_named_resources():
    shard, ids = _scoped_shard()
    named = [ids["mine"][0], ids["mine"][-1]]
    before = _report_log_sizes(shard.service)

    document = asyncio.run(shard.availability(named))

    assert list(document["resources"]) == named
    assert (document["shard"], document["shard_count"]) == (0, 3)
    after = _report_log_sizes(shard.service)
    grew = {rid: after[rid] - before[rid] for rid in after}
    assert grew == {rid: int(rid in named) for rid in after}
    assert [event.resource for event in shard.log] == named
    assert {event.kind for event in shard.log} == {"broker.probe"}


def test_the_unscoped_request_still_answers_the_whole_owned_slice():
    shard, ids = _scoped_shard()

    document = asyncio.run(shard.availability())

    assert set(document) == {"shard", "shard_count", "seed", "resources"}
    assert sorted(document["resources"]) == ids["mine"]
    assert len(shard.log) == len(ids["mine"])


def test_the_scoped_request_over_http():
    """The router's target crosses the wire: a scoped reply, the unscoped
    one, and a foreign id's 409."""

    async def scenario():
        daemon = ReservationDaemon(
            DaemonConfig(port=0, seed=11, shard_index=0, shard_count=3)
        )
        await daemon.start()
        shard = HttpShardClient(0, "127.0.0.1", daemon.port)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            owned = sorted((await client.availability())["resources"])
            named = owned[1:3]
            scoped = await shard.availability(named)
            assert list(scoped["resources"]) == named
            # cpu:H2 is shard 1's at this seed.
            with pytest.raises(ServiceClientError) as refused:
                await shard.availability([named[0], "cpu:H2"])
            assert refused.value.status == 409
        finally:
            await client.aclose()
            await shard.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_the_reachability_gauge_follows_a_shard_down_and_back():
    """The gauge is written on a flip only, and reads the latest verdict."""
    service_name, domain, _ = _cross_shard_commits(2)[0]
    shards = make_local_shards(2)
    coordinator = ClusterCoordinator(shards, seed=7)

    def reachable(index):
        gauges = parse_exposition(coordinator.metrics_exposition()).gauges
        return gauges[f'repro_cluster_shard_reachable{{shard="shard-{index}"}}']

    async def establish(session_id):
        status, body = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": session_id}
        )
        assert status == 200
        return json.loads(body)

    assert (reachable(0), reachable(1)) == (1.0, 1.0)
    shards[1].crashed = True
    outcome = asyncio.run(establish("while-down"))
    assert (outcome["success"], outcome["reason"]) == (False, "shard_unreachable")
    assert (reachable(0), reachable(1)) == (1.0, 0.0)
    shards[1].crashed = False
    assert asyncio.run(establish("after-recovery"))["success"] is True
    assert (reachable(0), reachable(1)) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# offline reconciliation


def _grant(resource, requested, *, session="s", available=100.0, shard=None):
    attributes = {"requested": requested, "available": available, "capacity": 100.0}
    return {
        "kind": "broker.grant",
        "seq": 1,
        "wall": 0.0,
        "session": session,
        "resource": resource,
        "attributes": attributes,
    }


def _release(resource, amount, *, session="s"):
    return {
        "kind": "broker.release",
        "seq": 2,
        "wall": 0.0,
        "session": session,
        "resource": resource,
        "attributes": {"amount": amount},
    }


def test_reconcile_flags_double_release():
    report = reconcile_shard_events({"a": [_release("cpu:H1", 5.0)]})
    assert not report.ok
    assert "double release" in report.violations[0]


def test_reconcile_flags_exclusive_ownership_breach():
    report = reconcile_shard_events(
        {
            "a": [_grant("cpu:H1", 1.0, session="s1")],
            "b": [_grant("cpu:H1", 1.0, session="s2")],
        }
    )
    assert not report.ok
    assert "exclusive" in report.violations[0]


def test_reconcile_flags_leaked_aborted_lease():
    events = [
        _grant("cpu:H1", 3.0),
        {
            "kind": "lease.aborted",
            "seq": 3,
            "wall": 0.0,
            "session": "s",
            "resource": None,
            "attributes": {},
        },
    ]
    report = reconcile_shard_events({"a": events})
    assert not report.ok
    assert "lease leak" in report.violations[0]


def test_reconcile_flags_over_grant():
    report = reconcile_shard_events({"a": [_grant("cpu:H1", 500.0)]})
    assert not report.ok
    assert "over-grant" in report.violations[0]


def test_reconcile_accepts_balanced_books_and_counts_cross_shard():
    report = reconcile_shard_events(
        {
            "a": [_grant("cpu:H1", 3.0), _release("cpu:H1", 3.0)],
            "b": [_grant("cpu:H2", 2.0)],
        }
    )
    assert report.ok, report.describe()
    assert report.outstanding["b"] == {"cpu:H2": 2.0}
    assert report.cross_shard_sessions == 1  # "s" touched both shards


def test_reconcile_truncated_log_skips_balance_checks():
    # A ring's tail: the grant this release pairs with was evicted.
    report = reconcile_shard_events(
        {"a": [_release("cpu:H1", 5.0)], "b": [_release("cpu:H2", 5.0)]},
        partial={"a"},
    )
    assert report.truncated == ["a"]
    assert len(report.violations) == 1
    assert report.violations[0].startswith("b: cpu:H2 released 5")


def test_reconcile_cli_reads_a_wrapped_flight_dump_as_a_tail(tmp_path):
    from repro.obs.cli import main as obs_main

    def dump(name, events, dropped):
        document = {"schema_version": 4, "events": events}
        if dropped:
            document["events_dropped"] = dropped
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    wrapped = dump("wrapped.json", [_release("cpu:H1", 5.0)], dropped=40)
    assert obs_main(["reconcile", wrapped]) == 0
    whole = dump("whole.json", [_release("cpu:H1", 5.0)], dropped=0)
    assert obs_main(["reconcile", whole]) == 1


def test_reconcile_cli_gates_on_violations(tmp_path):
    from repro.obs.cli import main as obs_main

    clean = {
        "schema_version": 4,
        "events": [_grant("cpu:H1", 3.0), _release("cpu:H1", 3.0)],
    }
    dirty = {"schema_version": 4, "events": [_release("cpu:H2", 5.0)]}
    clean_path = tmp_path / "shard0.json"
    dirty_path = tmp_path / "shard1.json"
    clean_path.write_text(json.dumps(clean))
    dirty_path.write_text(json.dumps(dirty))
    assert obs_main(["reconcile", str(clean_path)]) == 0
    assert obs_main(["reconcile", str(clean_path), str(dirty_path)]) == 1
