"""The sharded cluster: shard map, router, reconciliation, identity.

Covers the PR's acceptance properties: the shard map partitions every
resource exactly once and deterministically, a single-shard cluster
router runs the cross-shard protocol and still answers establishes and
teardowns byte-identical to the bare daemon (and hence to the in-process
coordinator), cross-shard establishments either commit on
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
import subprocess
import sys
import time
from types import SimpleNamespace

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
    ServiceDrainingError,
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
from repro.sim.workload import SessionArrival
from repro.des.engine import Environment
from repro.des.rng import RandomStreams

from tests.test_daemon_footprint import boot, stop
from tests.test_examples import REPO, subprocess_env
from tests.test_service_daemon import VALID_PAIRS, _seeded_operations, start_daemon


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
    are no JSON, or JSON of the wrong shape.  ``hold_next_request`` names
    a path whose next call is still in flight when the router's exchange
    fails: the shard has applied nothing, and ``(path, payload)`` waits
    in ``held`` until :meth:`deliver_held` lands it late.
    ``refuse_next_request`` names a path whose next call the shard
    refuses with a 404 without applying it.  A fault names a path and
    matches a request target with or without a query string.
    ``requests`` lists the path of every request sent, in order.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.crashed = False
        self.crash_on_next_reserve = False
        self.lose_next_reply = None
        self.garble_next_reply = None
        self.hold_next_request = None
        self.held = None
        self.refuse_next_request = None
        self.requests = []

    def _check_alive(self):
        if self.crashed:
            raise ConnectionError(f"shard {self.label} is down")

    async def send(self, method, target, payload):
        self._check_alive()
        await asyncio.sleep(0)  # the shard may crash while the request travels
        self._check_alive()
        path = target.partition("?")[0]
        self.requests.append(path)
        if path == self.hold_next_request:
            self.hold_next_request = None
            self.held = (path, payload)
            raise ConnectionError(f"shard {self.label}: {path} still in flight")
        if path == self.refuse_next_request:
            self.refuse_next_request = None
            return ServiceResponse(404, {}, json.dumps({"error": "unknown lease"}).encode())
        response = await super().send(method, target, payload)
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

    def deliver_held(self):
        """Apply the held request now, late: the shard's ``(status, document)``."""
        path, payload = self.held
        self.held = None
        with self._logged():
            return self.service.handle("POST", path, {}, payload)


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
    for domain in topology.domains.values():
        assert a.shard_of_node(domain.name) == a.shard_of_node(domain.proxy_host)


def test_shard_map_rejects_bad_counts_and_unknown_resources():
    topology = _topology()
    with pytest.raises(ModelError):
        ShardMap.from_topology(topology, 0)
    with pytest.raises(ModelError):
        ShardMap.from_topology(topology, 99)
    shard_map = ShardMap.from_topology(topology, 2)
    with pytest.raises(ModelError):
        shard_map.shard_of("link:L999")


def test_a_resource_lives_on_the_shard_of_the_proxy_that_owns_it():
    """One ownership rule: the grid's proxies and the shard map place
    every cpu and path resource on the same node, at every shard count."""
    grid = GridEnvironment(Environment(), RandomStreams(0))
    owners = {
        broker.resource_id: node
        for brokers in (grid.cpu_brokers, grid.path_brokers)
        for broker in brokers.values()
        for node, proxy in grid.proxies.items()
        if proxy.owns(broker.resource_id)
    }
    assert len(owners) == len(grid.cpu_brokers) + len(grid.path_brokers)
    for count in (1, 2, 3, 4):
        shard_map = ShardMap.from_topology(grid.topology, count)
        for resource_id, node in owners.items():
            assert shard_map.shard_of(resource_id) == shard_map.shard_of_node(node)


@pytest.mark.parametrize("field, value", [("algorithm", "nope"), ("contention_index", "bogus")])
def test_router_refuses_what_the_daemon_refuses(field, value):
    with pytest.raises(ModelError):
        DaemonConfig(**{field: value})
    with pytest.raises(ModelError):
        ClusterConfig(shards=(("127.0.0.1", 1),), **{field: value})
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
    """Over real sockets, a one-shard router's establish and teardown
    bodies are the daemon's own; a ``?session_id=`` read answers from the
    router's session table, as at every shard count."""
    operations = _seeded_operations(count=10)

    service = ReservationService(DaemonConfig(seed=23))
    documents = [(200, getattr(service, op)(payload)) for op, payload in operations]
    # One live session's record, and the 404 of an unknown one.
    reads = [sorted(service.sessions)[0], "no-such"]
    record = service.sessions[reads[0]]
    documents.append((200, {
        "session_id": reads[0],
        **{key: record[key] for key in ("service", "domain", "level")},
        "shards": [0],
    }))
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


def test_a_single_shard_router_counts_a_draining_shard_as_draining():
    """A one-shard router refuses what its draining shard will not hold as
    a router of any size does: a ``shard_draining`` refusal, from a shard
    that is up, not ``shard_unreachable``."""
    shard = LocalShardClient(0, ReservationService(DaemonConfig(seed=23)))
    shard.draining = True
    coordinator = ClusterCoordinator([shard], seed=23)
    payload = {"service": "S2", "domain": "D1", "session_id": "drained"}

    status, body = asyncio.run(coordinator.establish(payload))
    assert status == 200
    outcome = json.loads(body)
    assert (outcome["success"], outcome["reason"]) == (False, "shard_draining")
    assert coordinator.reject_reasons == {"shard_draining": 1}
    assert coordinator.shard_reachable == {0: True}
    samples = parse_exposition(coordinator.metrics_exposition())
    assert samples.gauges['repro_cluster_shard_reachable{shard="shard-0"}'] == 1.0


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


def test_a_draining_router_still_tears_a_session_down():
    """Drain refuses new work, never the freeing of old work: a draining
    router serves ``/v1/teardown``, as a draining daemon does, so the
    shards free the session's capacity at once."""
    service_name, domain, involved = _cross_shard_commits(3)[0]
    shards = make_local_shards(3)

    def held():
        return sum(
            len(proxy.held_for("drained"))
            for shard in shards
            for proxy in shard.service.grid.proxies.values()
        )

    async def scenario():
        router = ClusterDaemon(
            ClusterConfig(shards=(("127.0.0.1", 1),) * 3, port=0, seed=7),
            coordinator=ClusterCoordinator(shards, seed=7),
        )
        await router.start()
        client = ServiceClient("127.0.0.1", router.port)
        try:
            outcome = await client.establish(
                service=service_name, domain=domain, session_id="drained"
            )
            assert outcome["success"] is True
            holding = held()
            assert holding > 0
            router._draining = True
            with pytest.raises(ServiceDrainingError):
                await client.establish(service=service_name, domain=domain)
            released = await client.teardown("drained")
        finally:
            await client.aclose()
            await router.shutdown()
        assert released == {"session_id": "drained", "released": holding}

    asyncio.run(scenario())
    assert_cluster_clean(shards, session_ids=["drained"])


def test_a_draining_router_resolves_the_path_before_refusing():
    """A draining router answers a path it has no route for as a draining
    daemon does, 404, and one it does not serve 501; only an admission
    gets the drain refusal."""
    expected = ReservationService(DaemonConfig(seed=7)).handle(
        "POST", "/v1/nonsense", {}, {}, draining=True
    )

    async def scenario():
        router = ClusterDaemon(
            ClusterConfig(shards=(("127.0.0.1", 1),), port=0, seed=7),
            coordinator=ClusterCoordinator(make_local_shards(1), seed=7),
        )
        await router.start()
        router._draining = True
        client = ServiceClient("127.0.0.1", router.port)
        try:
            return [
                await client.request("POST", path, {})
                for path in ("/v1/nonsense", "/v1/renegotiate", "/v1/establish")
            ]
        finally:
            await client.aclose()
            await router.shutdown()

    unknown, unsupported, admission = asyncio.run(scenario())
    assert (unknown.status, unknown.json()) == expected == (
        404, {"error": "unknown path '/v1/nonsense'"}
    )
    assert unsupported.status == 501
    assert (admission.status, admission.json()["draining"]) == (503, True)


#: Shards listed to a router: ``(shard_index, shard_count)`` each daemon
#: was started with, None for a default daemon, in the router's order.
MISCONFIGURED = [
    pytest.param([(1, 3), (0, 3), (2, 3)], [
        "local-0: serves shard 1 of 3, listed as shard 0 of 3",
        "local-1: serves shard 0 of 3, listed as shard 1 of 3",
    ], id="swapped"),
    pytest.param([(0, 2), (1, 2), (2, 3)], [
        "local-0: serves shard 0 of 2, listed as shard 0 of 3",
        "local-1: serves shard 1 of 2, listed as shard 1 of 3",
    ], id="wrong-count"),
    pytest.param([None, (1, 2)], [
        "local-0: serves shard 0 of 1, listed as shard 0 of 2",
    ], id="default-of-two"),
    pytest.param([(0, 3)], [
        "local-0: serves shard 0 of 3, listed as shard 0 of 1",
    ], id="one-of-three"),
    pytest.param([(0, 3), (1, 3), (2, 3)], [], id="in-order"),
    pytest.param([None], [], id="one-default"),
]


@pytest.mark.parametrize("started, problems", MISCONFIGURED)
def test_check_reports_a_shard_listed_out_of_place(started, problems):
    """A reachable shard whose ``shard`` section names another index or
    count than its place in the router's list is a boot problem, as is
    a default daemon (shard 0 of 1) among several shards: each still
    answers, but plans for the wrong slice (listed 1, 0, 2, every
    admission of the seeded pairs is refused ``no_feasible_plan``)."""
    shards = [
        LocalShardClient(
            position,
            ReservationService(
                DaemonConfig(seed=7)
                if place is None
                else DaemonConfig(seed=7, shard_index=place[0], shard_count=place[1])
            ),
        )
        for position, place in enumerate(started)
    ]
    coordinator = ClusterCoordinator(shards, seed=7)
    assert asyncio.run(coordinator.check()) == ([], problems)


def test_check_passes_a_one_shard_router_over_a_daemon_it_has_admitted_on():
    """A default daemon is shard 0 of 1 before and after a router
    reserves on it, so a one-shard router passes it both times."""
    shard = LocalShardClient(0, ReservationService(DaemonConfig(seed=7)))
    coordinator = ClusterCoordinator([shard], seed=7)

    async def scenario():
        sections = [(await shard.query())["shard"]]
        checks = [await coordinator.check()]
        _, body = await coordinator.establish({"service": "S2", "domain": "D1"})
        assert json.loads(body)["success"] is True
        sections.append((await shard.query())["shard"])
        checks.append(await coordinator.check())
        return [(section["index"], section["count"]) for section in sections], checks

    assert asyncio.run(scenario()) == ([(0, 1), (0, 1)], [([], []), ([], [])])


def test_repro_cluster_refuses_to_serve_shards_listed_out_of_place():
    """Over two reachable ``repro-serve`` shards listed in swapped order,
    ``repro-cluster`` names both and exits 2 without announcing a port:
    served, it would refuse every admission as a QoS rejection."""
    shards = [
        boot("repro.service.cli", "--seed", "7", "--shard-index", str(index),
             "--shard-count", "2")
        for index in (1, 0)
    ]
    try:
        argv = [sys.executable, "-m", "repro.cluster.cli", "--port", "0", "--seed", "7"]
        for _, port in shards:
            argv += ["--shard", f"127.0.0.1:{port}"]
        router = subprocess.run(
            argv, cwd=REPO, env=subprocess_env(), capture_output=True, text=True,
            timeout=60,
        )
    finally:
        stop(*(process for process, _ in shards))
    (_, first), (_, second) = shards
    assert (router.returncode, router.stdout) == (2, "")
    assert router.stderr.splitlines() == [
        f"repro-cluster: error: 127.0.0.1:{first}: serves shard 1 of 2, "
        "listed as shard 0 of 2",
        f"repro-cluster: error: 127.0.0.1:{second}: serves shard 0 of 2, "
        "listed as shard 1 of 2",
    ]


def test_shard_crash_mid_reserve_is_owed_a_teardown():
    """The first involved shard commits its reserve, then dies before its
    ack reaches the router (the lost ack).  Its reserve carried the
    commit, so the router owes it a teardown, and tears the other
    shard's slice down at once; once the shard is reachable again, the
    anti-entropy pass frees what it committed."""
    service_name, domain, involved = _cross_shard_commits(3)[0]

    async def scenario():
        shards = make_local_shards(3)
        coordinator = ClusterCoordinator(shards, seed=7)
        victim = shards[involved[0]]
        victim.crash_on_next_reserve = True
        status, body = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": "lost"}
        )
        outcome = json.loads(body)
        assert (outcome["success"], outcome["reason"]) == (False, "shard_unreachable")
        assert coordinator.pending_teardowns == {"lost": [victim.index]}
        assert victim.service.sessions["lost"]["cluster"] is True
        for shard in shards:
            assert not shard.service.leases.pending(), shard.label
            if shard is not victim:
                assert "lost" not in shard.service.sessions, shard.label
        assert_tiers_agree(coordinator, shards)
        # Still down: the debt stays owed.
        assert await coordinator.flush_pending_teardowns() == 0
        assert coordinator.pending_teardowns == {"lost": [victim.index]}
        victim.crashed = False
        assert await coordinator.flush_pending_teardowns() > 0
        assert not coordinator.pending_teardowns
        assert_cluster_clean(shards, session_ids=["lost"])
        report = reconcile_shard_events(
            {shard.label: list(shard.log) for shard in shards}
        )
        assert report.ok, report.describe()

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


def _commit_positions(shard_count):
    """``(service, domain, victim)``: every exchange that commits -- each
    involved shard's ``/v1/reserve``, which carries its commit."""
    return [
        (service_name, domain, victim)
        for service_name, domain, involved in _cross_shard_commits(shard_count)
        for victim in involved
    ]


@pytest.mark.parametrize("shard_count", [2, 3])
def test_a_lost_commit_reply_is_torn_down_by_the_anti_entropy_pass(shard_count):
    """A shard applies the exchange that commits -- its reserve, which
    carries the commit -- stays up, and its reply is lost, at every
    involved shard.

    The commit's outcome is unknown to the router: the shard joins the
    session's teardown debt, and the next anti-entropy pass frees the
    committed slice.
    """
    cases = _commit_positions(shard_count)
    assert {victim for _, _, victim in cases} == set(range(shard_count))

    async def scenario(service_name, domain, victim_index):
        shards = make_local_shards(shard_count)
        coordinator = ClusterCoordinator(shards, seed=7)
        victim = shards[victim_index]
        victim.lose_next_reply = "/v1/reserve"
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

    for case in cases:
        asyncio.run(scenario(*case))


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
    ``establish`` and leaving the session committed on the shard.  At
    every involved shard: each one's reserve carries its commit."""
    cases = _commit_positions(shard_count)

    async def scenario(service_name, domain, victim_index):
        shards = make_local_shards(shard_count)
        shards[victim_index].garble_next_reply = ("/v1/reserve", b"<html>bad gateway")
        coordinator = ClusterCoordinator(shards, seed=7)
        status, body = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": "garbled"}
        )
        assert status == 200
        outcome = json.loads(body)
        assert (outcome["success"], outcome["reason"]) == (False, "shard_unreachable")
        await _settle_unknown_commit(coordinator, shards, victim_index, "garbled")

    for case in cases:
        asyncio.run(scenario(*case))


def commit_after_teardown():
    """reserve -> teardown -> commit on one daemon, through its routes:
    the commit's status, and whether the session then exists."""
    service = ReservationService(DaemonConfig(seed=7))
    status, held = service.handle(
        "POST", "/v1/reserve", {}, {"session_id": "late", "demands": {"cpu:H1": 1.0}}
    )
    assert (status, held["reserved"]) == (200, True)
    status, _ = service.handle("POST", "/v1/teardown", {}, {"session_id": "late"})
    assert status == 200
    assert not service.leases.pending()
    status, _ = service.handle("POST", "/v1/commit", {}, {"lease_id": held["lease_id"]})
    report = capacity_conservation(service.grid.registry, service.grid.proxies)
    assert report.ok, report.describe()
    exists = "late" in service.sessions or service.query()["active_sessions"] > 0
    return status, exists


def test_a_commit_after_its_sessions_teardown_creates_no_session():
    """The teardown took the lease with it, so the late commit is a 404
    and no session appears.  The router sends no plain commit, but the
    shard's wire API keeps one, and this is its guarantee
    (``tests/test_protocol_model.py`` patches in a mutant it catches)."""
    assert commit_after_teardown() == (404, False)


def test_a_commit_delivered_after_the_anti_entropy_teardown_is_refused():
    """The first involved shard's reserve, which carries its commit, is
    still in flight when the router gives up on it; the other shard's
    reserve of the same round commits and is torn down.  The anti-entropy
    pass settles the first shard's debt before the reserve lands, and the
    fence refuses it.  (The last shard's: the next test.)"""
    for service_name, domain, involved in _cross_shard_commits(2):
        status, document = asyncio.run(
            _phantom_probe(2, service_name, domain, involved[0])
        )
        assert status == 409, document
        assert "stale router generation" in document["error"]


async def _phantom_probe(shard_count, service_name, domain, victim_index):
    """Hold ``victim_index``'s reserve in flight, settle its debt, then land it.

    Returns the late reserve's ``(status, document)``; asserts that no
    shard ends up holding the session the router never established.
    """
    shards = make_local_shards(shard_count)
    coordinator = ClusterCoordinator(shards, seed=7)
    victim = shards[victim_index]
    victim.hold_next_request = "/v1/reserve"
    status, body = await coordinator.establish(
        {"service": service_name, "domain": domain, "session_id": "late"}
    )
    assert status == 200
    assert json.loads(body)["reason"] == "shard_unreachable"
    assert victim.held is not None
    assert coordinator.pending_teardowns == {"late": [victim.index]}
    # The anti-entropy pass finds nothing there yet (a 404) and settles.
    assert await coordinator.flush_pending_teardowns() == 0
    assert not coordinator.pending_teardowns
    late = victim.deliver_held()
    for shard in shards:
        await shard.reap(now=float("inf"))
        assert "late" not in shard.service.sessions, shard.label
        assert not shard.service.leases.pending(), shard.label
    assert_tiers_agree(coordinator, shards)
    assert_cluster_clean(shards, session_ids=["late"])
    return late


@pytest.mark.parametrize("shard_count", [2, 3])
def test_a_folded_reserve_delivered_after_the_anti_entropy_teardown_is_refused(
    shard_count,
):
    """The last shard's reserve, which carries the commit, is still in
    flight when the router's exchange fails.  The router owes that shard
    a teardown, whose 404 settles the debt before the reserve lands.
    The teardown carried the generation the unknown outcome bumped, so
    the late reserve is below the shard's fence: refused, and no session
    appears that no router owns."""
    for service_name, domain, involved in _cross_shard_commits(shard_count):
        status, document = asyncio.run(
            _phantom_probe(shard_count, service_name, domain, involved[-1])
        )
        assert status == 409, document
        assert "stale router generation" in document["error"]


def test_a_fresh_router_still_admits_on_shards_an_earlier_router_fenced():
    """Generations start at the router's boot time: a new router over
    shards whose fence an earlier router raised is not fenced out."""
    service_name, domain, involved = _cross_shard_commits(3)[0]
    shards = make_local_shards(3)

    async def scenario():
        earlier = ClusterCoordinator(shards, seed=7)
        for index in involved:
            shards[index].lose_next_reply = "/v1/teardown"
        status, body = await earlier.establish(
            {"service": service_name, "domain": domain, "session_id": "first"}
        )
        assert json.loads(body)["success"] is True
        await earlier.teardown({"session_id": "first"})
        await earlier.flush_pending_teardowns()
        assert not earlier.pending_teardowns
        for index in involved:
            assert shards[index].service.core.fence == earlier.generations[index]
            assert shards[index].service.core.fence > 0
        fresh = ClusterCoordinator(shards, seed=7)
        assert all(
            mine > theirs
            for mine, theirs in zip(fresh.generations, earlier.generations)
        )
        status, body = await fresh.establish(
            {"service": service_name, "domain": domain, "session_id": "second"}
        )
        assert json.loads(body)["success"] is True
        status, _ = await fresh.teardown({"session_id": "second"})
        assert status == 200
        assert_cluster_clean(shards, session_ids=["first", "second"])

    asyncio.run(scenario())


def test_a_refused_reserve_holds_nothing_and_its_round_is_torn_down_at_once():
    """A shard that refuses its reserve (a 404, nothing applied) committed
    nothing, and the other shard's slice, committed in the same round, is
    torn down in the next: its capacity is back before any reaper runs,
    and no debt is booked.  At every involved shard."""
    cases = _commit_positions(2)

    async def scenario(service_name, domain, victim_index):
        shards = make_local_shards(2)
        coordinator = ClusterCoordinator(shards, seed=7)
        brokers = {
            shard.index: [b.available for b in shard.service.grid.registry.brokers()]
            for shard in shards
        }
        shards[victim_index].refuse_next_request = "/v1/reserve"
        status, body = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": "refused"}
        )
        assert status == 200
        outcome = json.loads(body)
        assert (outcome["success"], outcome["reason"]) == (False, "shard_error")
        assert shards[victim_index].refuse_next_request is None
        assert "refused" not in coordinator.pending_teardowns
        for shard in shards:
            # No reap has run, and the lease's TTL is far off.
            assert shard.service.lease_counters["expired"] == 0
            assert not shard.service.leases.pending()
            available = [b.available for b in shard.service.grid.registry.brokers()]
            assert available == brokers[shard.index], shard.label
            expected = ["/v1/availability", "/v1/reserve"]
            if shard.index != victim_index:
                expected.append("/v1/teardown")
            assert shard.requests == expected, shard.label
        assert_cluster_clean(shards, session_ids=["refused"])
        assert_tiers_agree(coordinator, shards)

    for case in cases:
        asyncio.run(scenario(*case))


def _three_shard_round(session_id, shards=None, cpu_units=(1.0, 1.0, 1.0), clients=None):
    """An admission over three shards, one owned cpu each: ``cpu_units[i]``
    of it on shard ``i``.

    No placement on the paper's grid spans three shards, so the round is
    handed to ``_admit`` directly.  ``shards`` (each with its
    ``service``) default to three in-process ones, which the router
    reaches through ``clients``, or directly.
    """
    shards = shards or make_local_shards(3)
    coordinator = ClusterCoordinator(clients or shards, seed=7)
    per_shard = {}
    for shard, units in zip(shards, cpu_units):
        owned = shard.service.availability()["resources"]
        cpu = next(rid for rid in sorted(owned) if rid.startswith("cpu:"))
        per_shard[shard.index] = {cpu: units}
    arrival = SessionArrival(session_id, 0.0, "D1", "S2", 1.0, 10.0)
    plan = SimpleNamespace(numeric_level=1)
    return shards, coordinator, arrival, plan, per_shard


def _recording_rounds(coordinator):
    """Record the shards of each round ``coordinator`` sends, in order."""
    rounds = []
    send_round = coordinator._round

    async def recorded(sent):
        rounds.append([shard for shard, _, _ in sent])
        return await send_round(sent)

    coordinator._round = recorded
    return rounds


def test_a_plan_over_three_shards_lands_on_every_shard():
    """Three reserves, each carrying its commit, go out in one round."""
    async def scenario():
        shards, coordinator, arrival, plan, per_shard = _three_shard_round("three")
        rounds = _recording_rounds(coordinator)
        result = await coordinator._admit(arrival, plan, per_shard)
        assert result.success, result
        assert rounds == [[0, 1, 2]]
        assert coordinator.sessions["three"]["shards"] == [0, 1, 2]
        for shard in shards:
            assert shard.service.sessions["three"]["cluster"] is True
            assert shard.service.lease_counters["committed"] == 1
            assert not shard.service.leases.pending()
            (cpu,) = per_shard[shard.index]
            proxy = shard.service.coordinator.proxy_for(cpu)
            assert [r.resource_id for r in proxy.held_for("three")] == [cpu]
        assert_tiers_agree(coordinator, shards)
        assert_cluster_clean(shards)
        status, _ = await coordinator.teardown({"session_id": "three"})
        assert status == 200
        assert_cluster_clean(shards, session_ids=["three"])
        assert_tiers_agree(coordinator, shards)

    asyncio.run(scenario())


def test_a_refusal_on_one_shard_tears_the_others_down_in_one_round():
    """Shard 1 is draining: it refuses its reserve, holding nothing, while
    shards 0 and 2 commit theirs in the same round.  One more round tears
    both committed slices down, and nothing is owed."""

    async def scenario():
        shards, coordinator, arrival, plan, per_shard = _three_shard_round("three")
        shards[1].draining = True
        rounds = _recording_rounds(coordinator)
        result = await coordinator._admit(arrival, plan, per_shard)
        assert (result.success, result.reason) == (False, "shard_draining")
        assert rounds == [[0, 1, 2], [0, 2]]
        assert [shard.requests for shard in shards] == [
            ["/v1/reserve", "/v1/teardown"],
            ["/v1/reserve"],
            ["/v1/reserve", "/v1/teardown"],
        ]
        assert [shard.service.lease_counters["committed"] for shard in shards] == [1, 0, 1]
        for shard in shards:
            assert "three" not in shard.service.sessions, shard.label
            assert not shard.service.leases.pending(), shard.label
        assert "three" not in coordinator.sessions
        assert not coordinator.pending_teardowns
        assert_cluster_clean(shards, session_ids=["three"])
        assert_tiers_agree(coordinator, shards)

    asyncio.run(scenario())


def test_two_refusals_in_one_round_report_the_first_in_shard_order():
    """Two shards of a round refuse, one draining and one short of
    capacity: the admission reports the lower shard's refusal (its
    reason, and its ``failed_resource`` or none), as a chain that stopped
    at the first failure would, whichever of the two it is."""

    async def refused(draining, short):
        cpu_units = [1.0, 1.0, 1.0]
        cpu_units[short] = 1e9
        shards, coordinator, arrival, plan, per_shard = _three_shard_round(
            "two", cpu_units=cpu_units
        )
        shards[draining].draining = True
        result = await coordinator._admit(arrival, plan, per_shard)
        assert not result.success
        assert_cluster_clean(shards, session_ids=["two"])
        assert not coordinator.pending_teardowns
        (cpu,) = per_shard[short]
        return result.reason, result.failed_resource, cpu

    draining_first = asyncio.run(refused(draining=1, short=2))
    assert draining_first[:2] == ("shard_draining", None)
    reason, failed_resource, cpu = asyncio.run(refused(draining=2, short=1))
    assert (reason, failed_resource) == ("admission_failed", cpu)


def test_a_two_shard_admission_is_four_exchanges_in_two_rounds():
    """An admission's availability round, then its reserve round: a
    two-shard one is 2 + 2 exchanges and a one-shard one 1 + 1, each
    round sent at once."""
    placements = {}
    shard_map = ShardMap.from_topology(_topology(7), 3)
    grid = GridEnvironment(Environment(), RandomStreams(7))
    for service_name, domain in VALID_PAIRS:
        involved = {
            shard_map.shard_of(rid)
            for rid in grid.binding_for(service_name, domain).resource_ids()
        }
        placements.setdefault(len(involved), (service_name, domain))
    assert {1, 2} <= set(placements)

    async def scenario(service_name, domain):
        shards = make_local_shards(3)
        coordinator = ClusterCoordinator(shards, seed=7)
        rounds = _recording_rounds(coordinator)
        _, body = await coordinator.establish(
            {"service": service_name, "domain": domain, "session_id": "counted"}
        )
        assert json.loads(body)["success"] is True
        paths = sorted(path for shard in shards for path in shard.requests)
        return [len(round_) for round_ in rounds], paths

    two = asyncio.run(scenario(*placements[2]))
    assert two == ([2, 2], ["/v1/availability"] * 2 + ["/v1/reserve"] * 2)
    one = asyncio.run(scenario(*placements[1]))
    assert one == ([1, 1], ["/v1/availability", "/v1/reserve"])


#: Replies that are valid JSON of the wrong shape, per route; the shard
#: applied the call before answering.  ``"$rid"`` stands for a resource
#: the victim shard owns and the placement needs.  Every reserve carries
#: its commit, so each ``reserve-``, ``commit-`` and ``folded-`` row
#: garbles the reply to a reserve, on every involved shard.
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
    pytest.param(
        "/v1/reserve",
        {"reserved": True, "lease_id": "x", "committed": []},
        id="commit-list",
    ),
    pytest.param(
        "/v1/reserve", {"reserved": True, "lease_id": "x"}, id="folded-no-commit"
    ),
    pytest.param(
        "/v1/reserve", {"reserved": True, "committed": True}, id="folded-no-lease"
    ),
    pytest.param("/v1/teardown", [], id="teardown-list"),
    pytest.param("/v1/teardown", {"released": "many"}, id="teardown-not-a-number"),
]


@pytest.mark.parametrize("shard_count", [2, 3])
@pytest.mark.parametrize("route,reply", WRONG_SHAPES)
def test_a_reply_of_the_wrong_shape_leaks_nothing(shard_count, route, reply):
    """A reply the router cannot read is an unknown outcome, on every route.

    Establishment and teardown answer 200 instead of raising; a call
    that can fail fails as ``shard_unreachable``; a shard that may have
    committed or torn down -- after a reserve, which carries the commit,
    or a teardown -- joins the teardown debt; and after one anti-entropy
    pass and a reap every shard is quiescent.  The garbled teardown hits
    the *first* shard of the session, so the router must still reach the
    others.
    """
    cases = [
        (service_name, domain, victim)
        for service_name, domain, involved in _cross_shard_commits(shard_count)
        for victim in (involved[:1] if route == "/v1/teardown" else involved)
    ]
    assert cases
    may_have_applied = route != "/v1/availability"

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

    for case in cases:
        asyncio.run(scenario(*case))


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
    hang up.  The next request to each path in ``refuse`` is answered
    with a 404 and not applied, as a commit whose lease expired is.
    ``draining`` is the daemon's drain flag; ``stalled`` lists the paths
    left unanswered, in order.
    """

    def __init__(self, index: int, shard_count: int):
        self.index = index
        self.label = f"stalling-{index}"
        self.service = ReservationService(
            DaemonConfig(seed=7, shard_index=index, shard_count=shard_count)
        )
        self.stall = set()
        self.refuse = set()
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
                if request.path in self.refuse:
                    self.refuse.discard(request.path)
                    status, document = 404, {"error": "refused"}
                else:
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

#: Routes of the shard's wire API that no router sends: a reserve
#: carries its commit, and a refused round is torn down.
UNSENT_ROUTES = ("/v1/commit", "/v1/abort")


def _stall_cases(shard_count):
    """``(service, domain, involved, victim)``: each involved shard of each
    cross-shard placement."""
    return [
        (service_name, domain, involved, victim)
        for service_name, domain, involved in _cross_shard_commits(shard_count)
        for victim in involved
    ]


async def _stalled_exchange(shard_count, route, service_name, domain, involved, victim):
    """Stall ``victim`` on ``route``; the router must settle within bounds.

    ``involved`` are the shards the session commits on, in order.  On a
    route no router sends, the admission goes on as if the shard were
    not silent: admitted for ``/v1/commit``, and for ``/v1/abort`` refused
    by another involved shard that drains, the victim's committed slice
    torn down.
    """
    servers = [StallingShard(index, shard_count) for index in range(shard_count)]
    coordinator = ClusterCoordinator(
        [await server.start() for server in servers], seed=7
    )
    request = {"service": service_name, "domain": domain, "session_id": "silent"}
    #: Shards that may hold the session after an unanswered exchange.
    owed = {victim} if route in ("/v1/reserve", "/v1/teardown") else set()
    try:
        if route == "/v1/teardown":
            _, outcome = await coordinator.establish(request)
            assert json.loads(outcome)["success"] is True
        servers[victim].stall.add(route)
        if route == "/v1/abort":
            other = next(index for index in involved if index != victim)
            servers[other].draining = True
        started = time.monotonic()
        if route == "/v1/teardown":
            status, _ = await coordinator.teardown({"session_id": "silent"})
        else:
            status, outcome = await coordinator.establish(request)
            admitted = json.loads(outcome)["success"]
            assert admitted is (route == "/v1/commit")
        elapsed = time.monotonic() - started
        assert status == 200
        stalls = sum(len(server.stalled) for server in servers)
        assert servers[victim].stalled == ([] if route in UNSENT_ROUTES else [route])
        assert elapsed < stalls * STALL_TIMEOUT + STALL_SLACK, (elapsed, stalls)
        if route == "/v1/commit":
            status, _ = await coordinator.teardown({"session_id": "silent"})
            assert status == 200
        assert "silent" not in coordinator.sessions
        assert set(coordinator.pending_teardowns.get("silent", [])) == owed
        assert_tiers_agree(coordinator, servers)
        for server in servers:
            server.draining = False
            server.stall.clear()
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
    within the bound, a debt is booked exactly for a silent reserve,
    which carries the commit, or teardown, and one anti-entropy pass and
    a reap leave every shard quiescent.  The router sends no
    ``/v1/commit`` and no ``/v1/abort``, so a shard silent on those
    costs an admission nothing, admitted or refused.
    """
    monkeypatch.setattr(
        cluster_router, "EXCHANGE_TIMEOUT", STALL_TIMEOUT, raising=False
    )
    cases = _stall_cases(shard_count)
    assert {case[-1] for case in cases} == set(range(shard_count))

    async def guarded(case):
        await asyncio.wait_for(
            _stalled_exchange(shard_count, route, *case), STALL_GUARD
        )

    for case in cases:
        asyncio.run(guarded(case))


#: The exchange bound of the fan-out tests: 1.5 bounds leave 0.25 s for
#: the answered exchanges around the silent ones.
FAN_OUT_TIMEOUT = 0.5


async def _silent_pair(placement):
    """A 3-shard cluster over stalling shards, for a placement on two of them."""
    service_name, domain, involved = placement
    servers = [StallingShard(index, 3) for index in range(3)]
    coordinator = ClusterCoordinator(
        [await server.start() for server in servers], seed=7
    )
    request = {"service": service_name, "domain": domain, "session_id": "silent"}
    return servers, coordinator, request, involved


async def _settle_silent(servers, coordinator):
    for server in servers:
        server.stall.clear()
    await coordinator.flush_pending_teardowns()
    assert not coordinator.pending_teardowns
    for server in servers:
        server.service.reap_expired_leases(float("inf"))
    assert_cluster_clean(servers, session_ids=["silent"])
    assert_tiers_agree(coordinator, servers)
    await coordinator.aclose()
    for server in servers:
        await server.stop()


def test_a_teardown_waits_on_its_silent_shards_together(monkeypatch):
    """Both involved shards of a 3-shard cluster go silent on teardown:
    the router waits one bound for both, not one bound each, and books
    both debts."""
    monkeypatch.setattr(cluster_router, "EXCHANGE_TIMEOUT", FAN_OUT_TIMEOUT)
    placement = _cross_shard_commits(3)[0]

    async def scenario():
        servers, coordinator, request, involved = await _silent_pair(placement)
        _, outcome = await coordinator.establish(request)
        assert json.loads(outcome)["success"] is True
        for index in involved:
            servers[index].stall.add("/v1/teardown")
        started = time.monotonic()
        status, _ = await coordinator.teardown({"session_id": "silent"})
        elapsed = time.monotonic() - started
        assert status == 200
        assert elapsed < 1.5 * FAN_OUT_TIMEOUT, elapsed
        assert coordinator.pending_teardowns == {"silent": list(involved)}
        await _settle_silent(servers, coordinator)

    asyncio.run(asyncio.wait_for(scenario(), STALL_GUARD))


def test_a_query_waits_on_its_silent_shards_together(monkeypatch):
    """Two of three shards go silent on ``/v1/query``: the cluster
    document and the boot check each wait one bound for both, not one
    bound each, mark both shards unreachable and keep shard order."""
    monkeypatch.setattr(cluster_router, "EXCHANGE_TIMEOUT", FAN_OUT_TIMEOUT)
    placement = _cross_shard_commits(3)[0]

    async def timed(servers, ask):
        for index in (0, 2):
            servers[index].stall.add("/v1/query")
        started = time.monotonic()
        answer = await ask()
        return answer, time.monotonic() - started

    async def scenario():
        servers, coordinator, _, _ = await _silent_pair(placement)
        (status, body), elapsed = await timed(servers, coordinator.query)
        assert status == 200
        assert elapsed < 1.5 * FAN_OUT_TIMEOUT, elapsed
        per_shard = json.loads(body)["per_shard"]
        assert [entry["reachable"] for entry in per_shard] == [False, True, False]
        labels = [shard.label for shard in coordinator.shards]
        assert [entry["label"] for entry in per_shard] == labels
        assert coordinator.shard_reachable == {0: False, 1: True, 2: False}

        problems, elapsed = await timed(servers, coordinator.check)
        assert elapsed < 1.5 * FAN_OUT_TIMEOUT, elapsed
        assert problems == (
            [f"{labels[index]}: {cluster_router.UNKNOWN}" for index in (0, 2)], []
        )
        assert [server.stalled for server in servers] == [
            ["/v1/query", "/v1/query"], [], ["/v1/query", "/v1/query"]
        ]
        await _settle_silent(servers, coordinator)

    asyncio.run(asyncio.wait_for(scenario(), STALL_GUARD))


def test_a_reserve_round_waits_on_its_silent_shards_together(monkeypatch):
    """Both involved shards of a 3-shard cluster go silent on their
    reserves: the round waits one bound for both, not one bound each,
    and both are owed a teardown (each reserve carries its commit)."""
    monkeypatch.setattr(cluster_router, "EXCHANGE_TIMEOUT", FAN_OUT_TIMEOUT)
    placement = _cross_shard_commits(3)[0]

    async def scenario():
        servers, coordinator, request, involved = await _silent_pair(placement)
        for index in involved:
            servers[index].stall.add("/v1/reserve")
        started = time.monotonic()
        status, outcome = await coordinator.establish(request)
        elapsed = time.monotonic() - started
        assert status == 200
        assert json.loads(outcome)["reason"] == "shard_unreachable"
        assert elapsed < 1.5 * FAN_OUT_TIMEOUT, elapsed
        assert coordinator.pending_teardowns == {"silent": list(involved)}
        await _settle_silent(servers, coordinator)

    asyncio.run(asyncio.wait_for(scenario(), STALL_GUARD))


def test_a_rollback_waits_on_its_silent_shards_together(monkeypatch):
    """Shard 1 of a three-shard round drains and refuses its reserve;
    shards 0 and 2 commit theirs, and go silent on the rollback's
    teardowns.  They are sent together, so the round ends one bound
    later, not two, and both are owed a teardown."""
    monkeypatch.setattr(cluster_router, "EXCHANGE_TIMEOUT", FAN_OUT_TIMEOUT)

    async def scenario():
        servers = [StallingShard(index, 3) for index in range(3)]
        clients = [await server.start() for server in servers]
        _, coordinator, arrival, plan, per_shard = _three_shard_round(
            "silent", servers, clients=clients
        )
        servers[1].draining = True
        for index in (0, 2):
            servers[index].stall.add("/v1/teardown")
        started = time.monotonic()
        result = await coordinator._admit(arrival, plan, per_shard)
        elapsed = time.monotonic() - started
        assert (result.success, result.reason) == (False, "shard_draining")
        assert elapsed < 1.5 * FAN_OUT_TIMEOUT, elapsed
        assert [server.stalled for server in servers] == [
            ["/v1/teardown"], [], ["/v1/teardown"]
        ]
        assert coordinator.pending_teardowns == {"silent": [0, 2]}
        for server in servers:
            server.draining = False
        await _settle_silent(servers, coordinator)

    asyncio.run(asyncio.wait_for(scenario(), STALL_GUARD))


def test_a_round_starts_no_task_per_exchange(monkeypatch):
    """Over three shards on real sockets, a two-shard admission, its
    teardown and the cluster query write each round, then read it in
    shard order: no ``asyncio.gather`` call and no new task.  (A socket
    is opened once, before, by a first query: accepting it starts the
    shard server's own task.)"""
    placement = _cross_shard_commits(3)[0]
    gathered = []
    gather = asyncio.gather

    def counted_gather(*awaitables, **kwargs):
        gathered.append(len(awaitables))
        return gather(*awaitables, **kwargs)

    async def scenario():
        servers, coordinator, request, involved = await _silent_pair(placement)
        assert len(involved) == 2
        assert (await coordinator.query())[0] == 200
        loop = asyncio.get_running_loop()
        started = []

        def task_factory(loop, coro, **kwargs):
            started.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        monkeypatch.setattr(asyncio, "gather", counted_gather)
        loop.set_task_factory(task_factory)
        try:
            _, outcome = await coordinator.establish(request)
            assert json.loads(outcome)["success"] is True
            status, _ = await coordinator.teardown({"session_id": "silent"})
            assert status == 200
            status, body = await coordinator.query()
            assert status == 200
        finally:
            loop.set_task_factory(None)
        assert (gathered, started) == ([], [])
        assert all(entry["reachable"] for entry in json.loads(body)["per_shard"])
        await _settle_silent(servers, coordinator)

    asyncio.run(asyncio.wait_for(scenario(), STALL_GUARD))


def test_a_cancelled_round_closes_the_sockets_it_leaves_unanswered():
    """A round cancelled from outside while shards 0 and 2 are silent on
    ``/v1/query``: the cancel reaches the caller, and the router closes
    both silent shards' connections instead of leaving them open."""
    placement = _cross_shard_commits(3)[0]

    async def scenario():
        servers, coordinator, _, _ = await _silent_pair(placement)
        assert (await coordinator.query())[0] == 200
        for index in (0, 2):
            servers[index].stall.add("/v1/query")
        asking = asyncio.ensure_future(coordinator.query())
        while not (servers[0].stalled and servers[2].stalled):
            await asyncio.sleep(0.01)
        asking.cancel()
        with pytest.raises(asyncio.CancelledError):
            await asking
        for _ in range(100):
            if not (servers[0]._connections or servers[2]._connections):
                break
            await asyncio.sleep(0.01)
        assert not (servers[0]._connections or servers[2]._connections)
        await _settle_silent(servers, coordinator)

    asyncio.run(asyncio.wait_for(scenario(), STALL_GUARD))


def test_the_router_counts_teardowns_on_its_registry():
    """A multi-shard teardown is counted once, on the registry: the
    series exists at zero from the first scrape, and ``/v1/query``'s
    ``counters.torn_down`` reads it."""
    service_name, domain, involved = _cross_shard_commits(3)[0]
    coordinator = ClusterCoordinator(make_local_shards(3), seed=7)

    def torn_down():
        counters = parse_exposition(coordinator.metrics_exposition()).counters
        return counters["repro_cluster_teardowns_total"]

    async def scenario():
        assert torn_down() == 0.0
        request = {"service": service_name, "domain": domain, "session_id": "t-1"}
        _, outcome = await coordinator.establish(request)
        assert json.loads(outcome)["success"] is True
        assert len(involved) == 2
        status, _ = await coordinator.teardown({"session_id": "t-1"})
        assert status == 200
        assert torn_down() == 1.0
        _, body = await coordinator.query()
        assert json.loads(body)["counters"]["torn_down"] == 1

    asyncio.run(scenario())


def test_the_router_reads_its_counters_in_export_order():
    """``counters`` and ``reject_reasons`` read the counters the router
    holds: the same values as the registry, and the reasons in the
    registry's export order -- ``{reason=a_b}`` sorts before ``{reason=a}``."""
    coordinator = ClusterCoordinator(make_local_shards(2), seed=7)
    for success, reason in [(False, "a_b"), (True, None), (False, "a"),
                            (False, "shard_error"), (False, "a")]:
        coordinator._count(success, reason)
    registry = coordinator.registry
    exported = [
        (labels["reason"], int(value))
        for name, labels, value in registry.iter_counters()
        if name == "cluster.rejects"
    ]
    assert list(coordinator.reject_reasons.items()) == exported
    assert exported == [("a_b", 1), ("a", 2), ("shard_error", 1)]
    assert coordinator.counters == {
        "established": int(
            registry.counter_value("cluster.admissions", verdict="established")
        ),
        "rejected": int(registry.counter_total("cluster.rejects")),
        "torn_down": 0,
    }
    assert coordinator.counters == {"established": 1, "rejected": 4, "torn_down": 0}


#: What a router reads of a shard's ``GET /v1/query``.
VIEW_FIELDS = ("seed", "active_sessions", "shard")


def _view_of(full: dict) -> dict:
    """The fields of the full document that ``?view=shard`` answers."""
    return {key: full[key] for key in VIEW_FIELDS}


def test_the_shard_view_is_the_full_document_narrowed():
    """Over in-process shards, ``?view=shard`` -- what the router asks --
    answers exactly the full document's ``seed``, ``active_sessions`` and
    ``shard`` section: after a cross-shard admission, with a lease
    pending, and on a default daemon, which is shard 0 of 1."""
    service_name, domain, involved = _cross_shard_commits(3)[0]
    shards = make_local_shards(3)
    coordinator = ClusterCoordinator(shards, seed=7)
    solo = LocalShardClient(0, ReservationService(DaemonConfig(seed=7)))

    async def both(shard):
        full = await shard.send("GET", "/v1/query", None)
        return json.loads(full.body), await shard.query()

    async def scenario():
        request = {"service": service_name, "domain": domain, "session_id": "v-1"}
        _, outcome = await coordinator.establish(request)
        assert json.loads(outcome)["success"] is True
        holder = shards[involved[0]].service
        owned = min(holder.availability()["resources"])
        held = holder.reserve({"session_id": "v-2", "demands": {owned: 1.0}})
        assert held["reserved"] is True
        for index, shard in enumerate(shards):
            full, view = await both(shard)
            assert "shard" in full
            assert view == _view_of(full)
            assert view["shard"]["pending_leases"] == int(index == involved[0])
        full, view = await both(solo)
        assert view == _view_of(full)
        assert (view["active_sessions"], view["shard"]["index"]) == (0, 0)
        assert view["shard"]["count"] == 1

    asyncio.run(scenario())


def test_the_shard_view_over_http_and_its_refusals():
    """Over a socket, the router's ``query()`` of a sharded daemon equals
    the full document narrowed; an unknown ``view``, or ``view`` together
    with ``session_id``, is a 400, and ``?session_id=`` alone still reads
    one session."""

    async def scenario():
        daemon = await start_daemon(seed=7, shard_index=0, shard_count=3)
        shard = HttpShardClient(0, "127.0.0.1", daemon.port)
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            owned = min((await client.availability())["resources"])
            outcome = await client.reserve("h-1", {owned: 1.0})
            assert outcome["reserved"] is True
            await client.commit(outcome["lease_id"], {"service": "S2", "domain": "D1"})
            full = await client.query()
            assert full["active_sessions"] == 1
            assert await shard.query() == _view_of(full)
            for target in ("/v1/query?view=full", "/v1/query?view=",
                           "/v1/query?view=shard&session_id=h-1"):
                response = await client.request("GET", target)
                assert response.status == 400, target
                assert "view" in response.json()["error"]
            assert (await client.query("h-1"))["session_id"] == "h-1"
        finally:
            await client.aclose()
            await shard.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())


def test_a_deadline_turns_only_its_own_cancel_into_a_timeout():
    """``_Deadline`` raises ``asyncio.TimeoutError`` for the cancel it
    sends at expiry, and a cancel from outside before expiry cancels the
    task.  One from outside after expiry, before the task runs again,
    cancels it too on Python 3.11 and later; 3.10, with no
    ``Task.uncancel``, loses it to the timeout, as the docstring says."""
    Deadline = cluster_router._Deadline

    async def bounded(delay, outside_cancel=None):
        """Sleep under a deadline ``delay`` s away; ``outside_cancel`` is
        None, ``"early"`` (10 ms in) or ``"at expiry"`` (right after the
        deadline's own cancel)."""
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        deadline = Deadline(loop.time() + delay)
        if outside_cancel == "early":
            loop.call_later(0.01, task.cancel)
        elif outside_cancel == "at expiry":
            expire = deadline._expire

            def expire_then_cancel():
                expire()
                task.cancel()

            deadline._expire = expire_then_cancel
        with deadline:
            await asyncio.sleep(10)

    with pytest.raises(asyncio.TimeoutError):
        asyncio.run(bounded(0.0))
    with pytest.raises(asyncio.CancelledError):
        asyncio.run(bounded(5.0, "early"))
    late = asyncio.CancelledError if cluster_router._UNCANCEL else asyncio.TimeoutError
    with pytest.raises(late):
        asyncio.run(bounded(0.0, "at expiry"))


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


def _report_counts(service):
    return {
        broker.resource_id: broker.history.report_count
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
    before = _report_counts(shard.service)

    response = asyncio.run(
        shard.send("GET", f"/v1/availability?resources={resources}", None)
    )

    assert response.status == status, response.body
    assert "error" in response.json()
    assert _report_counts(shard.service) == before
    assert len(shard.log) == 0


def test_a_scoped_reply_holds_exactly_the_named_resources():
    shard, ids = _scoped_shard()
    named = [ids["mine"][0], ids["mine"][-1]]
    before = _report_counts(shard.service)

    document = asyncio.run(shard.availability(named))

    assert list(document["resources"]) == named
    assert (document["shard"], document["shard_count"]) == (0, 3)
    after = _report_counts(shard.service)
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
