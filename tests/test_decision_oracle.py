"""The differential oracle: one arrival script, five tiers, one decision each.

The same seed-7 §5.1 window script (every admitted session stays live
for :data:`WINDOW` arrivals, then is torn down) runs through

* the in-process coordinator on the DES clock,
* a :class:`~repro.service.daemon.ReservationService` (the daemon's
  route table, frozen clock), and
* 1-, 2- and 3-shard clusters of in-process shards
  (:class:`~repro.cluster.router.LocalShardClient`),

and every tier must reach the same decision on every arrival: success,
reason, failed resource, QoS level, end-to-end label and ψ.  ``basic``
reads no availability history, so all five tiers agree.  ``tradeoff``
weighs each resource's α, the ratio of its availability to the mean of
what its broker *reported* over the window; the daemon and the clusters
share the frozen clock, so they agree only if every shard files exactly
the reports one daemon files -- which the report counts check directly.
The DES-clock tier prunes its report window as time advances and is
compared on ``basic`` only.
"""

import asyncio
import functools
import itertools
import json

import pytest

from repro.cluster import ClusterCoordinator, LocalShardClient
from repro.core import CONTENTION_INDICES, make_planner
from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.obs.events import EventLog
from repro.service import DaemonConfig, ReservationService
from repro.service.daemon import _establishment_to_dict
from repro.service.loadgen import arrival_payload
from repro.sim.environment import GridEnvironment
from repro.sim.workload import WorkloadGenerator, WorkloadSpec

ARRIVALS = 600
WINDOW = 256
GRID_SEED = 11
ARRIVAL_SEED = 7
CLUSTER_TIERS = ("cluster-1", "cluster-2", "cluster-3")
DIGEST_FIELDS = ("success", "reason", "failed_resource", "level", "label", "psi")


def _script():
    spec = WorkloadSpec(rate_per_60tu=80.0, horizon=1e12)
    generator = WorkloadGenerator(spec, RandomStreams(ARRIVAL_SEED))
    return list(itertools.islice(generator.generate(), ARRIVALS))


def _report_counts(services):
    """Resource id -> reports in its brokers' alpha windows, over ``services``."""
    counts = {}
    for service in services:
        for broker in service.grid.registry.brokers():
            counts[broker.resource_id] = (
                counts.get(broker.resource_id, 0) + broker.history.report_count
            )
    return counts


async def _drive(establish, teardown):
    """Run the window script: each arrival's decision document, in order."""
    arrivals = _script()
    documents, live = [], {}
    for index, arrival in enumerate(arrivals):
        document = await establish(arrival)
        documents.append(document)
        live[index] = document["success"]
        if live.pop(index - WINDOW, False):
            await teardown(arrivals[index - WINDOW].session_id)
    return documents


def _des_tier(algorithm):
    streams = RandomStreams(GRID_SEED)
    grid = GridEnvironment(Environment(), streams)
    planner = make_planner(algorithm, True, streams)
    contention_index = CONTENTION_INDICES[DaemonConfig().contention_index]

    async def establish(arrival):
        grid.env.run(until=arrival.arrival_time)
        result = grid.coordinator.establish(
            arrival.session_id,
            arrival.service,
            grid.binding_for(arrival.service, arrival.domain),
            planner,
            component_hosts=grid.component_hosts_for(arrival.service, arrival.domain),
            demand_scale=arrival.demand_scale,
            contention_index=contention_index,
        )
        return _establishment_to_dict(result)

    async def teardown(session_id):
        assert grid.coordinator.teardown(session_id) > 0

    return establish, teardown, [grid]


def _daemon_tier(algorithm):
    service = ReservationService(DaemonConfig(seed=GRID_SEED, algorithm=algorithm))

    async def establish(arrival):
        return service.establish(arrival_payload(arrival))

    async def teardown(session_id):
        assert service.teardown({"session_id": session_id})["released"] > 0

    return establish, teardown, [service]


def _cluster_tier(algorithm, shard_count):
    services = [
        ReservationService(
            DaemonConfig(
                seed=GRID_SEED,
                algorithm=algorithm,
                shard_index=index,
                shard_count=shard_count,
            )
        )
        for index in range(shard_count)
    ]
    coordinator = ClusterCoordinator(
        [
            LocalShardClient(index, service, log=EventLog())
            for index, service in enumerate(services)
        ],
        seed=GRID_SEED,
        algorithm=algorithm,
    )

    async def establish(arrival):
        status, body = await coordinator.establish(arrival_payload(arrival))
        assert status == 200, body
        return json.loads(body)

    async def teardown(session_id):
        status, body = await coordinator.teardown({"session_id": session_id})
        assert status == 200, body

    return establish, teardown, services


@functools.lru_cache(maxsize=None)
def _outcome(tier, algorithm):
    """``(per-arrival digests, per-resource report counts)`` of one tier."""
    if tier == "des":
        establish, teardown, holders = _des_tier(algorithm)
    elif tier == "daemon":
        establish, teardown, holders = _daemon_tier(algorithm)
    else:
        establish, teardown, holders = _cluster_tier(algorithm, int(tier[-1]))
    documents = asyncio.run(_drive(establish, teardown))
    digests = tuple(
        tuple(document[field] for field in DIGEST_FIELDS) for document in documents
    )
    if tier == "des":
        return digests, None
    return digests, _report_counts(holders)


def _assert_same_decisions(reference_tier, tier, algorithm):
    expected, _ = _outcome(reference_tier, algorithm)
    actual, _ = _outcome(tier, algorithm)
    differing = [
        index for index, pair in enumerate(zip(expected, actual)) if pair[0] != pair[1]
    ]
    assert not differing, (
        f"{tier} decides {len(differing)} of {ARRIVALS} {algorithm} arrivals "
        f"unlike {reference_tier}; first at {differing[0]}: "
        f"{expected[differing[0]]} vs {actual[differing[0]]}"
    )


def test_the_script_exercises_admission_control():
    """Both outcomes and more than one QoS level occur, on each algorithm."""
    for algorithm in ("basic", "tradeoff"):
        digests, _ = _outcome("daemon", algorithm)
        assert len(digests) == ARRIVALS
        assert {digest[0] for digest in digests} == {True, False}
        assert len({digest[3] for digest in digests if digest[0]}) > 1


@pytest.mark.parametrize("tier", ("daemon",) + CLUSTER_TIERS)
def test_basic_decides_alike_on_every_tier(tier):
    _assert_same_decisions("des", tier, "basic")


@pytest.mark.parametrize("tier", CLUSTER_TIERS)
def test_tradeoff_decides_alike_on_the_daemon_and_every_cluster(tier):
    _assert_same_decisions("daemon", tier, "tradeoff")


@pytest.mark.parametrize("algorithm", ["basic", "tradeoff"])
@pytest.mark.parametrize("tier", CLUSTER_TIERS)
def test_the_shards_file_the_reports_one_daemon_files(tier, algorithm):
    _, expected = _outcome("daemon", algorithm)
    _, actual = _outcome(tier, algorithm)
    assert sum(expected.values()) > 0
    assert actual == expected
