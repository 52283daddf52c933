"""The records one admission builds are compact, immutable tuple records.

Every establishment builds about forty small records: QRG edges, the
three phases' messages, reservations, assignments, a lease and the
result; every request across the service boundary carries a trace
context and, at the client, a parsed response.  Each is a named tuple,
so none carries a per-instance ``__dict__``; what a frozen dataclass
promised still holds -- the field set, the ``repr`` text, pickling,
immutability and validation.  A teardown asks only the proxies that
hold something for the session.
"""

import asyncio
import itertools
import json
import math
import pickle

import pytest

from repro.brokers.base import Reservation
from repro.cluster import ClusterCoordinator
from repro.cluster.router import _UNSEEN
from repro.core.errors import ModelError
from repro.core.plan import ComponentAssignment
from repro.core.planner import BasicPlanner
from repro.core.qrg import IntraEdge, QRGNode
from repro.core.resources import ResourceObservation, ResourceVector
from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.obs.context import TraceContext
from repro.runtime.coordinator import EstablishmentResult
from repro.runtime.leases import Lease
from repro.runtime.messages import AvailabilityReport, AvailabilityRequest, PlanSegment
from repro.service import ServiceResponse
from repro.sim.environment import GridEnvironment
from repro.sim.workload import WorkloadGenerator, WorkloadSpec

from tests.test_cluster import FaultyShardClient, make_local_shards

_PART = Reservation(
    reservation_id=3, resource_id="net:H1-H2", amount=2.5, session_id="s1", made_at=1.5
)
_PART_REPR = (
    "Reservation(reservation_id=3, resource_id='net:H1-H2', amount=2.5, "
    "session_id='s1', made_at=1.5, parts=())"
)
_OBSERVATION_REPR = "ResourceObservation(available=80.0, alpha=0.5, observed_at=2.0)"

#: One fixed instance of each record, the field a test tries to set, and
#: the ``repr`` the frozen dataclass printed for that instance.
RECORDS = [
    pytest.param(
        Reservation(
            reservation_id=4,
            resource_id="path:H1-H2",
            amount=2.5,
            session_id="s1",
            made_at=1.5,
            parts=(_PART,),
        ),
        "amount",
        "Reservation(reservation_id=4, resource_id='path:H1-H2', amount=2.5, "
        f"session_id='s1', made_at=1.5, parts=({_PART_REPR},))",
        id="Reservation",
    ),
    pytest.param(
        Lease(
            lease_id="L1",
            session_id="s1",
            host="H1",
            reservations=(_PART,),
            reserved_at=1.5,
            ttl=5.0,
            hosts=("H1",),
        ),
        "ttl",
        f"Lease(lease_id='L1', session_id='s1', host='H1', reservations=({_PART_REPR},), "
        "reserved_at=1.5, ttl=5.0, hosts=('H1',))",
        id="Lease",
    ),
    pytest.param(
        AvailabilityRequest(session_id="s1", resource_ids=("cpu:H1", "net:H1-H2")),
        "resource_ids",
        "AvailabilityRequest(session_id='s1', resource_ids=('cpu:H1', 'net:H1-H2'))",
        id="AvailabilityRequest",
    ),
    pytest.param(
        AvailabilityReport(
            session_id="s1",
            proxy_host="H1",
            observations={
                "cpu:H1": ResourceObservation(available=80.0, alpha=0.5, observed_at=2.0)
            },
        ),
        "observations",
        "AvailabilityReport(session_id='s1', proxy_host='H1', "
        f"observations={{'cpu:H1': {_OBSERVATION_REPR}}})",
        id="AvailabilityReport",
    ),
    pytest.param(
        PlanSegment(session_id="s1", proxy_host="H1", demands={"cpu:H1": 20.0}),
        "demands",
        "PlanSegment(session_id='s1', proxy_host='H1', demands={'cpu:H1': 20.0})",
        id="PlanSegment",
    ),
    pytest.param(
        ComponentAssignment(
            component="c1",
            qin_label="Qa",
            qout_label="Qb",
            requirement=ResourceVector(cpu=10),
            bound=ResourceVector({"cpu:H1": 10.0}),
            weight=0.125,
            bottleneck_resource="cpu:H1",
            alpha=1.0,
        ),
        "weight",
        "ComponentAssignment(component='c1', qin_label='Qa', qout_label='Qb', "
        "requirement=ResourceVector(cpu=10), bound=ResourceVector(cpu:H1=10), "
        "weight=0.125, bottleneck_resource='cpu:H1', alpha=1.0)",
        id="ComponentAssignment",
    ),
    pytest.param(
        EstablishmentResult(
            session_id="s1",
            success=False,
            plan=None,
            reason="admission_failed",
            failed_resource="cpu:H1",
        ),
        "reason",
        "EstablishmentResult(session_id='s1', success=False, plan=None, "
        "reason='admission_failed', failed_resource='cpu:H1')",
        id="EstablishmentResult",
    ),
    pytest.param(
        ResourceObservation(available=80.0, alpha=0.5, observed_at=2.0),
        "alpha",
        _OBSERVATION_REPR,
        id="ResourceObservation",
    ),
    pytest.param(
        IntraEdge(
            src=QRGNode("c1", "in", "Qa"),
            dst=QRGNode("c1", "out", "Qb"),
            requirement=ResourceVector(cpu=10),
            bound=ResourceVector({"cpu:H1": 10.0}),
            weight=0.125,
            bottleneck_resource="cpu:H1",
            alpha=1.0,
            per_resource={"cpu:H1": 0.125},
        ),
        "weight",
        "IntraEdge(src=QRGNode(component='c1', kind='in', label='Qa'), "
        "dst=QRGNode(component='c1', kind='out', label='Qb'), "
        "requirement=ResourceVector(cpu=10), bound=ResourceVector(cpu:H1=10), "
        "weight=0.125, bottleneck_resource='cpu:H1', alpha=1.0, "
        "per_resource={'cpu:H1': 0.125})",
        id="IntraEdge",
    ),
    pytest.param(
        TraceContext(
            trace_id="4bf92f3577b34da6a3ce929d0e0e4736",
            span_id="00f067aa0ba902b7",
            parent_id=None,
            request_id="req-1",
        ),
        "span_id",
        "TraceContext(trace_id='4bf92f3577b34da6a3ce929d0e0e4736', "
        "span_id='00f067aa0ba902b7', parent_id=None, request_id='req-1')",
        id="TraceContext",
    ),
    pytest.param(
        ServiceResponse(
            status=200,
            headers={"content-type": "application/json"},
            body=b'{"ok": true}',
        ),
        "status",
        "ServiceResponse(status=200, headers={'content-type': 'application/json'}, "
        """body=b'{"ok": true}')""",
        id="ServiceResponse",
    ),
]


@pytest.mark.parametrize("record,field,text", RECORDS)
class TestRecords:
    def test_carries_no_instance_dict(self, record, field, text):
        assert not hasattr(record, "__dict__")

    def test_a_field_cannot_be_set(self, record, field, text):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        assert getattr(record, field) is before

    def test_survives_a_pickle_round_trip(self, record, field, text):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert type(copy) is type(record)

    def test_repr_is_the_dataclass_text(self, record, field, text):
        assert repr(record) == text


def test_the_defaults_are_the_dataclass_defaults():
    assert repr(ResourceObservation(5.0)) == (
        "ResourceObservation(available=5.0, alpha=1.0, observed_at=None)"
    )
    assert repr(EstablishmentResult("s2", True, None)) == (
        "EstablishmentResult(session_id='s2', success=True, plan=None, "
        "reason='', failed_resource=None)"
    )
    assert Reservation(1, "cpu:H1", 1.0, "s", 0.0).parts == ()
    assert Lease("L", "s", "H1", (), 0.0, 5.0).hosts == ()
    assert Lease("L", "s", "H1", (), 2.0, 5.0).expires_at == 7.0


def _edge(per_resource):
    return IntraEdge(
        QRGNode("c1", "in", "Qa"),
        QRGNode("c1", "out", "Qb"),
        ResourceVector(cpu=10),
        ResourceVector({"cpu:H1": 10.0}),
        0.125,
        "cpu:H1",
        1.0,
        per_resource,
    )


class TestIntraEdgeIdentity:
    def test_per_resource_stays_out_of_the_hash_but_not_out_of_equality(self):
        one, other = _edge({"cpu:H1": 0.125}), _edge({"cpu:H1": 0.25})
        assert hash(one) == hash(other)
        assert one != other
        assert one == _edge({"cpu:H1": 0.125})

    def test_an_edge_with_a_dict_is_hashable(self):
        edge = _edge({"cpu:H1": 0.125})
        assert {edge: 1}[_edge({"cpu:H1": 0.125})] == 1

    def test_per_resource_defaults_to_none(self):
        edge = IntraEdge(
            src=QRGNode("c1", "in", "Qa"),
            dst=QRGNode("c1", "out", "Qb"),
            requirement=ResourceVector(cpu=10),
            bound=ResourceVector({"cpu:H1": 10.0}),
            weight=0.125,
            bottleneck_resource="cpu:H1",
            alpha=1.0,
        )
        assert edge.per_resource is None
        assert edge == _edge(None)

    def test_an_assignment_reads_the_edge_it_came_from(self):
        edge = _edge({"cpu:H1": 0.125})
        assignment = ComponentAssignment.from_edge(edge)
        assert assignment == ComponentAssignment(
            component="c1",
            qin_label="Qa",
            qout_label="Qb",
            requirement=edge.requirement,
            bound=edge.bound,
            weight=0.125,
            bottleneck_resource="cpu:H1",
            alpha=1.0,
        )


class TestObservationValidation:
    @pytest.mark.parametrize("available,alpha", [(-1.0, 1.0), (5.0, -0.5)])
    def test_a_negative_value_is_refused(self, available, alpha):
        with pytest.raises(ModelError, match="negative availability"):
            ResourceObservation(available=available, alpha=alpha)

    @pytest.mark.parametrize(
        "fields",
        [{"available": math.nan}, {"available": 5.0, "alpha": math.nan}],
        ids=["available", "alpha"],
    )
    def test_nan_is_refused(self, fields):
        with pytest.raises(ModelError):
            ResourceObservation(**fields)

    def test_a_pickle_round_trip_validates_again(self):
        observation = ResourceObservation(available=0.0, alpha=0.0, observed_at=None)
        assert pickle.loads(pickle.dumps(observation)) == observation


class _NanAlphaShard(FaultyShardClient):
    """A shard whose availability replies say ``"alpha": NaN`` everywhere,
    which Python's ``json`` writes and reads."""

    async def send(self, method, target, payload):
        response = await super().send(method, target, payload)
        if target.partition("?")[0] != "/v1/availability":
            return response
        document = json.loads(response.body)
        for fields in document["resources"].values():
            fields["alpha"] = math.nan
        return ServiceResponse(response.status, {}, json.dumps(document).encode())


def test_a_nan_alpha_reply_is_an_unknown_outcome_and_zero_filled():
    shards = make_local_shards(2)
    shards[1] = _NanAlphaShard(1, shards[1].service, log=shards[1].log)
    coordinator = ClusterCoordinator(shards, seed=7)
    owned = [
        sorted(asyncio.run(shard.availability())["resources"])[:3] for shard in shards
    ]

    snapshot = asyncio.run(coordinator._merged_snapshot(owned[0] + owned[1], [0, 1]))

    for resource_id in owned[1]:
        assert snapshot[resource_id] == _UNSEEN
    for resource_id in owned[0]:
        observation = snapshot[resource_id]
        assert observation.available > 0 and not math.isnan(observation.alpha)
    assert coordinator.shard_reachable[1] is False
    assert coordinator.shard_reachable[0] is True


def _grid():
    return GridEnvironment(Environment(), RandomStreams(11))


def _window_script(grid, arrivals: int, window: int):
    """A §5.1 arrival script through ``grid``'s in-process coordinator:
    yields each admitted session ``window`` admissions later, for the
    caller to tear down."""
    planner = BasicPlanner()
    spec = WorkloadSpec(rate_per_60tu=80.0, horizon=1e12)
    script = itertools.islice(WorkloadGenerator(spec, RandomStreams(7)).generate(), arrivals)
    admitted = []
    for arrival in script:
        grid.env.run(until=arrival.arrival_time)
        result = grid.coordinator.establish(
            arrival.session_id,
            arrival.service,
            grid.binding_for(arrival.service, arrival.domain),
            planner,
            component_hosts=grid.component_hosts_for(arrival.service, arrival.domain),
            demand_scale=arrival.demand_scale,
        )
        if result.success:
            admitted.append(arrival.session_id)
        if len(admitted) > window:
            yield admitted.pop(0)


def _spy_on_releases(grid):
    """Every proxy's ``release_session``, wrapped: the hosts called, in order."""
    calls = []
    for host, proxy in grid.proxies.items():
        release = proxy.release_session

        def spied(session_id, host=host, release=release):
            calls.append(host)
            return release(session_id)

        proxy.release_session = spied
    return calls


class TestTeardownVisitsOnlyHolders:
    def test_only_the_proxies_that_hold_the_session_release_it(self):
        grid = _grid()
        calls = _spy_on_releases(grid)
        torn_down = 0
        for session_id in _window_script(grid, arrivals=160, window=48):
            del calls[:]
            holders = [host for host, proxy in grid.proxies.items() if proxy.holds(session_id)]
            held = sum(len(proxy.held_for(session_id)) for proxy in grid.proxies.values())
            assert 0 < len(holders) < len(grid.proxies) == 12

            released = grid.coordinator.teardown(session_id)

            assert calls == holders
            assert released == held > 0
            assert not any(proxy.holds(session_id) for proxy in grid.proxies.values())
            torn_down += 1
        assert torn_down > 50

    def test_a_proxy_holding_only_started_components_is_visited(self):
        grid = _grid()
        session_id = next(_window_script(grid, arrivals=80, window=8))
        idle = next(
            proxy for proxy in grid.proxies.values() if not proxy.holds(session_id)
        )
        idle.start_components(session_id, ["monitor"])
        assert idle.holds(session_id) and not idle.held_for(session_id)
        calls = _spy_on_releases(grid)

        grid.coordinator.teardown(session_id)

        assert idle.host in calls
        assert idle.running_components(session_id) == ()
        assert not idle.holds(session_id)
