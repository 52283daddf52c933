"""One broker contract over every kind of broker (paper §3).

A host-local pool, a network link and an end-to-end path are the same
Resource Broker: the same script must leave the same events (kinds,
order, attribute keys and values) and bump the same metric series on
each.  A path adds only the ``bottleneck_link`` attribute of its
``broker.reject``, the ``hops`` label, and its links' own events, which
precede its own in route order.
"""

import math

import pytest

from repro.brokers import LinkBandwidthBroker, LocalResourceBroker, PathBroker
from repro.core.errors import AdmissionError, BrokerError
from repro.obs.events import EventLog, event_logging
from repro.obs.metrics import MetricsRegistry, metering


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _route(clock, *capacities):
    links = [
        LinkBandwidthBroker(f"L{i}", f"N{i}", f"N{i + 1}", capacity, clock=clock)
        for i, capacity in enumerate(capacities)
    ]
    return PathBroker("net:N0-N9", links, clock=clock), links


def _local(clock):
    return LocalResourceBroker("H1", "cpu", 100.0, clock=clock), []


def _link(clock):
    return LinkBandwidthBroker("L0", "N0", "N1", 100.0, clock=clock), []


def _path1(clock):
    return _route(clock, 100.0)


def _path3(clock):
    # the bottleneck is the middle link, so a refusal rolls L0 back
    return _route(clock, 150.0, 100.0, 200.0)


#: maker, the labels it adds to ``resource``, the link a refusal names
KINDS = {
    "local": (_local, {"host": "H1", "kind": "cpu"}, None),
    "link": (_link, {}, None),
    "path1": (_path1, {"hops": "1"}, "L0"),
    "path3": (_path3, {"hops": "3"}, "L1"),
}

#: What the script below leaves on any broker of capacity 100:
#: (kind, time, session, attributes), ``bottleneck_link`` aside.
EXPECTED_EVENTS = [
    ("broker.probe", 0.0, None, {"available": 100.0, "alpha": 1.0}),
    (
        "broker.grant",
        1.0,
        "s1",
        {"requested": 40.0, "available": 100.0, "capacity": 100.0, "utilization": 0.4},
    ),
    (
        "broker.reject",
        1.5,
        "s2",
        {"requested": 70.0, "available": 60.0, "capacity": 100.0},
    ),
    ("broker.probe", 0.5, None, {"available": 100.0, "alpha": 1.0, "stale": True}),
    ("broker.probe", 2.0, None, {"available": 60.0, "alpha": 0.6}),
    (
        "broker.release",
        3.0,
        "s1",
        {"amount": 40.0, "available": 100.0, "capacity": 100.0, "utilization": 0.0},
    ),
]

#: The whole stream as (kind, resource): a route's links speak before
#: the route does ("own"), in route order; a pool has no one else.
_POOL_STREAM = [(kind, "own") for kind, *_ in EXPECTED_EVENTS]
EXPECTED_STREAM = {
    "local": _POOL_STREAM,
    "link": _POOL_STREAM,
    "path1": [
        ("broker.probe", "own"),
        ("broker.grant", "link:L0"),
        ("broker.grant", "own"),
        ("broker.reject", "link:L0"),
        ("broker.reject", "own"),
        ("broker.probe", "own"),
        ("broker.probe", "own"),
        ("broker.release", "link:L0"),
        ("broker.release", "own"),
    ],
    "path3": [
        ("broker.probe", "own"),
        ("broker.grant", "link:L0"),
        ("broker.grant", "link:L1"),
        ("broker.grant", "link:L2"),
        ("broker.grant", "own"),
        ("broker.grant", "link:L0"),  # the refused 70: L0 admits it ...
        ("broker.reject", "link:L1"),  # ... L1 does not ...
        ("broker.release", "link:L0"),  # ... and L0 is rolled back
        ("broker.reject", "own"),
        ("broker.probe", "own"),
        ("broker.probe", "own"),
        ("broker.release", "link:L0"),
        ("broker.release", "link:L1"),
        ("broker.release", "link:L2"),
        ("broker.release", "own"),
    ],
}


def run_script(broker, clock):
    """observe, grant, refusal, stale and fresh observation, release."""
    broker.observe()
    clock.now = 1.0
    reservation = broker.reserve(40.0, "s1")
    clock.now = 1.5
    with pytest.raises(AdmissionError) as refusal:
        broker.reserve(70.0, "s2")
    clock.now = 2.0
    stale = broker.observe_stale(0.5)
    fresh = broker.observe()
    clock.now = 3.0
    broker.release(reservation)
    return reservation, refusal.value, stale, fresh


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestBrokerContract:
    def test_script_leaves_the_same_record(self, kind):
        make, extra_labels, bottleneck = KINDS[kind]
        clock = FakeClock()
        broker, links = make(clock)
        with event_logging(EventLog()) as log, metering(MetricsRegistry()) as metrics:
            _reservation, refusal, stale, fresh = run_script(broker, clock)
        # a pool logs its changes (opening, grant, release); a route keeps
        # no books of its own, its past is its links'
        assert len(broker.history) == (0 if links else 3)

        assert refusal.resource_id == broker.resource_id
        assert (stale.available, stale.alpha, stale.observed_at) == (100.0, 1.0, 0.5)
        assert (fresh.available, fresh.alpha, fresh.observed_at) == (60.0, 0.6, 2.0)

        own = [event for event in log if event.resource == broker.resource_id]
        rejects = [event for event in own if event.kind == "broker.reject"]
        assert [r.attributes.pop("bottleneck_link", None) for r in rejects] == [bottleneck]
        assert [
            (event.kind, event.time, event.session, event.attributes) for event in own
        ] == EXPECTED_EVENTS

        assert [
            (e.kind, "own" if e.resource == broker.resource_id else e.resource)
            for e in log
        ] == EXPECTED_STREAM[kind]

        labels = {"resource": broker.resource_id, **extra_labels}
        assert [
            (name, value)
            for name, series_labels, value in metrics.iter_counters()
            if series_labels == labels
        ] == [("broker.grants", 1.0), ("broker.rejections", 1.0), ("broker.releases", 1.0)]
        assert [
            (name, value)
            for name, series_labels, value in metrics.iter_gauges()
            if series_labels == labels
        ] == [("broker.utilization", 0.0)]
        # no series of this broker under any other label set
        assert all(
            series_labels == labels
            for _name, series_labels, _value in metrics.iter_counters()
            if series_labels["resource"] == broker.resource_id
        )

    def test_a_refusal_books_nothing(self, kind):
        make, _labels, _bottleneck = KINDS[kind]
        broker, links = make(FakeClock())
        with pytest.raises(AdmissionError):
            broker.reserve(100.5, "s1")
        for each in [broker, *links]:
            assert each.available == each.capacity
            assert each.outstanding() == 0
            assert each.reserved == 0.0

    def test_double_release_is_refused(self, kind):
        make, _labels, _bottleneck = KINDS[kind]
        broker, links = make(FakeClock())
        reservation = broker.reserve(10.0, "s1")
        assert len(reservation.parts) == len(links)
        assert broker.outstanding() == 1
        broker.release(reservation)
        with pytest.raises(BrokerError, match="double release"):
            broker.release(reservation)
        assert broker.available == broker.capacity
        assert broker.outstanding() == 0

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf, 0.0, -5.0])
    def test_a_malformed_amount_touches_nothing(self, kind, amount):
        make, _labels, _bottleneck = KINDS[kind]
        broker, _links = make(FakeClock())
        with event_logging(EventLog()) as log, metering(MetricsRegistry()) as metrics:
            with pytest.raises(BrokerError, match="finite and positive"):
                broker.reserve(amount, "s1")
        assert len(log) == 0  # no link was asked
        assert metrics.iter_counters() == []
        assert broker.available == broker.capacity
        assert broker.outstanding() == 0
