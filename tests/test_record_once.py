"""Record once, derive on read: deferred rendering must be invisible.

The event log -- which is the flight recorder's ring -- holds one flat
row per ``emit``.  A :class:`~repro.obs.events.ReservationEvent` is built
from a row when someone reads the log, and at ``emit`` only while a
subscriber exists; it is rendered (``to_dict``) when a flight dump is
asked for.  Everything a reader sees -- the schema-v4 flight document,
the event a subscriber is handed, the counters on ``/v1/query`` -- must
be what eager rendering produced, and the event built at ``emit`` must be the event
built on read.
"""

import dataclasses
import itertools
import json

import pytest

from repro.obs import ObservabilityConfig, analyze
from repro.obs.events import ReservationEvent
from repro.obs.flight import EVENT_CAPACITY
from repro.service import DaemonConfig, ReservationService
from repro.service.cli import build_config
from tests.test_service_daemon import VALID_PAIRS


def admit_and_release(service: ReservationService, count: int, prefix: str) -> None:
    for index in range(count):
        name, domain = VALID_PAIRS[index % len(VALID_PAIRS)]
        session_id = f"{prefix}-{index}"
        outcome = service.establish(
            {"service": name, "domain": domain, "session_id": session_id}
        )
        assert outcome["success"] is True
        service.teardown({"session_id": session_id})


def wrap_the_ring(service: ReservationService) -> None:
    """Admit and release sessions until the event ring has evicted one."""
    for round_index in itertools.count():
        if service.log.dropped:
            return
        admit_and_release(service, 100, f"wrap{round_index}")


def test_flight_snapshot_is_the_rendered_tail_of_the_event_stream(tmp_path):
    service = ReservationService(DaemonConfig(seed=3))
    service.start()
    try:
        wrap_the_ring(service)
        log = service.log
        ring = log.capacity
        held = log.to_dicts()
        # The log is the ring: it holds the newest events, seq-contiguous.
        assert len(held) == ring
        assert [e["seq"] for e in held] == list(range(log.dropped, log.next_seq))
        assert service.query()["event_log"]["recorded"] == ring
        assert service.query()["event_log"]["dropped"] == log.dropped
        document = service.flight_snapshot("test")
        assert json.dumps(document["events"]) == json.dumps(held)
        assert document["events_dropped"] == log.dropped
        assert document["meta"]["events_seen"] == log.next_seq
        assert document["meta"]["event_capacity"] == ring
        assert sum(document["event_counts"].values()) == ring
        # The dump is the same document, and still a loadable schema v4.
        path = service.flight.dump(
            tmp_path / "flight.json", reason="test", registry=service.registry
        )
        on_disk = analyze.load_trace(path)
        assert on_disk.schema_version == 4
        assert [e.to_dict() for e in on_disk.events] == document["events"]
    finally:
        service.close()


def test_the_event_a_subscriber_is_handed_is_the_event_the_ring_reads_back():
    service = ReservationService(DaemonConfig(seed=3))
    service.start()
    handed = {}
    log = service.log
    callback = log.subscribe(
        lambda event: handed.__setitem__(event.seq, json.dumps(event.to_dict()))
    )
    try:
        wrap_the_ring(service)
    finally:
        log.unsubscribe(callback)
        service.close()
    held = log.to_dicts()
    assert [e["seq"] for e in held] == list(range(log.dropped, log.next_seq))
    assert len(handed) == log.next_seq
    assert [handed[e["seq"]] for e in held] == [json.dumps(e) for e in held]


def test_the_event_ring_has_one_bound_and_no_knob():
    service = ReservationService(DaemonConfig(seed=3))
    assert service.log is service.flight.log
    assert service.log.capacity == EVENT_CAPACITY
    assert not {"event_capacity", "flight_events"} & {
        field.name for field in dataclasses.fields(DaemonConfig)
    }
    assert "event_capacity" not in {
        field.name for field in dataclasses.fields(ObservabilityConfig)
    }
    with pytest.raises(SystemExit):
        build_config(["--event-capacity", "10"])


def test_no_event_is_rendered_while_nobody_subscribes(monkeypatch):
    rendered = []
    render = ReservationEvent.to_dict

    def counting_to_dict(self):
        rendered.append(self.seq)
        return render(self)

    monkeypatch.setattr(ReservationEvent, "to_dict", counting_to_dict)
    service = ReservationService(DaemonConfig(seed=3))
    service.start()
    try:
        before = service.query()["event_log"]
        admit_and_release(service, 50, "dark")
        after = service.query()["event_log"]
        assert rendered == []
        # ... yet every event was recorded and ring-buffered.
        emitted = after["recorded"] - before["recorded"]
        assert emitted > 50
        assert service.flight.events_seen == after["recorded"]
        # Asking for the document is what renders them.
        service.flight_snapshot("test")
        assert len(rendered) == len(service.flight.log)
    finally:
        service.close()

