"""Every parser on the wire, fed arbitrary bytes: a message, or a typed refusal.

The HTTP codec (:mod:`repro.service.http`) reads what both servers and
every client receive, so one fuzz target per reader covers both ends:
given any bytes followed by EOF, :func:`read_request` and
:func:`read_response` each return a message (or ``None`` for a clean
EOF) or raise :class:`ProtocolError` -- never another exception, never
a hang, and never a body past :data:`MAX_BODY_BYTES`.  The JSON body decoder and the Prometheus
exposition parser a client runs on a target's ``/metrics`` get the same
treatment.  Hypothesis runs derandomized, so a failure
replays; each escape found so far is pinned as an ``@example``.

The one large message is a full flight-ring ``POST /v1/debug/dump``;
the last test pins that it reads through :class:`ServiceClient` under
the body bound.
"""

import asyncio

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.prom import ExpositionParseError, parse_exposition
from repro.service import DaemonConfig, ReservationDaemon, ServiceClient
from repro.service.http import (
    MAX_BODY_BYTES,
    ProtocolError,
    decode_json,
    read_request,
    read_response,
)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

#: Pieces of real messages, so the fuzz reaches past the start line.
FRAGMENTS = [
    b"GET ", b"POST ", b"/v1/establish", b"/v1/query?session_id=a%20b&x",
    b"http://[::1", b"http://h:99999/", b" HTTP/1.1", b"HTTP/1.1 ",
    b"200 OK", b"101 Switching Protocols", b"abc ", b"\r\n", b"\r\n\r\n",
    b"Content-Length: ", b"content-length:", b"0", b"2", b"-5", b"abc",
    b"99999999999", b"8388609", b"Connection: close", b"Upgrade: websocket",
    b":", b" ", b"{}", b'{"a": [1, 2]}', b"[[[[", b"\xff\xfe",
    b"\x81\x05hello", b"\x88\x00", b"\x01\x7e", b"\x82\x7f", b"\xff" * 8,
]

WIRE = st.one_of(
    st.binary(max_size=300),
    st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.binary(max_size=8)), max_size=24
    ).map(b"".join),
)


def _read(reader_fn, data: bytes):
    """``reader_fn`` over ``data`` + EOF: its result, or the ProtocolError."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        try:
            return await asyncio.wait_for(reader_fn(reader), timeout=1.0)
        except ProtocolError as exc:
            return exc

    return asyncio.run(run())


@FUZZ
@given(WIRE)
@example(b"GET http://[::1 HTTP/1.1\r\n\r\n")
@example(b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
def test_read_request_returns_a_request_none_or_protocol_error(data):
    outcome = _read(read_request, data)
    if outcome is None or isinstance(outcome, ProtocolError):
        return
    assert len(outcome.body) <= MAX_BODY_BYTES
    assert isinstance(outcome.path, str) and isinstance(outcome.query, dict)


@FUZZ
@given(WIRE)
@example(b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n")
@example(b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n{}")
@example(b"HTTP/1.1 x OK\r\n\r\n")
def test_read_response_returns_a_response_none_or_protocol_error(data):
    outcome = _read(read_response, data)
    if outcome is None or isinstance(outcome, ProtocolError):
        return
    status, headers, body = outcome
    assert isinstance(status, int) and isinstance(headers, dict)
    assert len(body) <= MAX_BODY_BYTES


@FUZZ
@given(WIRE)
@example(b"[" * 100_000)
def test_decode_json_returns_a_value_or_protocol_error(data):
    try:
        decode_json(data)
    except ProtocolError:
        pass


@FUZZ
@given(st.text(max_size=300) | st.lists(st.sampled_from([
    "# TYPE m histogram\n", "# TYPE m counter\n", "# TYPE", "# EXEMPLAR ",
    "m_bucket", "m_sum", "m_count", "m", '{le="1"}', '{le="+Inf"}', "{le=",
    '{a="b\\"', " 1", " NaN", " +Inf", " x", "\n", "trace_id=t value=1",
]), max_size=20).map("".join))
def test_parse_exposition_returns_or_raises_its_own_error(text):
    try:
        parse_exposition(text)
    except ExpositionParseError:
        pass


def test_a_full_flight_ring_dump_reads_under_the_body_bound():
    async def scenario():
        daemon = ReservationDaemon(DaemonConfig(port=0, seed=11))
        await daemon.start()
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            ring = daemon.service.flight.log
            sessions = 0
            while len(ring) < ring.capacity:
                session = {"service": "S2", "domain": "D1", "session_id": f"f{sessions}"}
                daemon.service.handle("POST", "/v1/establish", {}, session)
                daemon.service.handle("POST", "/v1/teardown", {}, session)
                sessions += 1
            response = await client.request("POST", "/v1/debug/dump", {})
            assert response.status == 200
            assert 4 * 2**20 < len(response.body) <= MAX_BODY_BYTES
            assert len(response.json()["document"]["events"]) == ring.capacity
        finally:
            await client.aclose()
            await daemon.shutdown()

    asyncio.run(scenario())
