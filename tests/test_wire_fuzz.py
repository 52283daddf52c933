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

The codec's fast paths are held to references on the same inputs: the
one-pass message reader to the two-step reader it replaced (kept below
as ``reference_read_request`` / ``reference_read_response``), message
by message and error text by error text, and :func:`split_target`'s
origin-form split to ``urlsplit`` + ``parse_qsl``, and the one C
encoder behind :func:`encode_json` to ``json.dumps(sort_keys=True)``.

The one large message is a full flight-ring ``POST /v1/debug/dump``;
the last test pins that it reads through :class:`ServiceClient` under
the body bound.
"""

import asyncio
import json
from typing import Dict
from urllib.parse import parse_qsl, urlsplit

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.prom import ExpositionParseError, parse_exposition
from repro.service import DaemonConfig, ReservationDaemon, ServiceClient
from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    ProtocolError,
    Request,
    decode_json,
    encode_json,
    read_request,
    read_response,
    split_target,
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


# -- the two-step reader the one-pass reader replaced ----------------------


async def reference_head(reader, kind):
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(f"connection closed mid-{kind}") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(f"{kind} head exceeds the stream limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(f"{kind} head exceeds {MAX_HEADER_BYTES} bytes")
    lines = head.decode("latin-1").split("\r\n")
    start = lines[0].split(" ", 2)
    if len(start) != 3:
        raise ProtocolError(f"malformed {kind} line: {head[:80]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or name != name.strip():
            raise ProtocolError(f"malformed header line: {line!r}")
        name = name.lower()
        if name == "transfer-encoding" or (name == "content-length" and name in headers):
            raise ProtocolError(f"refused framing header: {line!r}")
        headers[name] = value.strip()
    return start, headers


async def reference_body(reader, length_text):
    if not (length_text.isascii() and length_text.isdigit()):
        raise ProtocolError(f"bad Content-Length: {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {length} bytes refused")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-body") from exc


def reference_split(target):
    try:
        parts = urlsplit(target)
    except ValueError as exc:
        raise ProtocolError(f"unparsable request target: {target[:80]!r}") from exc
    return parts.path, dict(parse_qsl(parts.query, keep_blank_values=True))


async def reference_read_request(reader):
    head = await reference_head(reader, "request")
    if head is None:
        return None
    (method, target, version), headers = head
    body = await reference_body(reader, headers.get("content-length", "0"))
    path, query = reference_split(target)
    # The version is kept too: the reader hands it to the shell now.
    return Request(method.upper(), target, path, query, headers, body, version)


async def reference_read_response(reader):
    head = await reference_head(reader, "response")
    if head is None:
        return None
    (_version, status_text, _phrase), headers = head
    try:
        status = int(status_text)
    except ValueError as exc:
        raise ProtocolError(f"malformed status code: {status_text!r}") from exc
    if "content-length" not in headers:
        raise ProtocolError(f"HTTP {status} response without Content-Length")
    return status, headers, await reference_body(reader, headers["content-length"])


def _read_all(reader_fn, data: bytes) -> list:
    """Up to four messages ``reader_fn`` reads off ``data`` + EOF, then
    the None or the ProtocolError (as its text) that ended the stream."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        outcomes = []
        while len(outcomes) < 4:
            try:
                message = await asyncio.wait_for(reader_fn(reader), timeout=1.0)
            except ProtocolError as exc:
                message = ("ProtocolError", str(exc))
            outcomes.append(message)
            if message is None or isinstance(message, tuple) and len(message) == 2:
                break
        return outcomes

    return asyncio.run(run())


#: Message streams made to be read: kept-alive requests and responses,
#: with and without bodies, and the framing and start-line faults.
MESSAGES = st.lists(st.sampled_from([
    b"GET /v1/query?session_id=a%20b&x HTTP/1.1\r\nHost: h\r\n\r\n",
    b"POST /v1/abort HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    b"POST /v1/abort HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    b"GET http://h/x?y=1#f HTTP/1.1\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 x OK\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 x OK\r\nContent-Length: 9\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n{",
    b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    b"GET / HTTP/1.1\r\nBad : x\r\n\r\n",
    b"GET / HTTP/1.1\r\nContent-Length: +1\r\n\r\nx",
    b"GET /\r\n\r\n",
    b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
]), max_size=4).map(b"".join)


@FUZZ
@given(st.one_of(WIRE, MESSAGES))
@example(b"GET /a HTTP/1.1\r\n\r\nGET /b?c=d HTTP/1.1\r\nContent-Length: 1\r\n\r\nx")
@example(b"HTTP/1.1 x OK\r\nContent-Length: 5\r\n\r\nab")
def test_the_one_pass_reader_reads_what_the_two_step_reader_read(data):
    assert _read_all(read_request, data) == _read_all(reference_read_request, data)
    assert _read_all(read_response, data) == _read_all(reference_read_response, data)


#: Target pieces: the origin form and everything that leaves it.
TARGET_PIECES = [
    "/", "//", "?", "#", "&", "=", "%", "%2F", "%zz", "%E2%82%AC", "+", ";",
    "a", "B", "v1", ":", "@", "[", "]", "http:", "[::1", "é", "€", "\x00",
    "\x7f", "\t", "\r", "\n", " ", "\x1f",
]

TARGETS = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(TARGET_PIECES), max_size=12).map("".join),
    st.lists(st.sampled_from(TARGET_PIECES), max_size=12).map(lambda p: "/" + "".join(p)),
)


def _split_outcome(split, target):
    try:
        return split(target)
    except ProtocolError as exc:
        return str(exc)


@FUZZ
@given(TARGETS)
@example("/v1/availability?resources=cpu:H1,net:H1-H2")
@example("//h/p?q=1")
@example("/a?b=%zz&c+d=e+f&&g")
@example("/a\tb?c=d")
@example("/a?b=c#d")
@example("http://[::1")
def test_split_target_agrees_with_urlsplit(target):
    assert _split_outcome(split_target, target) == _split_outcome(reference_split, target)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@FUZZ
@given(JSON_VALUES)
@example({"b": 1.5, "a": [float("nan"), float("-inf"), "\u20ac\n"], "c": None})
def test_encode_json_is_sorted_key_json_dumps(value):
    assert encode_json(value) == json.dumps(value, sort_keys=True).encode("utf-8")


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
