"""Minimal HTTP/1.1 codec over asyncio streams.

The reservation daemon and the cluster router speak plain HTTP.  The
container policy is stdlib-only (no FastAPI/uvicorn), so this module
implements exactly the slice both ends need, and it is the only code
that turns wire bytes into messages and messages into wire bytes, at
either end:

* one message reader behind :func:`read_request` and
  :func:`read_response`, with one set of bounds and one
  :class:`ProtocolError` for a malformed start or header line, a bad or
  repeated ``Content-Length``, any ``Transfer-Encoding``, an EOF
  mid-message or an unparsable target;
* one writer per direction, :func:`request_bytes` and
  :func:`response_bytes`, and one JSON body codec,
  :func:`encode_json` and :func:`decode_json`.

The servers (:mod:`repro.service.server`) and the client
(:mod:`repro.service.client`) both build on these primitives, so the
codec is exercised from both directions in every test.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from time import perf_counter as _perf_counter
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "Request",
    "read_request",
    "read_response",
    "split_target",
    "request_bytes",
    "response_bytes",
    "json_response_bytes",
    "encode_json",
    "decode_json",
]

#: Bounds on every inbound message, read by either end.  A head is tiny
#: and the largest body is a full flight-ring dump (~4.7 MiB), so
#: anything larger is a confused (or hostile) peer, not a real message.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """Malformed HTTP message or JSON body."""


@dataclass
class Request:
    """One parsed inbound HTTP request."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: The request line's version (an HTTP/1.0 request closes by default).
    version: str = "HTTP/1.1"
    #: ``perf_counter`` when the head was in (what the parse phase times).
    received: float = field(default=0.0, compare=False, repr=False)

    def json(self) -> dict:
        """The body decoded as a JSON object ({} when empty)."""
        if not self.body:
            return {}
        payload = decode_json(self.body)
        if not isinstance(payload, dict):
            raise ProtocolError("JSON body must be an object")
        return payload


async def _read_message(reader: asyncio.StreamReader, kind: str):
    """``(received, start line fields, headers, body)`` of one message.

    None on a clean EOF before any byte.  ``received`` is the
    ``perf_counter`` reading when the head was in.  A response's status
    code (an ``int`` in the start line fields) and its ``Content-Length``
    are checked before its body is read; a request without a
    ``Content-Length`` has an empty body.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(f"connection closed mid-{kind}") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(f"{kind} head exceeds the stream limit") from exc
    received = _perf_counter()
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(f"{kind} head exceeds {MAX_HEADER_BYTES} bytes")
    # The head ends in the one blank line, so every line between the
    # start line and the last two (empty) pieces is a header line.
    lines = head.decode("latin-1").split("\r\n")
    start = lines[0].split(" ", 2)
    if len(start) != 3:
        raise ProtocolError(f"malformed {kind} line: {head[:80]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:-2]:
        name, sep, value = line.partition(":")
        if not sep or name != name.strip():
            raise ProtocolError(f"malformed header line: {line!r}")
        name = name.lower()
        # Framing is Content-Length, given once, or nothing: a reader
        # that guessed would leave a body on the socket as a next request.
        if name == "transfer-encoding" or (name == "content-length" and name in headers):
            raise ProtocolError(f"refused framing header: {line!r}")
        headers[name] = value.strip()
    length_text = headers.get("content-length")
    if kind == "response":
        try:
            start[1] = int(start[1])
        except ValueError as exc:
            raise ProtocolError(f"malformed status code: {start[1]!r}") from exc
        if length_text is None:
            raise ProtocolError(f"HTTP {start[1]} response without Content-Length")
    if length_text is None:
        return received, start, headers, b""
    if not (length_text.isascii() and length_text.isdigit()):
        raise ProtocolError(f"bad Content-Length: {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {length} bytes refused")
    if not length:
        return received, start, headers, b""
    try:
        return received, start, headers, await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-body") from exc


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; None on clean EOF before any bytes arrive."""
    message = await _read_message(reader, "request")
    if message is None:
        return None
    received, (method, target, version), headers, body = message
    path, query = split_target(target)
    return Request(method.upper(), target, path, query, headers, body, version, received)


async def read_response(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, Dict[str, str], bytes]]:
    """Parse one response to ``(status, headers, body)``; None on clean EOF.

    Every server here frames its bodies with ``Content-Length``, so a
    response without one is malformed.
    """
    message = await _read_message(reader, "response")
    if message is None:
        return None
    _received, (_version, status, _phrase), headers, body = message
    return status, headers, body


def split_target(target: str) -> Tuple[str, Dict[str, str]]:
    """The ``(path, query)`` of a request target (query URL-decoded).

    An origin-form target -- a ``/`` not followed by another, printable
    ASCII, no ``#`` -- is split at its first ``?``, which is what
    ``urlsplit`` makes of it; any other target goes through ``urlsplit``.
    """
    if (
        target.startswith("/")
        and not target.startswith("//")
        and target.isascii()
        and target.isprintable()
        and "#" not in target
    ):
        path, _, query = target.partition("?")
    else:
        try:
            parts = urlsplit(target)
        except ValueError as exc:
            raise ProtocolError(f"unparsable request target: {target[:80]!r}") from exc
        path, query = parts.path, parts.query
    if not query:
        return path, {}
    return path, dict(parse_qsl(query, keep_blank_values=True))


def request_bytes(
    method: str, target: str, headers: Dict[str, object], body: bytes = b""
) -> bytes:
    """Serialize one request; ``headers`` are written in their order."""
    lines = "".join([f"{name}: {value}\r\n" for name, value in headers.items()])
    return f"{method} {target} HTTP/1.1\r\n{lines}\r\n".encode("latin-1") + body


def response_bytes(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    close: bool = True,
) -> bytes:
    """Serialize one HTTP response.

    ``close=False`` advertises ``Connection: keep-alive`` so the peer
    may reuse the socket; bodies always carry ``Content-Length``, which
    is what makes reuse safe to frame.
    """
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    connection = "close" if close else "keep-alive"
    return (
        f"HTTP/1.1 {status} {phrase}\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\nConnection: {connection}\r\n\r\n"
    ).encode("latin-1") + body


#: ``json.dumps(..., sort_keys=True)``'s encoder: the fallback where the
#: C accelerator is absent, and the settings of the C encoder below.
_SORTED = json.JSONEncoder(sort_keys=True)

#: One C encoder, built once with ``_SORTED``'s settings, where
#: ``JSONEncoder.encode`` builds one (and a float closure) per call.  It
#: keeps no circular-reference markers: a document is a tree the program
#: built, and a cycle would end in ``RecursionError``.
_c_encode = c_make_encoder and c_make_encoder(
    None,
    _SORTED.default,
    encode_basestring_ascii,
    _SORTED.indent,
    _SORTED.key_separator,
    _SORTED.item_separator,
    _SORTED.sort_keys,
    _SORTED.skipkeys,
    _SORTED.allow_nan,
)


def encode_json(document: object) -> bytes:
    """The one JSON body encoding: sorted keys, UTF-8."""
    if _c_encode is None:
        return _SORTED.encode(document).encode("utf-8")
    return "".join(_c_encode(document, 0)).encode("utf-8")


def decode_json(body: bytes) -> object:
    """A JSON body's value; :class:`ProtocolError` on bad UTF-8 or JSON."""
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"invalid JSON body: {exc}") from exc


def json_response_bytes(status: int, payload: object, *, close: bool = True) -> bytes:
    """A JSON response with deterministic key order."""
    return response_bytes(status, encode_json(payload), close=close)

