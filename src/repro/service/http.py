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
from typing import Dict, List, Optional, Tuple
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

    def json(self) -> dict:
        """The body decoded as a JSON object ({} when empty)."""
        if not self.body:
            return {}
        payload = decode_json(self.body)
        if not isinstance(payload, dict):
            raise ProtocolError("JSON body must be an object")
        return payload


async def _read_head(reader: asyncio.StreamReader, kind: str):
    """``(start line fields, headers)`` of one message; None on clean EOF."""
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
        # Framing is Content-Length, given once, or nothing: a reader
        # that guessed would leave a body on the socket as a next request.
        if name == "transfer-encoding" or (name == "content-length" and name in headers):
            raise ProtocolError(f"refused framing header: {line!r}")
        headers[name] = value.strip()
    return start, headers


async def _read_body(reader: asyncio.StreamReader, length_text: str) -> bytes:
    """The ``Content-Length`` framed body, at most :data:`MAX_BODY_BYTES`."""
    if not (length_text.isascii() and length_text.isdigit()):
        raise ProtocolError(f"bad Content-Length: {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {length} bytes refused")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-body") from exc


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; None on clean EOF before any bytes arrive."""
    head = await _read_head(reader, "request")
    if head is None:
        return None
    (method, target, _version), headers = head
    body = await _read_body(reader, headers.get("content-length", "0"))
    path, query = split_target(target)
    return Request(method.upper(), target, path, query, headers, body)


async def read_response(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, Dict[str, str], bytes]]:
    """Parse one response to ``(status, headers, body)``; None on clean EOF.

    Every server here frames its bodies with ``Content-Length``, so a
    response without one is malformed.
    """
    head = await _read_head(reader, "response")
    if head is None:
        return None
    (_version, status_text, _phrase), headers = head
    try:
        status = int(status_text)
    except ValueError as exc:
        raise ProtocolError(f"malformed status code: {status_text!r}") from exc
    if "content-length" not in headers:
        raise ProtocolError(f"HTTP {status} response without Content-Length")
    return status, headers, await _read_body(reader, headers["content-length"])


def split_target(target: str) -> Tuple[str, Dict[str, str]]:
    """The ``(path, query)`` of a request target (query URL-decoded)."""
    try:
        parts = urlsplit(target)
    except ValueError as exc:
        raise ProtocolError(f"unparsable request target: {target[:80]!r}") from exc
    return parts.path, dict(parse_qsl(parts.query, keep_blank_values=True))


def _message_bytes(lines: List[str], body: bytes = b"") -> bytes:
    """A start line and header lines, the blank line, then ``body``."""
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def request_bytes(
    method: str, target: str, headers: Dict[str, object], body: bytes = b""
) -> bytes:
    """Serialize one request; ``headers`` are written in their order."""
    start = f"{method} {target} HTTP/1.1"
    return _message_bytes([start, *(f"{k}: {v}" for k, v in headers.items())], body)


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
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close" if close else "Connection: keep-alive",
    ]
    return _message_bytes(lines, body)


#: ``json.dumps(..., sort_keys=True)`` minus the encoder it builds per
#: call (only an all-defaults ``dumps`` reuses json's shared encoder).
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def encode_json(document: object) -> bytes:
    """The one JSON body encoding: sorted keys, UTF-8."""
    return _encode_sorted(document).encode("utf-8")


def decode_json(body: bytes) -> object:
    """A JSON body's value; :class:`ProtocolError` on bad UTF-8 or JSON."""
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"invalid JSON body: {exc}") from exc


def json_response_bytes(status: int, payload: object, *, close: bool = True) -> bytes:
    """A JSON response with deterministic key order."""
    return response_bytes(status, encode_json(payload), close=close)

