"""Minimal HTTP/1.1 + WebSocket (RFC 6455) codec over asyncio streams.

The reservation daemon speaks plain HTTP for its admission API and a
WebSocket for the live event plane.  The container policy is stdlib-only
(no FastAPI/uvicorn/websockets), so this module implements exactly the
slice both ends need, and it is the only code that turns wire bytes into
messages and messages into wire bytes, at either end:

* one message reader behind :func:`read_request` and
  :func:`read_response`, with one set of bounds and one
  :class:`ProtocolError` for a malformed start or header line, a bad
  ``Content-Length``, an EOF mid-message or an unparsable target;
* one writer per direction, :func:`request_bytes` and
  :func:`response_bytes`, and one JSON body codec,
  :func:`encode_json` and :func:`decode_json`;
* the RFC 6455 opening handshake (``Sec-WebSocket-Accept``) and data
  framing -- unmasked server frames, masked client frames, 7/16/64-bit
  payload lengths, close/ping/pong control opcodes.

The servers (:mod:`repro.service.server`) and the client
(:mod:`repro.service.client`) both build on these primitives, so the
codec is exercised from both directions in every test.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "OP_TEXT",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
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
    "websocket_accept_key",
    "websocket_handshake_bytes",
    "encode_ws_frame",
    "read_ws_frame",
]

#: Bounds on every inbound message, read by either end.  A head is tiny
#: and the largest body is a full flight-ring dump (~4.7 MiB), so
#: anything larger is a confused (or hostile) peer, not a real message.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: RFC 6455 §1.3 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

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
    """Malformed HTTP message, JSON body or WebSocket frame."""


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

    @property
    def wants_websocket(self) -> bool:
        """True when the request asks to upgrade to a WebSocket."""
        upgrade = self.headers.get("upgrade", "").lower()
        connection = self.headers.get("connection", "").lower()
        return upgrade == "websocket" and "upgrade" in connection


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
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return start, headers


async def _read_body(reader: asyncio.StreamReader, length_text: str) -> bytes:
    """The ``Content-Length`` framed body, at most :data:`MAX_BODY_BYTES`."""
    try:
        length = int(length_text)
    except ValueError as exc:
        raise ProtocolError(f"bad Content-Length: {length_text!r}") from exc
    if length < 0 or length > MAX_BODY_BYTES:
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
    response without one is malformed -- except a ``101`` upgrade, which
    is a head only.
    """
    head = await _read_head(reader, "response")
    if head is None:
        return None
    (_version, status_text, _phrase), headers = head
    try:
        status = int(status_text)
    except ValueError as exc:
        raise ProtocolError(f"malformed status code: {status_text!r}") from exc
    if status == 101:
        return status, headers, b""
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


# -- WebSocket ---------------------------------------------------------------


def websocket_accept_key(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's key.

    ``hashlib`` is imported here, its only use: at module level it would
    map OpenSSL into every serving process for one SHA-1 per handshake.
    """
    import hashlib

    digest = hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def websocket_handshake_bytes(key: str) -> bytes:
    """The 101 Switching Protocols response completing the handshake."""
    return _message_bytes(
        [
            "HTTP/1.1 101 Switching Protocols",
            "Upgrade: websocket",
            "Connection: Upgrade",
            f"Sec-WebSocket-Accept: {websocket_accept_key(key)}",
        ]
    )


def encode_ws_frame(payload: bytes, *, opcode: int = OP_TEXT, mask: bool = False) -> bytes:
    """One final (FIN=1) WebSocket frame.

    Servers send unmasked frames; clients MUST mask (RFC 6455 §5.3),
    so the client passes ``mask=True``.
    """
    header = bytearray([0x80 | (opcode & 0x0F)])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        header.append(mask_bit | length)
    elif length < (1 << 16):
        header.append(mask_bit | 126)
        header += struct.pack("!H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack("!Q", length)
    if mask:
        key = os.urandom(4)
        header += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + payload


async def read_ws_frame(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one frame; returns (opcode, unmasked payload).

    Handles both masked (client-sent) and unmasked (server-sent) frames
    and the extended 16/64-bit payload lengths.  Raises
    :class:`ProtocolError` on EOF mid-frame or oversized payloads;
    fragmented messages (FIN=0) are refused -- every producer in this
    codebase sends final frames only.
    """
    try:
        first = await reader.readexactly(2)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    fin = first[0] & 0x80
    opcode = first[0] & 0x0F
    if not fin and opcode != 0:
        raise ProtocolError("fragmented WebSocket messages are not supported")
    masked = first[1] & 0x80
    length = first[1] & 0x7F
    try:
        if length == 126:
            length = struct.unpack("!H", await reader.readexactly(2))[0]
        elif length == 127:
            length = struct.unpack("!Q", await reader.readexactly(8))[0]
        if length > MAX_BODY_BYTES:
            raise ProtocolError(f"frame of {length} bytes refused")
        key = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    if masked:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload
