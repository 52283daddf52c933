"""Asyncio client for the reservation daemon's admission API.

One :class:`ServiceClient` talks to one daemon.  Admission calls share
a small keep-alive connection pool: a socket is opened on demand,
parked after a ``Connection: keep-alive`` response, and reused by the
next request.  A ``GET`` that finds its pooled socket already closed
by the daemon is retried once on a fresh connection, when the old
socket died before yielding any response bytes.  Any other method is
not resent: a daemon may have read the request and run it before the
connection dropped, and only a ``GET`` is idempotent here (RFC 9110
§9.2.2), so the call raises and its outcome is unknown.  Every byte read or written goes
through :mod:`repro.service.http`, so a reply the codec refuses (a bad
``Content-Length``, a body over the bound, a missing length, non-JSON
where JSON is due) raises :class:`~repro.service.http.ProtocolError`.
That error and the transport's own (no answer at all) make up
:data:`UNREACHABLE`: a call that raises one of them has an outcome its
caller cannot know.
:attr:`ServiceClient.connections_opened` and
:attr:`ServiceClient.connections_reused` count the raw socket traffic
(the load generator surfaces them in its report).

The client is also the reference consumer of the wire protocol: the
daemon's tests drive every endpoint through it.

When a trace context is bound (see :mod:`repro.obs.context`), every
request carries W3C-style ``traceparent`` and ``x-request-id`` headers
derived from it, and the exchange is recorded as a ``client.request``
span on the installed tracer -- that is how the daemon's spans and the
caller's spans end up sharing a trace id, which ``repro-obs stitch``
later joins into one cross-process timeline.  Without a bound context
the wire format is byte-for-byte what it always was.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.obs import context as _context
from repro.obs import trace as _trace
from repro.service import http as _http

__all__ = [
    "ServiceClient",
    "ServiceResponse",
    "ServiceClientError",
    "ServiceDrainingError",
    "UNREACHABLE",
]


class ServiceClientError(RuntimeError):
    """The daemon answered with an error status (carries the body)."""

    def __init__(self, status: int, payload: object) -> None:
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload


class ServiceDrainingError(ServiceClientError):
    """The daemon refused the request because it is shutting down.

    A drain refusal is not an admission verdict: the cluster router
    treats it as "this shard is leaving, don't count the session as
    rejected on merit" and callers may retry elsewhere.
    """


#: What a call raises when its peer did not answer, or answered with
#: bytes that are no reply: the call's outcome is unknown to the caller.
UNREACHABLE = (OSError, _http.ProtocolError, asyncio.TimeoutError)


class ServiceResponse(NamedTuple):
    """One parsed HTTP response."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> object:
        return _http.decode_json(self.body) if self.body else None

    def checked(self) -> object:
        """The decoded body of a 200; any other status raises its typed error.

        A 503 whose body says ``draining`` (the servers' drain refusal)
        is a :class:`ServiceDrainingError`.
        """
        document = self.json()
        if self.status == 200:
            return document
        draining = isinstance(document, dict) and document.get("draining") is True
        if self.status == 503 and draining:
            raise ServiceDrainingError(self.status, document)
        raise ServiceClientError(self.status, document)


class ServiceClient:
    """Talks to one :class:`~repro.service.daemon.ReservationDaemon`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._pool: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        #: Raw sockets opened so far (pool misses + ``Connection: close``).
        self.connections_opened = 0
        #: Requests served over a previously used socket.
        self.connections_reused = 0

    # -- connection pool ---------------------------------------------------

    async def _acquire(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        """A (reader, writer, reused) triple: pooled if possible."""
        while self._pool:
            reader, writer = self._pool.pop()
            if writer.is_closing():
                await _close_writer(writer)
                continue
            self.connections_reused += 1
            return reader, writer, True
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self.connections_opened += 1
        return reader, writer, False

    def _release(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._pool.append((reader, writer))

    async def aclose(self) -> None:
        """Close every pooled connection (call when done with the client)."""
        while self._pool:
            _, writer = self._pool.pop()
            await _close_writer(writer)

    # -- raw exchange ------------------------------------------------------

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServiceResponse:
        """One request/response exchange (pooled connection when possible)."""
        body = b"" if payload is None else _http.encode_json(payload)
        fields = {
            "Host": f"{self.host}:{self.port}",
            "Connection": "keep-alive",
            "Content-Length": len(body),
            "Content-Type": "application/json",
            **(headers or {}),
        }
        context = _context.current_trace_context()
        if context is not None:
            # A fresh span id per request keeps retries distinguishable
            # on the daemon side while staying inside the same trace.
            child = _context.child_context(context, request_id=context.request_id)
            fields.setdefault(_context.TRACEPARENT_HEADER, child.traceparent())
            if child.request_id is not None:
                fields.setdefault(_context.REQUEST_ID_HEADER, child.request_id)
        wire = _http.request_bytes(method, path, fields, body)
        with _trace.span("client.request") as span:
            span.set(method=method, path=path)
            for attempt in (0, 1):
                reader, writer, reused = await self._acquire()
                try:
                    writer.write(wire)
                    await writer.drain()
                    parts = await _http.read_response(reader)
                    if parts is None:
                        raise ConnectionResetError("closed before any response bytes")
                except BaseException as exc:
                    # A failed exchange never returns to the pool: its
                    # stream may sit mid-message.  The daemon may close an
                    # idle pooled socket at any time; a GET is resent
                    # when no response bytes arrived.  Anything else may
                    # have run before the socket died, so it raises.
                    await _close_writer(writer)
                    if reused and isinstance(exc, OSError):
                        self.connections_reused -= 1
                        if attempt == 0 and method == "GET":
                            continue
                    raise
                response = ServiceResponse(*parts)
                if response.headers.get("connection", "").lower() != "close":
                    self._release(reader, writer)
                else:
                    await _close_writer(writer)
                span.set(status=response.status)
                return response
            raise AssertionError("unreachable")  # pragma: no cover

    async def _call(self, method: str, path: str, payload: Optional[dict] = None):
        return (await self.request(method, path, payload)).checked()

    # -- admission API -----------------------------------------------------

    async def establish(self, **fields) -> dict:
        """``POST /v1/establish`` (service=, domain=, session_id=, ...)."""
        return await self._call("POST", "/v1/establish", fields)

    async def establish_batch(self, arrivals: List[dict]) -> List[dict]:
        """``POST /v1/establish_batch`` over a list of arrival dicts."""
        return await self._call(
            "POST", "/v1/establish_batch", {"arrivals": arrivals}
        )

    async def renegotiate(self, session_id: str, *, trigger: str = "api") -> dict:
        return await self._call(
            "POST", "/v1/renegotiate", {"session_id": session_id, "trigger": trigger}
        )

    async def teardown(self, session_id: str) -> dict:
        return await self._call("POST", "/v1/teardown", {"session_id": session_id})

    # -- cluster 2PC API ---------------------------------------------------

    async def availability(self) -> dict:
        """``GET /v1/availability`` -- the daemon's owned-resource view."""
        return await self._call("GET", "/v1/availability")

    async def reserve(self, session_id: str, demands: Dict[str, float]) -> dict:
        """``POST /v1/reserve`` -- hold capacity on a TTL lease."""
        return await self._call(
            "POST", "/v1/reserve", {"session_id": session_id, "demands": demands}
        )

    async def commit(self, lease_id: str, session: Optional[dict] = None) -> dict:
        """``POST /v1/commit`` -- make a lease permanent."""
        payload: dict = {"lease_id": lease_id}
        if session is not None:
            payload["session"] = session
        return await self._call("POST", "/v1/commit", payload)

    async def abort(self, lease_id: str) -> dict:
        """``POST /v1/abort`` -- release a lease's holds (idempotent)."""
        return await self._call("POST", "/v1/abort", {"lease_id": lease_id})

    async def query(self, session_id: Optional[str] = None) -> dict:
        path = "/v1/query"
        if session_id is not None:
            path += f"?session_id={session_id}"
        return await self._call("GET", path)

    async def healthz(self) -> dict:
        return await self._call("GET", "/healthz")

    async def metrics(self) -> str:
        """The raw Prometheus exposition text from ``/metrics``."""
        response = await self.request("GET", "/metrics")
        if response.status != 200:
            raise ServiceClientError(response.status, response.body)
        return response.body.decode("utf-8")


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover
        pass
