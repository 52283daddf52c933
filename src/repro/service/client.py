"""Asyncio client for the reservation daemon's admission API.

One :class:`ServiceClient` talks to one daemon.  Admission calls share
a small keep-alive connection pool: a socket is opened on demand,
parked after a ``Connection: keep-alive`` response, and reused by the
next request.

An exchange has two halves.  :meth:`ServiceClient.send` writes the
request at once, on an idle pooled socket (with none idle, a new socket
is opened in a task and written to as soon as it is up), and returns an
awaitable for the reply; awaiting it reads the reply and parks or
closes the socket.  :meth:`ServiceClient.request` runs the two halves
back to back.  A caller with several daemons to ask -- the cluster
router -- writes to all of them first and then reads each reply, with
no task per exchange.

A ``GET`` that finds its pooled socket already closed by the daemon is
resent once, on another socket, when the old socket died before yielding
any response bytes.  Any other method is
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
derived from it, and the exchange's reply half is recorded as a
``client.request`` span on the installed tracer -- that is how the
daemon's spans and the caller's spans end up sharing a trace id, which
``repro-obs stitch`` later joins into one cross-process timeline.
Without a bound context the wire format is byte-for-byte what it always
was.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Dict, List, NamedTuple, Optional, Tuple

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


#: One keep-alive socket's two streams.
_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


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
        self._host_field = f"{host}:{port}"
        self._pool: List[_Connection] = []
        #: Raw sockets opened so far (pool misses + ``Connection: close``).
        self.connections_opened = 0
        #: Requests served over a previously used socket.
        self.connections_reused = 0

    # -- connection pool ---------------------------------------------------

    async def _open(self, wire: bytes) -> _Connection:
        """A new socket, with ``wire`` written on it."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self.connections_opened += 1
        writer.write(wire)
        return reader, writer

    def _write(self, wire: bytes) -> Tuple[Optional[_Connection], Optional[asyncio.Task]]:
        """Write ``wire`` on an idle pooled socket now: ``(socket, None)``.

        With none idle, a new socket is opened in a task of its own, which
        writes ``wire`` as soon as the socket is up: ``(None, task)``.
        """
        while self._pool:
            reader, writer = self._pool.pop()
            if writer.is_closing():
                writer.close()
                continue
            self.connections_reused += 1
            writer.write(wire)
            return (reader, writer), None
        return None, asyncio.ensure_future(self._open(wire))

    async def aclose(self) -> None:
        """Close every pooled connection (call when done with the client)."""
        while self._pool:
            _, writer = self._pool.pop()
            await _close_writer(writer)

    # -- raw exchange ------------------------------------------------------

    def send(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        headers: Optional[Dict[str, str]] = None,
        checked: bool = False,
    ) -> Awaitable:
        """Write one request now; await what this returns for the reply.

        The first half of an exchange: the request is on a pooled socket
        when this returns (a new socket writes it as soon as it is up), so
        a caller may write to several daemons and then read each reply in
        turn, with no task per exchange.  The returned awaitable is the
        second half; it must be awaited, since it returns the socket to
        the pool or closes it.  It gives the :class:`ServiceResponse`, or
        with ``checked`` what :meth:`ServiceResponse.checked` makes of it.
        """
        body = b"" if payload is None else _http.encode_json(payload)
        fields = {
            "Host": self._host_field,
            "Connection": "keep-alive",
            "Content-Length": len(body),
            "Content-Type": "application/json",
        }
        if headers:
            fields.update(headers)
        context = _context.current_trace_context()
        if context is not None:
            # A fresh span id per request keeps retries distinguishable
            # on the daemon side while staying inside the same trace.
            child = _context.child_context(context, request_id=context.request_id)
            fields.setdefault(
                _context.TRACEPARENT_HEADER, _context.format_traceparent(child)
            )
            if child.request_id is not None:
                fields.setdefault(_context.REQUEST_ID_HEADER, child.request_id)
        wire = _http.request_bytes(method, path, fields, body)
        return self._reply(method, path, wire, *self._write(wire), checked)

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServiceResponse:
        """One request/response exchange: :meth:`send`, then its reply."""
        return await self.send(method, path, payload, headers=headers)

    async def _reply(
        self,
        method: str,
        path: str,
        wire: bytes,
        connection: Optional[_Connection],
        opening: Optional[asyncio.Task],
        checked: bool,
    ):
        """The second half of an exchange: the reply to ``wire``.

        ``wire`` went out on the pooled ``connection``, or goes out on the
        socket ``opening`` brings up.
        """
        with _trace.span("client.request", method=method, path=path) as span:
            for attempt in (0, 1):
                reused = opening is None
                try:
                    if connection is None:
                        connection = await opening
                    reader, writer = connection
                    if writer.transport.get_write_buffer_size():
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
                    if connection is None:
                        opening.add_done_callback(_close_opened)
                    else:
                        await _close_writer(connection[1])
                    if reused and isinstance(exc, OSError):
                        self.connections_reused -= 1
                        if attempt == 0 and method == "GET":
                            connection, opening = self._write(wire)
                            continue
                    raise
                response = ServiceResponse(*parts)
                if response.headers.get("connection", "").lower() != "close":
                    self._pool.append(connection)
                else:
                    await _close_writer(writer)
                span.set(status=response.status)
                break
        return response.checked() if checked else response

    def _call(self, method: str, path: str, payload: Optional[dict] = None):
        return self.send(method, path, payload, checked=True)

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


def _close_opened(opening: asyncio.Task) -> None:
    """Close the socket a task opened for an exchange that was given up."""
    if not opening.cancelled() and opening.exception() is None:
        opening.result()[1].close()


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover
        pass
