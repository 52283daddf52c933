"""The one HTTP/1.1 serving shell of the network-facing daemons.

:class:`ServingShell` owns everything about a daemon that is not its
routes: the listening socket and its lifecycle, the keep-alive request
loop, the ``Connection: close`` decision, trace-context continuation,
the 400 a malformed request earns, the 500 a route that raises earns,
the access log, the wire counters, and the drain flag with its
in-flight barrier.  The wire counters are one dict, :attr:`ServingShell.wire`
(``requests``, ``response_bytes``, ``protocol_errors``,
``unhandled_exceptions``, each present once counted): ``/healthz``
reads ``requests`` from it, and a daemon with a flight recorder makes it
the recorder's dict, so a dump's ``wire`` section is what the shell
counted.
:class:`~repro.service.daemon.ReservationDaemon` and
:class:`~repro.cluster.router.ClusterDaemon` subclass it and supply
four things: ``_dispatch`` (their routes), the two hooks behind the
probes every daemon answers (``GET /healthz``, ``GET /metrics``), the
admissions they run under the shell's lock between
:meth:`ServingShell._enter_admission` and
:meth:`ServingShell._exit_admission`, and one background task.

Every request is handled under a request-scoped
:class:`~repro.obs.context.TraceContext` -- continued from the caller's
``traceparent`` header when present and valid, a fresh root otherwise (a
malformed header never fails a request) -- so every span and causal
event the request causes carries its ``trace_id``/``request_id``.
"""

from __future__ import annotations

import asyncio
import json
import sys as _sys
import time as _time
from typing import Dict, Optional

from repro.obs import context as _context
from repro.service import http as _http

__all__ = ["DRAIN_REFUSAL", "ServingShell"]

#: The 503 body a draining daemon answers work it will not take on with;
#: :class:`~repro.service.client.ServiceClient` raises it as the typed
#: ``ServiceDrainingError``.
DRAIN_REFUSAL = {"error": "daemon is shutting down", "draining": True}

#: The two probe paths the shell answers itself, before ``_dispatch``.
_PROBES = ("/healthz", "/metrics")


class ServingShell:
    """Listener, request loop and drain barrier around ``_dispatch``."""

    #: Prefix of the request id given to a request that names none.
    request_id_prefix = "req"

    def __init__(
        self, host: str, port: int, *, drain_timeout: float, access_log: bool = False
    ) -> None:
        #: Transport counters, created at zero on first use.
        self.wire: Dict[str, int] = {}
        self._host = host
        self._bind_port = port
        self._drain_timeout = drain_timeout
        self._log_requests = access_log
        self._started_at = _time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        #: Serializes admissions, so decisions for a given request order
        #: are deterministic; the reaper/flush tasks take it too.
        self._lock = asyncio.Lock()
        self._inflight = 0
        self._drained = asyncio.Event()
        self._drained.set()
        self._draining = False
        #: Open keep-alive connections (closed forcibly on shutdown so
        #: idle clients never stall ``Server.wait_closed``).
        self._connections: set = set()
        #: The daemon's one background task, cancelled by :meth:`shutdown`.
        self._background: Optional[asyncio.Task] = None

    # -- what a daemon supplies --------------------------------------------

    async def _dispatch(self, request: _http.Request, close: bool) -> bytes:
        """The serialized response to one request (the daemon's routes)."""
        raise NotImplementedError

    def _health_fields(self) -> dict:
        """The role-specific ``/healthz`` fields, beside the shell's own."""
        raise NotImplementedError

    def _metrics_text(self) -> str:
        """The ``/metrics`` body (Prometheus text format)."""
        raise NotImplementedError

    def _on_unhandled(self, exc: Exception) -> None:
        """A route raised ``exc`` (answered ``500``): count it."""
        self.wire["unhandled_exceptions"] = self.wire.get("unhandled_exceptions", 0) + 1

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves port 0 after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("daemon is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listening socket."""
        # asyncio reads each socket with recv(256 KiB).  That is above
        # glibc's initial 128 KiB mmap threshold, so every request would
        # map, fault in and unmap a fresh buffer (2 minor faults per
        # GET /healthz).  Freeing one mmapped 1 MiB block raises glibc's
        # dynamic threshold past it, and the reads come from the heap.
        bytearray(1 << 20)
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._bind_port
        )

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI entry points' core)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    def _enter_admission(self) -> None:
        """Count one admission in flight, from before it waits on the lock.

        The window covers lock wait + execution, so shutdown's drain
        barrier sees every request that was accepted before the draining
        flag flipped.  Always paired with :meth:`_exit_admission` in a
        ``finally``.  (Two plain calls, not a context manager: an async
        one cost 25 us per admission on the benchmark.)
        """
        self._inflight += 1
        self._drained.clear()

    def _exit_admission(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._drained.set()

    async def shutdown(self, *, drain: Optional[bool] = True) -> None:
        """Stop accepting work, drain in-flight admissions, stop listening.

        New work is refused with 503 the moment shutdown begins;
        admissions already past :meth:`_enter_admission` complete (bounded
        by ``drain_timeout``).  Then the background task is cancelled
        and the socket and any idle keep-alive connections are closed.
        """
        self._draining = True
        if drain:
            try:
                await asyncio.wait_for(
                    self._drained.wait(), timeout=self._drain_timeout
                )
            except asyncio.TimeoutError:  # pragma: no cover - pathological
                pass
        if self._background is not None:
            self._background.cancel()
            try:
                await self._background
            except asyncio.CancelledError:
                pass
            self._background = None
        if self._server is not None:
            self._server.close()
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests until the client closes or asks us to.

        HTTP/1.1 keep-alive: the loop reads back-to-back requests off
        one socket; a clean EOF between requests ends it, and a
        ``Connection: close`` request header, an HTTP/1.0 request that
        does not ask for ``keep-alive`` (RFC 9112 §9.3), or drain makes
        the next response the last one.  A response is drained only when
        the transport could not send it whole.
        """
        self._connections.add(writer)
        wire = self.wire
        transport = writer.transport
        try:
            while True:
                started = _time.perf_counter()
                request: Optional[_http.Request] = None
                context: Optional[_context.TraceContext] = None
                response: Optional[bytes] = None
                try:
                    request = await _http.read_request(reader)
                    if request is None:
                        return
                    wire["requests"] = wire.get("requests", 0) + 1
                    connection = request.headers.get("connection", "").lower()
                    close = (
                        self._draining
                        or connection == "close"
                        or (request.version == "HTTP/1.0" and connection != "keep-alive")
                    )
                    context = self._context_for(request)
                    token = _context.bind_trace_context(context)
                    try:
                        if request.method == "GET" and request.path in _PROBES:
                            response = self._probe(request.path, close)
                        else:
                            response = await self._dispatch(request, close)
                    except _http.ProtocolError:
                        raise  # a malformed body: the 400 below
                    except Exception as exc:
                        # No route expects it: the caller still gets an
                        # answer, and the connection stays usable.
                        self._on_unhandled(exc)
                        response = _http.json_response_bytes(
                            500, {"error": f"{type(exc).__name__}: {exc}"}, close=close
                        )
                    finally:
                        _context.reset_trace_context(token)
                    writer.write(response)
                    if transport.get_write_buffer_size():
                        await writer.drain()
                    wire["response_bytes"] = wire.get("response_bytes", 0) + len(response)
                except _http.ProtocolError as exc:
                    wire["protocol_errors"] = wire.get("protocol_errors", 0) + 1
                    try:
                        response = _http.json_response_bytes(400, {"error": str(exc)})
                        writer.write(response)
                        await writer.drain()
                    except (ConnectionError, RuntimeError):  # pragma: no cover
                        pass
                    return
                except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
                    return
                finally:
                    if (
                        self._log_requests
                        and request is not None
                        and response is not None
                    ):
                        self._access_log(request, response, started, context)
                if close:
                    return
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):  # pragma: no cover
                pass

    def _probe(self, path: str, close: bool) -> bytes:
        """``GET /healthz`` and ``GET /metrics``, the same on every daemon."""
        if path == "/metrics":
            return _http.response_bytes(
                200,
                self._metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4",
                close=close,
            )
        return _http.json_response_bytes(
            200,
            {
                "status": "draining" if self._draining else "ok",
                "requests": self.wire["requests"],
                "uptime_seconds": _time.monotonic() - self._started_at,
                "inflight_admissions": self._inflight,
                "draining": self._draining,
                **self._health_fields(),
            },
            close=close,
        )

    def _context_for(self, request: _http.Request) -> _context.TraceContext:
        """The request's trace context: continued or a fresh root.

        A valid ``traceparent`` header continues the caller's trace; a
        missing, truncated or malformed one silently starts a fresh root
        -- bad propagation must never fail a request.
        """
        request_id = request.headers.get(_context.REQUEST_ID_HEADER) or (
            f"{self.request_id_prefix}-{self.wire['requests']}"
        )
        parent = _context.parse_traceparent(
            request.headers.get(_context.TRACEPARENT_HEADER)
        )
        if parent is None:
            return _context.new_trace_context(request_id=request_id)
        return _context.TraceContext(
            parent.trace_id, parent.span_id, parent.parent_id, request_id
        )

    def _access_log(
        self,
        request: _http.Request,
        response: bytes,
        started: float,
        context: Optional[_context.TraceContext],
    ) -> None:
        """One structured JSON line per request, to stderr.

        ``started`` is when the shell began *waiting* for the request,
        so ``duration_ms`` includes keep-alive idle time.
        """
        try:
            status = int(response[9:12])
        except (ValueError, IndexError):  # pragma: no cover - defensive
            status = 0
        line = {
            "ts": round(_time.time(), 6),
            "method": request.method,
            "path": request.path,
            "status": status,
            "duration_ms": round(1e3 * (_time.perf_counter() - started), 3),
            "trace_id": context.trace_id if context else None,
            "request_id": context.request_id if context else None,
        }
        print(json.dumps(line, sort_keys=True), file=_sys.stderr, flush=True)
