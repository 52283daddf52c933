"""What a daemon process carries: no numpy, no OpenSSL, no simulator.

The serving path (``repro-serve``, ``repro-cluster``) draws its grid's
capacities from the pure-Python PCG64 stream, so a daemon that never
plans with ``--algorithm random`` never imports numpy.  It speaks plain
HTTP, so its ``main()`` keeps ``ssl`` out of the process, and nothing on
it imports ``hashlib``; the package inits import only what a caller
names, so the simulator's experiment layer (and ``multiprocessing`` with
it) stays out too.  Each import check runs in a
fresh interpreter: the test runner itself has all of these loaded.  What
a full event ring and a full span ring occupy is walked in-process.
What one hop costs in Python is counted in calls into ``src/repro``:
a shard serving a router's requests, and a client's exchange.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import re
import subprocess
import sys
import textwrap
import itertools
import types

import pytest

from repro.obs import context as _context
from repro.obs.flight import SPAN_CAPACITY
from repro.service import DaemonConfig, ReservationDaemon, ReservationService
from repro.service import ServiceClient
from repro.service import http as wire_codec
from tests.test_examples import REPO, subprocess_env
from tests.test_record_once import admit_and_release, wrap_the_ring
from tests.test_service_daemon import VALID_PAIRS


def run_python(source: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        cwd=REPO,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_daemons_and_router_serve_without_importing_numpy():
    out = run_python(
        """
        import asyncio, sys
        import repro.service.cli, repro.cluster.cli
        from repro.cluster import ClusterCoordinator, LocalShardClient
        from repro.service.daemon import DaemonConfig, ReservationService

        def serve(config, service_name, domain):
            service = ReservationService(config)
            service.start()
            try:
                session = {"service": service_name, "domain": domain,
                           "session_id": "one"}
                assert service.handle("POST", "/v1/establish", {}, session)[0] == 200
                assert service.handle("POST", "/v1/teardown", {}, session)[0] == 200
            finally:
                service.close()

        serve(DaemonConfig(seed=7), "S2", "D1")
        serve(DaemonConfig(seed=3, shard_index=0, shard_count=3), "S1", "D7")

        async def route():
            shard = LocalShardClient(0, ReservationService(DaemonConfig(seed=7)))
            router = ClusterCoordinator([shard], seed=7)
            session = {"service": "S2", "domain": "D1", "session_id": "one"}
            assert (await router.establish(session))[0] == 200
            assert (await router.teardown(session))[0] == 200

        asyncio.run(route())
        print("numpy" in sys.modules)
        """
    )
    assert out.strip() == "False"


def test_importing_the_clis_loads_neither_asyncio_nor_the_simulator():
    out = run_python(
        """
        import sys
        import repro.service.cli, repro.cluster.cli
        loaded = [name for name in ("asyncio", "repro.sim.experiment",
                                    "multiprocessing", "ssl", "hashlib")
                  if name in sys.modules]
        import ssl, hashlib  # a library import leaves ssl importable
        print(loaded, ssl.OPENSSL_VERSION_NUMBER > 0,
              hashlib.sha1(b"").hexdigest()[:8])
        """
    )
    assert out.split() == ["[]", "True", "da39a3ee"]


def boot(module: str, *args: str) -> tuple:
    """``python -m module --port 0 args``: the process and its bound port."""
    process = subprocess.Popen(
        [sys.executable, "-m", module, "--port", "0", *args],
        cwd=REPO,
        env=subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"listening on [^:]+:(\d+) ", line)
    if not match:
        process.kill()
        process.wait(timeout=10)
        raise AssertionError(f"{module}: no boot line: {line!r}")
    return process, int(match.group(1))


def stop(*processes: subprocess.Popen) -> None:
    for process in processes:
        process.terminate()
    for process in processes:
        process.wait(timeout=10)
        process.stdout.close()


def post(port: int, path: str, payload: dict) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", path, json.dumps(payload),
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 200, response.read()
        return json.loads(response.read())
    finally:
        connection.close()


#: The shared objects that would mean OpenSSL or multiprocessing is in.
UNWANTED_LIBRARIES = re.compile(r"/(_ssl|_hashlib|_multiprocessing)\.[^/\s]*$",
                                re.MULTILINE)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_serving_processes_map_no_openssl_and_no_multiprocessing():
    """Two shard daemons and a router serve an establish and a teardown."""
    processes = []
    try:
        ports = []
        for index in range(2):
            process, port = boot("repro.service.cli", "--seed", "7",
                                 "--shard-index", str(index), "--shard-count", "2")
            processes.append(process)
            ports.append(port)
        shard_flags = [flag for port in ports
                       for flag in ("--shard", f"127.0.0.1:{port}")]
        router, router_port = boot("repro.cluster.cli", "--seed", "7", *shard_flags)
        processes.append(router)
        session = {"service": "S2", "domain": "D1", "session_id": "one"}
        assert post(router_port, "/v1/establish", session)["success"] is True
        assert post(router_port, "/v1/teardown", session)["released"] > 0
        mapped = {}
        for process in processes:
            with open(f"/proc/{process.pid}/maps") as maps:
                mapped[process.pid] = sorted(
                    set(UNWANTED_LIBRARIES.findall(maps.read()))
                )
    finally:
        stop(*processes)
    assert mapped == {process.pid: [] for process in processes}


#: sha256 of the 40 ``/v1/establish`` answers below, read off the tree
#: that still drew the grid's capacities through numpy.
RANDOM_PLANNER_DIGEST = "ca676dd76e7c443a491a7fa49c46ace4d15bd58ffb6f4e6199dabbe1533d840c"


def test_random_planner_imports_numpy_on_use_and_keeps_its_decisions():
    out = run_python(
        """
        import hashlib, json, sys
        from repro.service.daemon import DaemonConfig, ReservationService

        before = "numpy" in sys.modules
        service = ReservationService(DaemonConfig(seed=7, algorithm="random"))
        after = "numpy" in sys.modules
        service.start()
        answers = []
        try:
            pairs = [("S2", "D1"), ("S1", "D3"), ("S3", "D7"), ("S4", "D2"), ("S1", "D8")]
            for i in range(40):
                service_name, domain = pairs[i % len(pairs)]
                answers.append(service.handle("POST", "/v1/establish", {}, {
                    "service": service_name, "domain": domain,
                    "session_id": f"s{i}", "demand_scale": 2.0,
                }))
        finally:
            service.close()
        digest = hashlib.sha256(
            json.dumps(answers, sort_keys=True, default=str).encode()
        ).hexdigest()
        print(before, after, digest)
        """
    )
    assert out.split() == ["False", "True", RANDOM_PLANNER_DIGEST]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_request_does_not_fault_in_fresh_pages():
    """asyncio's 256 KiB socket reads stay on the heap, not in a new mmap."""
    process, port = boot("repro.service.cli")
    try:
        connection = http.client.HTTPConnection("127.0.0.1", port)

        def healthz(count: int) -> None:
            for _ in range(count):
                connection.request("GET", "/healthz")
                assert connection.getresponse().read()

        def minor_faults() -> int:
            with open(f"/proc/{process.pid}/stat") as stat:
                return int(stat.read().rsplit(")", 1)[1].split()[7])

        healthz(200)
        before = minor_faults()
        healthz(1000)
        faults = minor_faults() - before
        connection.close()
    finally:
        stop(process)
    assert faults / 1000 <= 0.1


#: What a full event ring may occupy.  The ring read 7.0 MiB while it
#: held a ``ReservationEvent`` and an attribute dict per event; as one
#: row per event it reads 4.0 MiB (Python 3.11, x86-64).
EVENT_RING_BOUND_MIB = 4.5

#: What a full span ring may occupy.  The ring read 1.44 MiB while it
#: held a ``SpanRecord`` and an attribute dict per span; as one row per
#: span it reads 0.87 MiB (Python 3.11, x86-64).
SPAN_RING_BOUND_MIB = 1.0

#: Objects the walk does not count: shared, not held by the ring.
NOT_HELD = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)

#: What the history walk does not count besides: its ints.  The window's
#: exact sums grow by log2 of the report count (a 4-byte digit per 30
#: bits), and CPython shares the ints up to 256, so a count of 200 held
#: twice is walked once where a count of 2,000 held twice is walked twice.
NOT_HELD_BY_HISTORY = NOT_HELD + (int,)


def walked_bytes(root: object, skip: object, not_held: tuple = NOT_HELD) -> int:
    """``sys.getsizeof`` of everything ``root`` reaches, each object once.

    The walk follows ``gc.get_referents`` and leaves out ``skip`` and
    instances of ``not_held`` (types, modules and functions by default;
    the method ``docs/observability.md`` states).
    """
    seen = {id(root), id(skip)}
    stack, total = [root], 0
    while stack:
        obj = stack.pop()
        total += sys.getsizeof(obj)
        for referent in gc.get_referents(obj):
            if id(referent) not in seen and not isinstance(referent, not_held):
                seen.add(id(referent))
                stack.append(referent)
    return total


def run_every_route(service: ReservationService) -> None:
    """Each admission and read route once, a refusal and an abort included."""

    def call(method: str, path: str, payload=None, query=None) -> dict:
        status, document = service.handle(method, path, query or {}, payload)
        assert status == 200, (path, document)
        return document

    call("POST", "/v1/establish", {"service": "S2", "domain": "D1", "session_id": "a"})
    call("POST", "/v1/establish_batch",
         {"arrivals": [{"service": "S3", "domain": "D2", "session_id": "b"}]})
    call("POST", "/v1/renegotiate", {"session_id": "a"})
    refused = call("POST", "/v1/establish", {"service": "S4", "domain": "D3",
                                             "session_id": "x", "demand_scale": 1e6})
    assert refused["success"] is False
    call("GET", "/v1/query", query={"session_id": "a"})
    call("GET", "/v1/availability")
    for session, finish in (("c", "/v1/commit"), ("d", "/v1/abort")):
        lease = call("POST", "/v1/reserve",
                     {"session_id": session, "demands": {"cpu:H1": 1}})
        call("POST", finish, {"lease_id": lease["lease_id"]})
    for session in "abc":
        call("POST", "/v1/teardown", {"session_id": session})
    call("POST", "/v1/debug/dump")


def test_a_full_event_ring_is_compact():
    service = ReservationService(DaemonConfig(seed=3))
    service.start()
    try:
        run_every_route(service)
        log = service.log
        wrap_the_ring(service)
        ring_bytes = walked_bytes(log, log._subscribers)
    finally:
        service.close()
    assert len(log) == log.capacity
    assert ring_bytes <= EVENT_RING_BOUND_MIB * 2**20, ring_bytes / 2**20
    # The key sets come from the call sites' fixed vocabularies.
    assert len(log._key_sets) <= 32, sorted(log._key_sets)


def wrap_the_span_ring(service: ReservationService) -> None:
    """Admit and release sessions until the span ring is full."""
    for round_index in itertools.count():
        if service.flight.tracer.next_index >= SPAN_CAPACITY:
            return
        admit_and_release(service, 100, f"spans{round_index}")


def test_a_full_span_ring_is_compact():
    service = ReservationService(DaemonConfig(seed=3))
    service.start()
    try:
        run_every_route(service)
        tracer = service.flight.tracer
        wrap_the_span_ring(service)
        ring_bytes = walked_bytes(tracer, tracer._stack)
    finally:
        service.close()
    assert len(tracer.records) == SPAN_CAPACITY
    assert ring_bytes <= SPAN_RING_BOUND_MIB * 2**20, ring_bytes / 2**20
    # The key sets come from the call sites' fixed vocabularies.
    assert len(tracer._key_sets) <= 32, sorted(tracer._key_sets)


def admit_through_handle(service: ReservationService, start: int, stop: int) -> None:
    """Admit and tear down arrivals ``start``..``stop`` over ``handle()``."""
    for index in range(start, stop):
        name, domain = VALID_PAIRS[index % len(VALID_PAIRS)]
        session = {"service": name, "domain": domain, "session_id": f"h{index}"}
        status, document = service.handle("POST", "/v1/establish", {}, session)
        assert status == 200 and document["success"] is True, document
        assert service.handle("POST", "/v1/teardown", {}, session)[0] == 200


def history_bytes(service: ReservationService) -> dict:
    """Resource id -> walked size of its broker's availability history."""
    return {
        broker.resource_id: walked_bytes(broker.history, None, NOT_HELD_BY_HISTORY)
        for broker in service.grid.registry.brokers()
    }


def test_a_daemons_history_stops_growing():
    """The daemon's clock never advances, so every alpha report stays in
    the window; the report log keeps one entry per report instant, and
    the change log one per change instant, so a broker's history is as
    large after 2,000 admissions as after 200."""
    service = ReservationService(DaemonConfig(seed=3))
    service.start()
    try:
        admit_through_handle(service, 0, 200)
        after_200 = history_bytes(service)
        admit_through_handle(service, 200, 2000)
        after_2000 = history_bytes(service)
        brokers = list(service.grid.registry.brokers())
    finally:
        service.close()
    assert after_2000 == after_200
    assert max(len(broker.history._reports) for broker in brokers) == 1
    assert sum(broker.history.report_count for broker in brokers) >= 2000


#: Python calls into ``src/repro`` per request: a shard serving the
#: router's two commonest requests, and one ``ServiceClient.request``
#: exchange with a trace context bound.  Named functions only: 3.12 inlines
#: comprehensions, 3.10 and 3.11 give each a frame.  One message reader,
#: fewer wrappers around the trace context, the admission lock and the
#: pooled socket brought these from 40, 28 and 20 (3.10-3.12 alike).
HOP_CALLS = {"abort": 34, "availability": 22, "client": 15}

#: The headers the router sends a shard with (its trace context bound).
_ROUTER_HEADERS = {
    "Host": "127.0.0.1:40001",
    "Connection": "keep-alive",
    "traceparent": "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
    "x-request-id": "req-17",
}


def _router_request(method: str, target: str, payload=None) -> bytes:
    body = b"" if payload is None else wire_codec.encode_json(payload)
    fields = dict(_ROUTER_HEADERS, **{"Content-Length": len(body)})
    return wire_codec.request_bytes(method, target, fields, body)


class _Sink(asyncio.Transport):
    """A transport that takes every write whole; closing loses the connection."""

    def __init__(self, protocol: asyncio.Protocol) -> None:
        super().__init__()
        self._protocol = protocol
        self._closing = False

    def write(self, data) -> None:
        pass

    def get_write_buffer_size(self) -> int:
        return 0

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        if not self._closing:
            self._closing = True
            asyncio.get_running_loop().call_soon(self._protocol.connection_lost, None)


def fed_streams(data: bytes, *, eof: bool = True):
    """A reader holding ``data`` (then EOF) and a writer into a :class:`_Sink`."""
    reader = asyncio.StreamReader()
    protocol = asyncio.StreamReaderProtocol(reader)
    transport = _Sink(protocol)
    protocol.connection_made(transport)
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    writer = asyncio.StreamWriter(transport, protocol, reader, asyncio.get_running_loop())
    return reader, writer


SRC = str(REPO / "src" / "repro")


def repro_calls(coroutine) -> int:
    """Calls into ``src/repro`` while ``coroutine`` runs (named functions)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(SRC)
                and not code.co_name.startswith("<")):
            calls += 1

    async def counted():
        sys.setprofile(profile)
        try:
            await coroutine
        finally:
            sys.setprofile(None)

    asyncio.run(counted())
    return calls


def per_request(count_of) -> float:
    """What one more request adds, ``count_of(11) - count_of(1)`` over 10,
    after one request that resolves what is built on first use."""
    count_of(1)
    return (count_of(11) - count_of(1)) / 10


#: The router's requests a shard serves most.
ROUTER_REQUESTS = {
    "abort": _router_request("POST", "/v1/abort", {"lease_id": "s1@shard-0#9"}),
    "availability": _router_request("GET", "/v1/availability?resources=cpu:H1"),
}


@pytest.mark.parametrize("name", sorted(ROUTER_REQUESTS))
def test_a_shard_serves_a_router_request_in_few_python_calls(name):
    wire = ROUTER_REQUESTS[name]
    daemon = ReservationDaemon(DaemonConfig(seed=7, shard_index=0, shard_count=3))
    daemon.service.start()
    try:
        def served(requests: int) -> int:
            async def serve():
                await daemon._handle_connection(*fed_streams(wire * requests))
            return repro_calls(serve())

        calls = per_request(served)
        assert daemon.wire["requests"] == 13
        assert "protocol_errors" not in daemon.wire
    finally:
        daemon.service.close()
    print(f"{name}: {calls} calls per request (bound {HOP_CALLS[name]})")
    assert calls <= HOP_CALLS[name]


def test_a_client_exchange_takes_few_python_calls():
    reply = wire_codec.json_response_bytes(200, {"aborted": False}, close=False)

    def exchanged(requests: int) -> int:
        async def exchange():
            client = ServiceClient("127.0.0.1", 40001)
            client._pool.append(fed_streams(reply * requests, eof=False))
            token = _context.bind_trace_context(
                _context.new_trace_context(request_id="req-17"))
            try:
                for _ in range(requests):
                    response = await client.request("POST", "/v1/abort",
                                                     {"lease_id": "s1@shard-0#9"})
                    assert response.status == 200
            finally:
                _context.reset_trace_context(token)
                await client.aclose()
        return repro_calls(exchange())

    calls = per_request(exchanged)
    print(f"client: {calls} calls per exchange (bound {HOP_CALLS['client']})")
    assert calls <= HOP_CALLS["client"]
