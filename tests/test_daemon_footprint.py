"""What a daemon process carries: no numpy, no OpenSSL, no simulator.

The serving path (``repro-serve``, ``repro-cluster``) draws its grid's
capacities from the pure-Python PCG64 stream, so a daemon that never
plans with ``--algorithm random`` never imports numpy.  It speaks plain
HTTP, so its ``main()`` keeps ``ssl`` out of the process, and it imports
``hashlib`` only for a WebSocket handshake; the package inits import
only what a caller names, so the simulator's experiment layer (and
``multiprocessing`` with it) stays out too.  Each import check runs in a
fresh interpreter: the test runner itself has all of these loaded.  What
a full event ring and a full span ring occupy is walked in-process.
"""

from __future__ import annotations

import base64
import gc
import http.client
import json
import os
import re
import socket
import subprocess
import sys
import textwrap
import itertools
import types

import pytest

from repro.obs.flight import SPAN_CAPACITY
from repro.service import DaemonConfig, ReservationService
from repro.service.http import websocket_accept_key
from tests.test_examples import REPO, subprocess_env
from tests.test_record_once import admit_and_release, wrap_the_ring


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


def test_the_websocket_handshake_imports_hashlib_on_demand():
    process, port = boot("repro.service.cli")
    try:
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(
                (
                    "GET /v1/events HTTP/1.1\r\n"
                    f"Host: 127.0.0.1:{port}\r\n"
                    "Upgrade: websocket\r\n"
                    "Connection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {key}\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                ).encode("latin-1")
            )
            head = b""
            while b"\r\n\r\n" not in head:
                chunk = sock.recv(4096)
                assert chunk, head
                head += chunk
    finally:
        stop(process)
    status_line, _, rest = head.decode("latin-1").partition("\r\n")
    assert status_line.startswith("HTTP/1.1 101 ")
    assert f"Sec-WebSocket-Accept: {websocket_accept_key(key)}\r\n" in rest


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


def walked_bytes(root: object, skip: object) -> int:
    """``sys.getsizeof`` of everything ``root`` reaches, each object once.

    The walk follows ``gc.get_referents`` and leaves out types, modules,
    functions and ``skip`` (the method ``docs/observability.md`` states).
    """
    seen = {id(root), id(skip)}
    stack, total = [root], 0
    while stack:
        obj = stack.pop()
        total += sys.getsizeof(obj)
        for referent in gc.get_referents(obj):
            if id(referent) not in seen and not isinstance(referent, NOT_HELD):
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
