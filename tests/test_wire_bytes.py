"""What goes on the wire, pinned byte for byte.

The HTTP codec in :mod:`repro.service.http` writes every request the
client sends and every response both servers send.  These digests pin
those bytes, so a change to the codec that moves one byte fails here:

* the request bytes :class:`ServiceClient` writes for every route it
  has a method for and for a request with an ``x-request-id`` header,
  captured by a bare socket server (the ephemeral port in ``Host`` is
  normalised);
* the response bytes ``repro-serve`` and a three-shard ``repro-cluster``
  router write for a fixed script of raw requests, each on its own
  ``Connection: close`` socket and read to EOF.  Its framing rows carry
  a body no reader may frame by guessing: each must get one 400, and
  neither server may admit the establish hidden in them.
"""

import asyncio
import hashlib

from repro.cluster import ClusterConfig, ClusterCoordinator, ClusterDaemon
from repro.service import DaemonConfig, ReservationDaemon, ServiceClient
from repro.service import http

from tests.test_cluster import make_local_shards

_CANNED = http.json_response_bytes(200, {}, close=False)

#: (name, client call) -- every route method of ServiceClient.
CALLS = [
    ("establish", lambda c: c.establish(service="S2", domain="D1", session_id="w1")),
    ("establish_batch", lambda c: c.establish_batch([{"service": "S2", "domain": "D1"}])),
    ("renegotiate", lambda c: c.renegotiate("w1")),
    ("teardown", lambda c: c.teardown("w1")),
    ("availability", lambda c: c.availability()),
    ("reserve", lambda c: c.reserve("r1", {"cpu:H1": 10.0, "net:H1-H2": 2.5})),
    ("commit", lambda c: c.commit("lease-1")),
    ("commit_session", lambda c: c.commit("lease-1", {"service": "S2", "level": 3})),
    ("abort", lambda c: c.abort("lease-1")),
    ("query", lambda c: c.query()),
    ("query_session", lambda c: c.query("w1")),
    ("healthz", lambda c: c.healthz()),
    ("metrics", lambda c: c.metrics()),
    ("request_id", lambda c: c.request(
        "POST", "/v1/debug/dump", {}, headers={"x-request-id": "req-7"})),
]

#: name -> sha256 of the request bytes.  Recorded with the hand-built
#: request heads the shared codec replaced, so equality means that no
#: wire byte moved.
REQUEST_DIGESTS = {
    "establish": "2c22c3d04d61777a721cb24de5c85d0b03fca4ed20e06fc49c7dd770029b8f87",
    "establish_batch": "e365eabcc8134f347f96e79817115fb5840280f97a7cc8e8fb6e1785fe89c635",
    "renegotiate": "6a1379d01b1f407041a5dfef5b4cb4e65eb300bdc6313d596184a91fe28df651",
    "teardown": "9eebc493ac9e4c246f93a3cdf2680b7a6d9f46557000a82706ac3113208f421b",
    "availability": "0a9356937451a87ed4d288fc382fa76b41317eadd5cbf7a6a59fad48da752a2a",
    "reserve": "ce41dc1cf772dd797ed4eb629f8de4af1ac1ef911307dc83575b60579b74ea5e",
    "commit": "5efdf6b36d80471216be06c066e3275b6e5c8d7301b8ff2fc57717ef9715f768",
    "commit_session": "af91af7677ff54cea950e131b0355a123f1191ac4529adfd00b2dbb371e9cc7b",
    "abort": "0e77e55439ef3e6e4c6c7206d7cf399f0ec5c9efaf0f4b9e07b811cd6e258b72",
    "query": "b97d30958ee08c906a581b348ab9d69d14bf34eb49ae3687b0babe05b461928f",
    "query_session": "0347ce844791958d2eb5e0bee5c583219bf598fed1e345ca5a767d5f14f2f699",
    "healthz": "b5994d778c63ebfa82f0c2e46024ff916a3015e34e66efde4282d60e2fa96d64",
    "metrics": "74916f1a8913c14a97e6bc53c0c8d44d3920ffd4b8bc659e1d6b89282df5021c",
    "request_id": "bc93a42102721f9f19723a19bde3713f92c8b5303334ca55c62b3f307d032653",
}


def _raw(method, target, body=None):
    """A request line, ``Connection: close`` and, with a body, its length."""
    head = b"%s %s HTTP/1.1\r\nConnection: close\r\n" % (method, target)
    if body is None:
        return head + b"\r\n"
    return head + b"Content-Length: %d\r\n\r\n%s" % (len(body), body)


_SMUGGLED = b'{"domain": "D1", "service": "S2", "session_id": "smuggled"}'
#: A complete establish: whoever parses it admits a session.
_INNER = _raw(b"POST", b"/v1/establish", _SMUGGLED)


def _framed(length_line):
    """A ``Connection: close`` establish whose body ``length_line`` frames."""
    return (b"POST /v1/establish HTTP/1.1\r\nConnection: close\r\n%s\r\n\r\n%s"
            % (length_line, _SMUGGLED))


#: Framing RFC 9112 (sections 5.1, 6.3) lets no reader guess at: each is
#: refused with one 400 and a close, so no session is admitted and no
#: byte is read as a second request.
FRAMING = [
    ("length_underscore", _framed(b"Content-Length: %d_%d" % divmod(len(_SMUGGLED), 10))),
    ("length_plus", _framed(b"Content-Length: +%d" % len(_SMUGGLED))),
    ("length_space_before_colon", _framed(b"Content-Length : %d" % len(_SMUGGLED))),
    ("length_twice", b"POST /v1/nonsense HTTP/1.1\r\nContent-Length: %d\r\n"
     b"Content-Length: 0\r\n\r\n%s" % (len(_INNER), _INNER)),
    ("transfer_encoding", b"POST /v1/nonsense HTTP/1.1\r\n"
     b"Transfer-Encoding: chunked\r\n\r\n" + _INNER),
]

#: (name, raw request) -- each sent on its own socket, read to EOF.
SCRIPT = [
    ("establish", _raw(b"POST", b"/v1/establish",
                       b'{"domain": "D1", "service": "S2", "session_id": "w1"}')),
    ("query_session", _raw(b"GET", b"/v1/query?session_id=w1")),
    ("teardown", _raw(b"POST", b"/v1/teardown", b'{"session_id": "w1"}')),
    ("teardown_again", _raw(b"POST", b"/v1/teardown", b'{"session_id": "w1"}')),
    ("get_unknown", _raw(b"GET", b"/v1/nonsense")),
    ("post_unknown", _raw(b"POST", b"/v1/nonsense", b"{}")),
    ("bad_json", _raw(b"POST", b"/v1/establish", b"{not json")),
    ("garbage", b"GARBAGE\r\n\r\n"),
    ("bad_length", b"POST /v1/establish HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
    ("events", b"GET /v1/events HTTP/1.1\r\nUpgrade: websocket\r\n"
     b"Connection: Upgrade\r\nSec-WebSocket-Key: cmVwcm8tc2VydmljZS1ldnQ=\r\n"
     b"Sec-WebSocket-Version: 13\r\n\r\n"),
] + FRAMING

#: "server:row" -> sha256 of the response bytes, recorded the same way.
#: A WebSocket upgrade of ``/v1/events`` is a request for a route neither
#: server has: both answer it with the same 405.
RESPONSE_DIGESTS = {
    "daemon:establish": "fb6c7be063c4c3ecad4cb4e14cdabb894095df477afe87c07362ac2ee87c218a",
    "daemon:query_session": "23af6636bbddabebccf08f3312cc6d998a297f66728b332d8c934757f72b26b5",
    "daemon:teardown": "d2496ee89b6c529838eb75b473bd5678514d85d289a6a7157cb0a32eac9dc9fe",
    "daemon:teardown_again": "e5a7bb899d1fb90563f837dc786f8faf89d09513350582432ea26a415b77af53",
    "daemon:get_unknown": "c6e47b15252312e5119dd16e802a6ea63f5b59f4bac2f879f6a64a80e76b9fb1",
    "daemon:post_unknown": "d197963cb844f2c72c98d38fc047aca34b04d5f43c8f22d04e512e69bd064b79",
    "daemon:bad_json": "d778fe30be8b222ce3c8981946b37a7ebed7e321e69857b391d0c1734cbb12f4",
    "daemon:garbage": "11a8ae9e02482455c8464d049a8ae72cc23ecd1892a575131cb5f53c491ee5cb",
    "daemon:bad_length": "12ca69033b26d70e8b0673fa42757c54962e5d93cb36114d55527b257d886018",
    "daemon:events": "5f3d92d5cb55260f4eeb22639f05a4a62bd7f4fdecf0ba5de6eedf2060744b98",
    "daemon:length_underscore": "33e89586384dc2a8b74ddf7c2e098f3fa4a3ab0a10fd26bd4c64e908eafb0a99",
    "daemon:length_plus": "db78bce61d2f9f69d1946d975324022c68599e4f893994f654ccc567ef7dfd2e",
    "daemon:length_space_before_colon": "65a94c98497c7c6070726770f037a9fae32f455338467e871b078f3f3e7ccf66",
    "daemon:length_twice": "a64d0d093be2407244e70a05f383ef8ee8a9403006dba2197c299fa465f397da",
    "daemon:transfer_encoding": "6e55ea1dcb2ee73fbf8ab5d8315bbb9737fe0a33f24601fdcca4ccecccc63f20",
    "router:establish": "ed910ad713dfc924d774f8c43c5f7972485cda71f33501cb689ef7f2cea34c84",
    "router:query_session": "b5515148a42f7bda7c42bebf3aa6ebdedd09405f488ad186797b0987ac94d1e1",
    "router:teardown": "d2496ee89b6c529838eb75b473bd5678514d85d289a6a7157cb0a32eac9dc9fe",
    "router:teardown_again": "e5a7bb899d1fb90563f837dc786f8faf89d09513350582432ea26a415b77af53",
    "router:get_unknown": "c6e47b15252312e5119dd16e802a6ea63f5b59f4bac2f879f6a64a80e76b9fb1",
    "router:post_unknown": "d197963cb844f2c72c98d38fc047aca34b04d5f43c8f22d04e512e69bd064b79",
    "router:bad_json": "d778fe30be8b222ce3c8981946b37a7ebed7e321e69857b391d0c1734cbb12f4",
    "router:garbage": "11a8ae9e02482455c8464d049a8ae72cc23ecd1892a575131cb5f53c491ee5cb",
    "router:bad_length": "12ca69033b26d70e8b0673fa42757c54962e5d93cb36114d55527b257d886018",
    "router:events": "5f3d92d5cb55260f4eeb22639f05a4a62bd7f4fdecf0ba5de6eedf2060744b98",
    "router:length_underscore": "33e89586384dc2a8b74ddf7c2e098f3fa4a3ab0a10fd26bd4c64e908eafb0a99",
    "router:length_plus": "db78bce61d2f9f69d1946d975324022c68599e4f893994f654ccc567ef7dfd2e",
    "router:length_space_before_colon": "65a94c98497c7c6070726770f037a9fae32f455338467e871b078f3f3e7ccf66",
    "router:length_twice": "a64d0d093be2407244e70a05f383ef8ee8a9403006dba2197c299fa465f397da",
    "router:transfer_encoding": "6e55ea1dcb2ee73fbf8ab5d8315bbb9737fe0a33f24601fdcca4ccecccc63f20",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


async def _client_requests():
    """name -> the bytes ServiceClient wrote for it (port normalised).

    The capture server frames requests by hand, not with the codec under
    test, so a codec bug cannot hide itself.
    """
    captured = []

    async def capture(reader, writer):
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    return
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                captured.append(head + await reader.readexactly(length))
                writer.write(_CANNED)
                await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(capture, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client = ServiceClient("127.0.0.1", port)
    names = []
    try:
        for name, call in CALLS:
            await call(client)
            names.append(name)
    finally:
        await client.aclose()
        server.close()
        await server.wait_closed()
    host = b"Host: 127.0.0.1:%d\r\n" % port
    return {
        name: wire.replace(host, b"Host: 127.0.0.1:PORT\r\n")
        for name, wire in zip(names, captured)
    }


async def _script_responses(port):
    out = {}
    for name, wire in SCRIPT:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(wire)
            await writer.drain()
            if name != "events":
                out[name] = await reader.read()
                continue
            # The upgrade asks for no close, so its socket stays open:
            # read the head and the body its Content-Length frames.
            head = await reader.readuntil(b"\r\n\r\n")
            length = head.partition(b"Content-Length: ")[2].partition(b"\r\n")[0]
            out[name] = head + await reader.readexactly(int(length or 0))
        finally:
            writer.close()
    return out


async def _server_responses():
    """(server, name) -> the response bytes it wrote for the script row,
    and server -> its active sessions once the script has run."""
    daemon = ReservationDaemon(DaemonConfig(port=0, seed=11))
    router = ClusterDaemon(
        ClusterConfig(shards=(("127.0.0.1", 1),) * 3, port=0, seed=7),
        coordinator=ClusterCoordinator(make_local_shards(3), seed=7),
    )
    out, active = {}, {}
    for label, server in (("daemon", daemon), ("router", router)):
        await server.start()
        try:
            for name, response in (await _script_responses(server.port)).items():
                out[f"{label}:{name}"] = response
            client = ServiceClient("127.0.0.1", server.port)
            try:
                active[label] = (await client.query())["active_sessions"]
            finally:
                await client.aclose()
        finally:
            await server.shutdown()
    return out, active


def test_client_request_bytes_are_pinned():
    wires = asyncio.run(_client_requests())
    assert {name: _digest(wire) for name, wire in wires.items()} == REQUEST_DIGESTS


def test_server_response_bytes_are_pinned():
    responses, active = asyncio.run(_server_responses())
    for server in ("daemon", "router"):
        for name, _ in FRAMING:
            wire = responses[f"{server}:{name}"]
            assert wire.startswith(b"HTTP/1.1 400 "), (server, name, wire)
            assert wire.count(b"HTTP/1.1 ") == 1, (server, name, wire)
    assert active == {"daemon": 0, "router": 0}
    assert {name: _digest(wire) for name, wire in responses.items()} == RESPONSE_DIGESTS
    assert responses["daemon:events"] == responses["router:events"]
