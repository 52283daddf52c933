#!/usr/bin/env python3
"""The host-speed reference every timing of the benchmark is read against.

This box is a 2-vCPU microVM on a shared host: the same code runs at
anything from 1x to 5x its quiet-host time depending on what the other
tenants do, in bursts of milliseconds and episodes of minutes, and no
estimator over raw times repeats (README, "Run protocol").  So the
benchmark interleaves the measured script with a *reference*: a fixed
piece of interpreter-bound work that no commit of the repository can
change, timed at every chunk edge.  A timing is reported as

    measured * NOMINAL_S / (the reference's time around the same chunk)

that is, in seconds of a host on which the reference takes ``NOMINAL_S``.
Whatever slows the program and the reference alike cancels; a change in
the program moves only the numerator.

Two shapes, because a hot loop and a request/response exchange slow down
differently:

* :class:`HotProbe` -- the kernel timed in the caller's own process, for
  the in-process workload;
* :class:`EchoProbe` -- ping-pongs with this file run as a server (one
  kernel per request, asyncio streams over loopback, like the daemons),
  over as many connections as the workload has callers, back to back for
  the closed loops and spaced like the schedule for the open loop.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import time
from typing import List

#: Seconds the median sample of a round takes on a quiet host, frozen at
#: the commit that added the benchmark: the speed the reported times are
#: expressed at.  265 us is the in-process kernel on a quiet host that day;
#: a workload's probe has the shape of its load, hence one value each, set
#: to 265 us times the ratio of its samples to the in-process ones over the
#: same hour (everything pinned to one CPU).
NOMINAL_S = {
    "coord_dark": 265e-6,
    "daemon_closed": 910e-6,
    "daemon_mixed": 845e-6,
    "cluster3_serial": 505e-6,
}

_PAYLOAD = {
    "session_id": "s-000123", "service": "S2", "domain": "D1", "demand_scale": 1.25,
    "hosts": [f"H{i}" for i in range(12)],
    "levels": [
        {"level": level, "psi": 0.1 * level,
         "resources": {f"r{k}": 1.5 * k for k in range(8)}}
        for level in range(3)
    ],
}


def kernel(passes: int = 4) -> float:
    """Fixed work shaped like an admission: JSON both ways, dicts, a heap, a sort."""
    total = 0.0
    for _ in range(passes):
        document = json.loads(json.dumps(_PAYLOAD, sort_keys=True))
        table = {("r", k): k * 1.5 for k in range(60)}
        heap: list = []
        for key, value in table.items():
            heapq.heappush(heap, (value % 7, key))
        while heap:
            total += heapq.heappop(heap)[0]
        total += len(sorted(document["hosts"], reverse=True))
    return total


class HotProbe:
    """The kernel, back to back, in the caller's process."""

    def __init__(self, samples: int = 8) -> None:
        self.samples = samples

    async def sample(self) -> List[float]:
        out = []
        for _ in range(self.samples):
            started = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - started)
        return out


class EchoProbe:
    """Closed-loop ping-pongs with the reference server, one loop per connection."""

    def __init__(self, port: int, connections: int, gap_s: float = 0.0,
                 samples: int = 6) -> None:
        self.port = port
        self.connections = connections
        #: Idle time before every ping: an open loop's requests find both
        #: sides idle, which costs more than a request behind another.
        self.gap_s = gap_s
        self.samples = samples
        self._streams: list = []

    async def open(self) -> None:
        for _ in range(self.connections):
            self._streams.append(await asyncio.open_connection("127.0.0.1", self.port))

    async def _loop(self, reader, writer) -> List[float]:
        out = []
        for _ in range(self.samples):
            if self.gap_s:
                await asyncio.sleep(self.gap_s)
            started = time.perf_counter()
            kernel(1)  # the caller's share of a request: build it, parse the reply
            writer.write(b"ping\n")
            await writer.drain()
            if not await reader.readline():
                raise ConnectionError("reference server closed the connection")
            out.append(time.perf_counter() - started)
        return out

    async def sample(self) -> List[float]:
        loops = await asyncio.gather(*(self._loop(r, w) for r, w in self._streams))
        return [seconds for loop in loops for seconds in loop]

    async def aclose(self) -> None:
        for _reader, writer in self._streams:
            writer.close()
        self._streams.clear()


async def _serve() -> None:
    async def handle(reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                kernel()
                writer.write(line)
                await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    # The daemons' boot-line format, so one reader finds every port.
    print(f"listening on 127.0.0.1:{server.sockets[0].getsockname()[1]} ", flush=True)
    await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(_serve())
