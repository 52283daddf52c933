"""The four admission workloads: count-fixed scripts and the rounds that run them.

A *script* is a pure function of ``(workload, seed, n)``: the §5.1
arrivals in order, split into a warm-up prefix that fills the session
window and the measured part.  A *round* runs one script against one
freshly spawned system under test and returns what the caller saw.
Every session stays live for :data:`K_WINDOW` arrivals and is then torn
down, so the live set (and with it contention, refusals and the chosen
QoS levels) is a function of the script, never of how fast it ran.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.router import ClusterCoordinator, HttpShardClient
from repro.core.planner import BasicPlanner
from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.obs.prom import parse_exposition
from repro.service.client import ServiceClient
from repro.service.http import ProtocolError
from repro.service.loadgen import arrival_payload
from repro.sim.environment import GridEnvironment
from repro.sim.experiment import CONTENTION_INDICES
from repro.sim.workload import SessionArrival, WorkloadGenerator, WorkloadSpec

import layers
import reference
import spans as _spans
import sut

WORKLOADS = ("coord_dark", "daemon_closed", "daemon_mixed", "cluster3_serial")

#: Arrivals a session stays live for.  Fixed once so that 5-15% of
#: ``coord_dark`` decisions are merit refusals and three end-to-end QoS
#: levels are chosen (at 40 every arrival was admitted at the top level).
K_WINDOW = 256
#: One read per this many admissions of a client.
READ_EVERY = 8
#: Rounds per workload: fresh systems under test running the same script.
ROUNDS = 5
#: Decisions per chunk, sized for about a tenth of a second of work.  The
#: measured script is cut into chunks at fixed decision counts and the
#: host-speed reference (:mod:`reference`) is sampled at every chunk edge,
#: so each timing can be read against how fast the host was around it.
CHUNK_DECISIONS = {
    "coord_dark": 256, "daemon_closed": 64, "daemon_mixed": 48, "cluster3_serial": 24,
}
#: Decisions per tick.  Wall and CPU time are read every tick, so that a
#: stall of the host lands in one short interval of one round, where the
#: median over the rounds drops it, and not in a whole chunk's sum.  Each
#: divides its workload's chunk; on ``daemon_mixed`` it is one cycle.
TICK_DECISIONS = {
    "coord_dark": 16, "daemon_closed": 8, "daemon_mixed": 6, "cluster3_serial": 4,
}
#: Admissions one measured second of ``--seconds`` buys, frozen at the
#: speed of the commit that added the benchmark: the script length is
#: ``rate * seconds / ROUNDS`` per round, a count, so a faster or slower
#: program runs the identical script in less or more time.
ADMISSIONS_PER_SECOND = {
    "coord_dark": 2400,
    "daemon_closed": 500,
    "daemon_mixed": 170,
    "cluster3_serial": 180,
}
#: Concurrent connections of the load generator (nproc = 2).
CLIENTS = {"coord_dark": 1, "daemon_closed": 2, "daemon_mixed": 2, "cluster3_serial": 1}
#: Scheduled operations per second of the open loop, set once so that the
#: daemon and the load generator together keep their one CPU about a third
#: busy (``daemon_closed`` keeps it 100% busy).
MIXED_OPS_PER_SECOND = 200.0
#: One open-loop cycle; ``batch`` carries four arrivals.
MIXED_CYCLE = (
    "establish", "query", "availability", "establish",
    "metrics", "renegotiate", "batch", "query",
)
BATCH_SIZE = 4
_ARRIVALS_PER_CYCLE = MIXED_CYCLE.count("establish") + BATCH_SIZE * MIXED_CYCLE.count("batch")
#: The §5.1 arrival process; the rate only spaces the DES clock of
#: ``coord_dark`` (sessions end by window, not by duration).
ARRIVAL_SPEC = WorkloadSpec(rate_per_60tu=80.0, horizon=1e12)


class OpFailed(Exception):
    """Transport error, timeout, non-200, malformed body or failed check."""


# -- scripts ---------------------------------------------------------------


@dataclass(frozen=True)
class Script:
    workload: str
    seed: int
    arrivals: Tuple[SessionArrival, ...]
    #: Arrivals (closed loops) or operations (open loop) of the warm-up.
    warmup: int
    #: Open loop only: ``(kind, first arrival index)`` per scheduled op.
    ops: Tuple[Tuple[str, int], ...]
    digest: str

    @property
    def clients(self) -> int:
        return CLIENTS[self.workload]

    @property
    def measured_arrivals(self) -> int:
        if self.ops:
            return len(self.arrivals) - self.ops[self.warmup][1]
        return len(self.arrivals) - self.warmup

    def chunk_bounds(self) -> List[Tuple[int, int]]:
        """``[lo, hi)`` of every measured chunk: arrival indices, or op positions on the open loop."""
        if self.ops:
            step = CHUNK_DECISIONS[self.workload] // _ARRIVALS_PER_CYCLE * len(MIXED_CYCLE)
            end = len(self.ops)
        else:
            step, end = CHUNK_DECISIONS[self.workload], len(self.arrivals)
        return [(lo, min(end, lo + step)) for lo in range(self.warmup, end, step)]


def admissions_for(workload: str, seconds: float, scale: float = 1.0) -> int:
    """Measured admissions per round that ``--seconds`` buys: a whole number of chunks."""
    chunk = CHUNK_DECISIONS[workload]
    wanted = ADMISSIONS_PER_SECOND[workload] * seconds * scale / ROUNDS
    return chunk * max(1, round(wanted / chunk))


def build_script(workload: str, seed: int, admissions: int) -> Script:
    """The request script: identical bytes for identical arguments."""
    if workload == "daemon_mixed":
        warm_cycles = math.ceil(K_WINDOW / _ARRIVALS_PER_CYCLE)
        cycles = warm_cycles + math.ceil(admissions / _ARRIVALS_PER_CYCLE)
        ops: List[Tuple[str, int]] = []
        cursor = 0
        for _ in range(cycles):
            for kind in MIXED_CYCLE:
                ops.append((kind, cursor))
                cursor += {"establish": 1, "batch": BATCH_SIZE}.get(kind, 0)
        total, warmup = cursor, warm_cycles * len(MIXED_CYCLE)
    else:
        ops, total, warmup = [], K_WINDOW + admissions, K_WINDOW
    generator = WorkloadGenerator(ARRIVAL_SPEC, RandomStreams(seed))
    arrivals = tuple(itertools.islice(generator.generate(), total))
    canonical = json.dumps(
        {
            "workload": workload,
            "window": K_WINDOW,
            "read_every": READ_EVERY,
            "clients": CLIENTS[workload],
            "warmup": warmup,
            "ops": ops,
            "arrivals": [arrival_payload(a) for a in arrivals],
        },
        sort_keys=True,
    )
    return Script(
        workload=workload,
        seed=seed,
        arrivals=arrivals,
        warmup=warmup,
        ops=tuple(ops),
        digest=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    )


# -- what one round saw ----------------------------------------------------


@dataclass
class Tally:
    """Mutable per-round record shared by the round's client tasks."""

    #: True while the measured part runs (warm-up and drain are not recorded).
    recording: bool = False
    #: arrival index -> the session is live (admitted, not yet torn down).
    live: Dict[int, bool] = field(default_factory=dict)
    #: arrival index -> (session_id, success, level, psi), measured part.
    decisions: Dict[int, tuple] = field(default_factory=dict)
    last_admitted: Optional[int] = None
    #: arrival index -> (chunk, seconds) of its establish.
    admit_s: Dict[int, Tuple[int, float]] = field(default_factory=dict)
    #: position of the read in the script -> (chunk, seconds).
    read_s: Dict[int, Tuple[int, float]] = field(default_factory=dict)
    late_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: CPU seconds consumed so far by the processes under test.
    cpu_clock: Callable[[], float] = time.process_time
    #: Per measured chunk: decisions and its ticks' ``[wall_s, cpu_s]``.
    chunks: List[dict] = field(default_factory=list)
    #: Reference samples (seconds) at every chunk edge: one more than chunks.
    edges: List[List[float]] = field(default_factory=list)
    steal_share: float = 0.0
    #: Decisions per tick, the count that closes the running tick, and the
    #: ``(wall, cpu)`` clocks when it opened.
    tick_decisions: int = 0
    next_tick: int = 0
    tick_opened: Tuple[float, float] = (0.0, 0.0)

    def open_chunk(self) -> None:
        self.chunks.append({"decisions": len(self.decisions), "ticks": []})
        self.next_tick = len(self.decisions) + self.tick_decisions
        self.tick_opened = (time.perf_counter(), self.cpu_clock())

    def tick(self, final: bool = False) -> None:
        """Close the running tick; the ``final`` call adds the chunk's tail to the last one."""
        wall, cpu = time.perf_counter(), self.cpu_clock()
        chunk = self.chunks[-1]
        if final and chunk["ticks"]:
            chunk["ticks"][-1][0] += wall - self.tick_opened[0]
            chunk["ticks"][-1][1] += cpu - self.tick_opened[1]
        else:
            chunk["ticks"].append([wall - self.tick_opened[0], cpu - self.tick_opened[1]])
        if final:
            chunk["decisions"] = len(self.decisions) - chunk["decisions"]
        self.next_tick += self.tick_decisions
        self.tick_opened = (wall, cpu)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


@dataclass
class RoundResult:
    workload: str
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    decisions: int
    admitted: int
    refused: int
    levels: Dict[str, int]
    #: ``[position in the script, chunk, raw milliseconds]`` per establish, in script order.
    admit: List[list]
    #: The same per read operation.
    read: List[list]
    late_ms: List[float]
    attempted: int
    failed: int
    failures: List[str]
    decision_digest: str
    #: Share of the round's measured wall time the hypervisor took from our CPU.
    steal_share: float = 0.0
    #: Per chunk: decisions and its ticks' ``[wall_s, cpu_s]`` (raw seconds).
    chunks: List[dict] = field(default_factory=list)
    #: Reference samples (raw seconds) at every chunk edge: ``len(chunks) + 1`` lists.
    edges: List[List[float]] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)

    def speed_factors(self) -> List[float]:
        """Per chunk, what turns a raw time into one at nominal host speed.

        ``NOMINAL_S`` over the median reference sample of the edges around
        the chunk: its own two and one more on either side.
        """
        nominal = reference.NOMINAL_S[self.workload]
        factors = []
        for chunk in range(len(self.chunks)):
            around = self.edges[max(0, chunk - 1):chunk + 3]
            factors.append(nominal / statistics.median(s for edge in around for s in edge))
        return factors

    def speed_factor(self) -> float:
        """The same over the whole round (set-up time, the spans of a traced round)."""
        if not self.edges:
            return math.nan  # the round failed before its measured part
        return reference.NOMINAL_S[self.workload] / statistics.median(
            s for edge in self.edges for s in edge)

    def normalised(self, samples: List[list]) -> List[float]:
        """``admit`` or ``read`` as milliseconds at nominal host speed."""
        factors = self.speed_factors()
        return [ms * factors[chunk] for _position, chunk, ms in samples]


def check_decision(document: object, session_id: str) -> tuple:
    """Validate one establishment reply; returns its digest row."""
    if not isinstance(document, dict) or not isinstance(document.get("success"), bool):
        raise OpFailed(f"{session_id}: malformed decision {document!r}")
    if document.get("session_id") != session_id:
        raise OpFailed(f"{session_id}: reply names {document.get('session_id')!r}")
    level, psi = document.get("level"), document.get("psi")
    if document["success"]:
        if level is None or not isinstance(psi, (int, float)) or not math.isfinite(psi):
            raise OpFailed(f"{session_id}: admitted without level/finite psi")
    elif not document.get("reason"):
        raise OpFailed(f"{session_id}: refused without a reason")
    return (session_id, document["success"], level, psi)


# -- targets: where a script's operations go -------------------------------


class DarkTarget:
    """``GridEnvironment.coordinator`` called in-process, no observability."""

    def __init__(self, recorder: Optional[_spans.SpanRecorder] = None) -> None:
        self.recorder = recorder
        self.env = Environment()
        self.grid = GridEnvironment(self.env, RandomStreams(sut.GRID_SEED))
        self.planner = BasicPlanner()
        self.contention_index = CONTENTION_INDICES["ratio"]
        if recorder is not None:
            self._interpose(recorder)

    def _interpose(self, recorder: _spans.SpanRecorder) -> None:
        """Spans on every layer boundary an admission crosses."""
        import repro.core.planner as planner_module
        import repro.runtime.coordinator as coordinator_module

        coordinator = self.grid.coordinator
        _spans.interpose(recorder, coordinator, "establish", "runtime.coordinator.establish")
        _spans.interpose(recorder, coordinator, "teardown", "runtime.coordinator.teardown")
        _spans.interpose(recorder, coordinator, "plan_session", "runtime.coordinator.plan_session")
        _spans.interpose(recorder, coordinator.qrg_skeletons, "skeleton_for", "core.qrg.skeleton")
        _spans.interpose(recorder, coordinator_module, "price_skeleton", "core.qrg.price")
        _spans.interpose(recorder, self.planner, "plan", "core.planner.plan")
        _spans.interpose(recorder, planner_module, "minimax_dijkstra", "core.dijkstra.search")
        for proxy in coordinator.proxies.values():
            _spans.interpose(recorder, proxy, "report_availability", "brokers.observe")
            _spans.interpose(recorder, proxy, "apply_segment", "brokers.reserve")
            _spans.interpose(recorder, proxy, "release_session", "brokers.release")

    def admit(self, arrival: SessionArrival):
        """``coordinator.establish`` for one arrival, as the simulator calls it."""
        grid = self.grid
        return grid.coordinator.establish(
            arrival.session_id,
            arrival.service,
            grid.binding_for(arrival.service, arrival.domain),
            self.planner,
            component_hosts=grid.component_hosts_for(arrival.service, arrival.domain),
            demand_scale=arrival.demand_scale,
            contention_index=self.contention_index,
        )

    async def establish(self, arrival: SessionArrival) -> dict:
        # The simulator advances the DES clock to each arrival, which is
        # what lets the availability history prune its window.
        self.env.run(until=arrival.arrival_time)
        result = self.admit(arrival)
        return {
            "session_id": result.session_id,
            "success": result.success,
            "reason": result.reason,
            "level": result.qos_level,
            "psi": result.plan.psi if result.success else None,
        }

    async def teardown(self, session_id: str) -> None:
        if self.grid.coordinator.teardown(session_id) == 0:
            raise OpFailed(f"{session_id}: teardown released nothing")

    async def read(self, arrival: SessionArrival) -> None:
        """A dry-run admission: snapshot + plan, nothing reserved."""
        grid = self.grid
        binding = grid.binding_for(arrival.service, arrival.domain)
        snapshot = grid.registry.snapshot(sorted(binding.resource_ids()))
        grid.coordinator.plan_session(
            arrival.session_id,
            arrival.service,
            binding,
            self.planner,
            snapshot,
            demand_scale=arrival.demand_scale,
            contention_index=self.contention_index,
        )

    async def leak(self) -> Optional[str]:
        try:
            self.grid.registry.assert_quiescent()
        except Exception as exc:  # BrokerError; any failure here is a leak
            return str(exc)
        return None


class HttpTarget:
    """One keep-alive connection to a daemon or to the cluster router."""

    def __init__(self, port: int, timeout_s: float, *, router: bool = False,
                 recorder: Optional[_spans.SpanRecorder] = None) -> None:
        self.client = ServiceClient("127.0.0.1", port)
        self.timeout_s = timeout_s
        self.router = router
        self.recorder = recorder

    async def _call(self, method: str, path: str, payload: Optional[dict] = None,
                    *, text: bool = False, expect: int = 200):
        headers = None
        if self.recorder is not None and self.recorder.rid is not None:
            headers = {"x-request-id": self.recorder.rid}
        try:
            response = await asyncio.wait_for(
                self.client.request(method, path, payload, headers=headers),
                self.timeout_s,
            )
        except (asyncio.TimeoutError, OSError, ProtocolError,
                asyncio.IncompleteReadError) as exc:
            raise OpFailed(f"{method} {path}: {type(exc).__name__}: {exc}") from exc
        if response.status != expect:
            raise OpFailed(f"{method} {path}: HTTP {response.status} {response.body[:120]!r}")
        if text:
            return response.body.decode("utf-8")
        try:
            return response.json()
        except ValueError as exc:
            raise OpFailed(f"{method} {path}: malformed body: {exc}") from exc

    async def establish(self, arrival: SessionArrival) -> dict:
        return await self._call("POST", "/v1/establish", arrival_payload(arrival))

    async def establish_batch(self, arrivals: Sequence[SessionArrival]) -> list:
        documents = await self._call(
            "POST", "/v1/establish_batch",
            {"arrivals": [arrival_payload(a) for a in arrivals]},
        )
        if not isinstance(documents, list) or len(documents) != len(arrivals):
            raise OpFailed(f"establish_batch: expected {len(arrivals)} replies")
        return documents

    async def renegotiate(self, session_id: str) -> dict:
        document = await self._call(
            "POST", "/v1/renegotiate", {"session_id": session_id, "trigger": "api"}
        )
        if not isinstance(document, dict) or "outcome" not in document:
            raise OpFailed(f"renegotiate {session_id}: malformed reply")
        return document

    async def teardown(self, session_id: str) -> None:
        document = await self._call("POST", "/v1/teardown", {"session_id": session_id})
        if not isinstance(document, dict) or not document.get("released"):
            raise OpFailed(f"{session_id}: teardown released nothing")

    async def read(self, arrival: SessionArrival) -> None:
        if self.router:
            document = await self._call("GET", "/v1/query")
            ok = isinstance(document, dict) and "per_shard" in document
        else:
            document = await self._call(
                "GET", f"/v1/query?session_id={arrival.session_id}"
            )
            ok = isinstance(document, dict) and document.get("level") is not None
        if not ok:
            raise OpFailed(f"query {arrival.session_id}: unexpected {document!r}")

    async def availability(self) -> dict:
        document = await self._call("GET", "/v1/availability")
        if not isinstance(document, dict) or not document.get("resources"):
            raise OpFailed("availability: no resources reported")
        return document

    async def metrics(self) -> str:
        text = await self._call("GET", "/metrics", text=True)
        if "admission_phase_seconds" not in text:
            raise OpFailed("metrics: phase histograms missing from the exposition")
        return text

    async def healthz(self) -> None:
        await self._call("GET", "/healthz")

    async def establish_duplicate(self, arrival: SessionArrival) -> None:
        """Establish a session that is live: refused with 409 before any planning."""
        await self._call("POST", "/v1/establish", arrival_payload(arrival), expect=409)

    async def leak(self) -> Optional[str]:
        """None when a daemon holds no session, lease or reserved capacity."""
        document = await self._call("GET", "/v1/query")
        if self.router:
            if document.get("active_sessions") != 0:
                return f"router still tracks {document.get('active_sessions')} sessions"
            return None
        busy = {r: u for r, u in document.get("utilization", {}).items() if abs(u) > 1e-9}
        if busy:
            return f"brokers still reserved after final teardown: {busy}"
        if document.get("active_sessions") != 0:
            return f"{document.get('active_sessions')} sessions still active"
        if document.get("shard", {}).get("pending_leases"):
            return f"{document['shard']['pending_leases']} leases still pending"
        return None

    async def aclose(self) -> None:
        await self.client.aclose()


class _TimedShard:
    """A shard client whose every call is a child span of the open admission."""

    def __init__(self, inner: HttpShardClient, recorder: _spans.SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.index = inner.index
        self.label = inner.label

    def __getattr__(self, name: str):
        call = getattr(self._inner, name)
        if name in ("aclose", "forward_raw"):
            return call
        recorder = self._recorder

        async def timed(*args, **kwargs):
            parent = recorder.current
            start = time.perf_counter()
            try:
                return await call(*args, **kwargs)
            finally:
                recorder.add(f"cluster.shard.{name}", start, time.perf_counter(), parent)

        return timed


class RouterTarget:
    """A ``ClusterCoordinator`` in the benchmark's process over timed shard clients.

    The traced stand-in for the ``repro-cluster`` subprocess: same class,
    same live shards, but every shard call is visible as a span, which
    splits an admission into availability wait, planning, reserve and
    commit round trips.
    """

    def __init__(self, shard_ports: Sequence[int], recorder: _spans.SpanRecorder) -> None:
        self.recorder = recorder
        self.coordinator = ClusterCoordinator(
            [
                _TimedShard(HttpShardClient(index, "127.0.0.1", port), recorder)
                for index, port in enumerate(shard_ports)
            ],
            seed=sut.GRID_SEED,
        )

    async def _call(self, name: str, operation) -> object:
        span = self.recorder.open(name)
        try:
            status, body = await operation
        finally:
            self.recorder.close(span)
        if status != 200:
            raise OpFailed(f"{name}: status {status} {body[:120]!r}")
        return json.loads(body)

    async def establish(self, arrival: SessionArrival) -> dict:
        return await self._call(
            "cluster.router.establish",
            self.coordinator.establish(arrival_payload(arrival)),
        )

    async def teardown(self, session_id: str) -> None:
        document = await self._call(
            "cluster.router.teardown",
            self.coordinator.teardown({"session_id": session_id}),
        )
        if not document.get("released"):
            raise OpFailed(f"{session_id}: teardown released nothing")

    async def read(self, arrival: SessionArrival) -> None:
        await self._call("cluster.router.query", self.coordinator.query())

    async def healthz(self) -> None:
        pass

    async def leak(self) -> Optional[str]:
        live = len(self.coordinator.sessions)
        return f"router still tracks {live} sessions" if live else None

    async def aclose(self) -> None:
        await self.coordinator.aclose()


# -- running a script ------------------------------------------------------


async def _timed(target, tally: Tally, name: str, operation, rid: Optional[str] = None):
    """Await one operation; returns ``(seconds, result)`` or raises OpFailed."""
    tally.attempted += 1
    recorder = target.recorder if tally.recording else None
    if recorder is None:
        start = time.perf_counter()
        result = await operation
        return time.perf_counter() - start, result
    span = recorder.open(name, rid)
    try:
        result = await operation
    finally:
        seconds = recorder.close(span)
    return seconds, result


async def _op(target, tally: Tally, name: str, operation, waited: float = 0.0,
              position: Optional[int] = None):
    """One non-admission operation; its result, or None after counting a failure.

    ``position`` places a read in the script, so that the same read can be
    compared across rounds.
    """
    try:
        seconds, result = await _timed(target, tally, name, operation)
    except OpFailed as exc:
        tally.fail(str(exc))
        return None
    if tally.recording and name == "read":
        tally.read_s[position] = (len(tally.chunks) - 1, waited + seconds)
    return result if result is not None else True


async def _admit(target, script: Script, tally: Tally, index: int, waited: float = 0.0) -> None:
    """Establish arrival ``index`` and then expire the one leaving the window."""
    arrival = script.arrivals[index]
    try:
        seconds, document = await _timed(
            target, tally, "admit", target.establish(arrival), arrival.session_id
        )
        decision = check_decision(document, arrival.session_id)
    except OpFailed as exc:
        tally.fail(str(exc))
    else:
        if tally.recording:
            tally.admit_s[index] = (len(tally.chunks) - 1, waited + seconds)
        _record_decision(tally, index, decision)
    await _expire(target, script, tally, index)


def _record_decision(tally: Tally, index: int, decision: tuple) -> None:
    if tally.recording:
        tally.decisions[index] = decision
        if len(tally.decisions) >= tally.next_tick:
            tally.tick()
    if decision[1]:
        tally.live[index] = True
        tally.last_admitted = index


async def _expire(target, script: Script, tally: Tally, index: int) -> None:
    """Tear down the arrival that leaves the window, if it is live."""
    old = index - K_WINDOW
    if old >= 0 and tally.live.pop(old, False):
        await _op(target, tally, "teardown", target.teardown(script.arrivals[old].session_id))


async def closed_loop(target, script: Script, tally: Tally, indices: Sequence[int]) -> None:
    """One caller: the next request only after the previous reply."""
    for done, index in enumerate(indices, start=1):
        await _admit(target, script, tally, index)
        if done % READ_EVERY == 0 and tally.last_admitted is not None:
            await _op(target, tally, "read", target.read(script.arrivals[tally.last_admitted]),
                      position=index)


async def _mixed_op(target, script: Script, tally: Tally, position: int, waited: float) -> None:
    """One scheduled operation of the open loop plus its ride-along teardowns."""
    kind, first = script.ops[position]
    arrivals = script.arrivals
    newest = tally.last_admitted
    if kind == "establish":
        await _admit(target, script, tally, first, waited)
    elif kind == "batch":
        members = range(first, first + BATCH_SIZE)
        documents = await _op(
            target, tally, "batch",
            target.establish_batch([arrivals[i] for i in members]), waited,
        )
        if documents is None:
            return
        for index, document in zip(members, documents):
            try:
                _record_decision(
                    tally, index, check_decision(document, arrivals[index].session_id)
                )
            except OpFailed as exc:
                tally.fail(str(exc))
        for index in members:
            await _expire(target, script, tally, index)
    elif newest is None:
        return
    elif kind == "query":
        await _op(target, tally, "read", target.read(arrivals[newest]), waited, position)
    elif kind == "renegotiate":
        document = await _op(
            target, tally, "renegotiate",
            target.renegotiate(arrivals[newest].session_id), waited,
        )
        if document is not None and document["outcome"] == "failed_dropped":
            tally.live.pop(newest, None)
    else:
        await _op(target, tally, kind, getattr(target, kind)(), waited)


async def open_loop(targets: Sequence, script: Script, tally: Tally, lo: int, hi: int,
                    interval: Optional[float]) -> None:
    """Operations ``lo..hi`` of the script, one due every ``interval`` seconds.

    A connection takes the next scheduled operation, waits for its due
    time and sends it; latency runs from the due time, so a stall is
    charged to every operation it delays.  Unpaced when ``interval`` is None.
    """
    cursor = itertools.count(lo)
    epoch = time.perf_counter()

    async def connection(target) -> None:
        while True:
            position = next(cursor)
            if position >= hi:
                return
            waited = 0.0
            if interval is not None:
                due = epoch + (position - lo) * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                waited = time.perf_counter() - due
                tally.late_s.append(waited)
            await _mixed_op(target, script, tally, position, waited)

    await asyncio.gather(*(connection(target) for target in targets))


async def _run_span(targets: Sequence, script: Script, tally: Tally, lo: int, hi: int,
                    interval: Optional[float] = None) -> None:
    """Positions ``lo..hi`` of the script over every connection."""
    if script.ops:
        await open_loop(targets, script, tally, lo, hi, interval)
    else:
        clients = len(targets)
        await asyncio.gather(*(
            closed_loop(target, script, tally, range(lo + c, hi, clients))
            for c, target in enumerate(targets)
        ))


async def run_script(targets: Sequence, script: Script, tally: Tally, probe, *,
                     on_ready) -> float:
    """Warm up, call ``on_ready()``, run the measured chunks; returns their wall seconds.

    The reference ``probe`` is sampled at every chunk edge, while the
    system under test is idle.  The open loop is paced in reference time
    too: one operation every ``1 / MIXED_OPS_PER_SECOND`` seconds of a
    host at nominal speed, so that a slower host sees the same
    utilisation, not a higher one.
    """
    await _run_span(targets, script, tally, 0, script.warmup)
    await on_ready()
    tally.recording = True
    nominal = reference.NOMINAL_S[script.workload]
    started = time.perf_counter()
    steal = sut.steal_seconds()
    tally.edges.append(await probe.sample())
    for lo, hi in script.chunk_bounds():
        interval = None
        if script.ops:
            recent = [seconds for edge in tally.edges[-2:] for seconds in edge]
            interval = statistics.median(recent) / nominal / MIXED_OPS_PER_SECOND
        tally.open_chunk()
        await _run_span(targets, script, tally, lo, hi, interval)
        tally.tick(final=True)
        tally.edges.append(await probe.sample())
    wall = time.perf_counter() - started
    tally.steal_share = (sut.steal_seconds() - steal) / (wall * len(os.sched_getaffinity(0)))
    tally.recording = False
    return wall


async def drain(target, script: Script, tally: Tally) -> None:
    """The final window teardown: release every session still live."""
    for index in sorted(tally.live):
        await _op(target, tally, "teardown", target.teardown(script.arrivals[index].session_id))
    tally.live.clear()


def summarize(script: Script, tally: Tally, targets: Sequence, *, setup_s: float,
              wall_s: float, rss_mb: float) -> RoundResult:
    rows = [tally.decisions[i] for i in sorted(tally.decisions)]
    admitted = sum(1 for row in rows if row[1])
    levels: Dict[str, int] = {}
    for row in rows:
        if row[1]:
            levels[str(row[2])] = levels.get(str(row[2]), 0) + 1
    if len(rows) != script.measured_arrivals:
        tally.fail(
            f"admitted + refused = {len(rows)} but {script.measured_arrivals} decisions were sent"
        )

    def in_script_order(samples: Dict[int, Tuple[int, float]]) -> List[list]:
        return [[position, chunk, 1e3 * seconds]
                for position, (chunk, seconds) in sorted(samples.items())]

    return RoundResult(
        chunks=tally.chunks,
        edges=tally.edges,
        steal_share=tally.steal_share,
        workload=script.workload,
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=rss_mb,
        decisions=len(rows),
        admitted=admitted,
        refused=len(rows) - admitted,
        levels=levels,
        admit=in_script_order(tally.admit_s),
        read=in_script_order(tally.read_s),
        late_ms=[1e3 * s for s in tally.late_s],
        attempted=tally.attempted,
        failed=tally.failed,
        failures=list(tally.failures),
        decision_digest=hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest(),
        spans=_spans.merge([t.recorder for t in targets if t.recorder is not None]),
    )


# -- rounds ----------------------------------------------------------------


async def dark_round(script: Script, traced: bool, announce_ready) -> RoundResult:
    """``coord_dark``, run inside the worker process ``run.py`` spawns for it.

    ``announce_ready`` tells the parent that warm-up is done; the parent
    times set-up from its own side of the spawn.
    """
    tally = Tally(tick_decisions=TICK_DECISIONS[script.workload])
    target = DarkTarget(_spans.SpanRecorder() if traced else None)

    async def ready() -> None:
        announce_ready()

    wall = await run_script([target], script, tally, reference.HotProbe(), on_ready=ready)
    await drain(target, script, tally)
    leak = await target.leak()
    if leak:
        tally.fail(f"leak: {leak}")
    return summarize(
        script, tally, [target], setup_s=math.nan, wall_s=wall,
        rss_mb=sut.peak_rss_mb([os.getpid()]),
    )


def _phase_sums(exposition: str) -> Dict[str, Tuple[float, float]]:
    """phase -> (sum seconds, count) of ``daemon.admission_phase_seconds``."""
    sums = {}
    for key, histogram in parse_exposition(exposition).histograms.items():
        if "admission_phase_seconds" in key:
            phase = key.split('phase="', 1)[1].split('"', 1)[0]
            sums[phase] = (histogram.sum, histogram.count)
    return sums


def _spawn_targets(group: sut.ProcessGroup, script: Script, traced: bool, timeout_s: float):
    """Start the workload's processes; returns ``(targets, inspectors)``.

    ``targets`` carry the script; ``inspectors`` are one plain connection
    per daemon for the checks and scrapes outside the measured script.
    """
    seed = ["--seed", str(sut.GRID_SEED)]
    recorder = _spans.SpanRecorder if traced else (lambda: None)
    if script.workload != "cluster3_serial":
        daemon = group.spawn_daemon(
            "repro.service.cli", [*seed, *(["--access-log"] if traced else [])],
            script.workload,
        )
        port = sut.read_boot_port(daemon)
        targets = [
            HttpTarget(port, timeout_s, recorder=recorder()) for _ in range(script.clients)
        ]
        return targets, [HttpTarget(port, timeout_s)]
    shards = [
        group.spawn_daemon(
            "repro.service.cli",
            [*seed, "--shard-index", str(index), "--shard-count", "3"],
            f"{script.workload}-shard{index}",
        )
        for index in range(3)
    ]
    ports = [sut.read_boot_port(shard) for shard in shards]
    inspectors = [HttpTarget(port, timeout_s) for port in ports]
    if traced:
        return [RouterTarget(ports, recorder())], inspectors
    shard_flags = itertools.chain.from_iterable(
        ("--shard", f"127.0.0.1:{port}") for port in ports
    )
    router = group.spawn_daemon(
        "repro.cluster.cli", [*seed, *shard_flags], f"{script.workload}-router"
    )
    return [HttpTarget(sut.read_boot_port(router), timeout_s, router=True)], inspectors


async def _median_seconds(call: Callable, calls: int) -> float:
    """Median seconds of ``await call()`` over ``calls`` back-to-back calls."""
    samples = []
    for _ in range(calls):
        started = time.perf_counter()
        await call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


async def http_round(script: Script, traced: bool, timeout_s: float,
                     reference_port: int) -> RoundResult:
    """A daemon or cluster workload: spawn, warm up, measure, verify, kill.

    ``reference_port`` is the benchmark's own echo server (:mod:`reference`),
    one per run and not part of the system under test: up before set-up is
    timed, absent from the CPU and RSS sums.
    """
    tally = Tally(tick_decisions=TICK_DECISIONS[script.workload])
    scrape_phases = traced and script.workload != "cluster3_serial"
    daemon_log = sut.OUT_DIR / "logs" / f"{script.workload}.stderr"
    probe = reference.EchoProbe(
        reference_port, script.clients,
        gap_s=script.clients / MIXED_OPS_PER_SECOND if script.ops else 0.0,
    )
    with sut.ProcessGroup() as group:
        started = time.perf_counter()
        targets, inspectors = _spawn_targets(group, script, traced, timeout_s)
        pids = group.pids()
        tally.cpu_clock = lambda: sut.cpu_seconds(pids)
        marks: Dict[str, object] = {"setup": math.nan}
        wall = rss = math.nan
        extra: Dict[str, float] = {}
        try:
            await probe.open()
            for target in targets + inspectors:
                await target.healthz()

            async def ready() -> None:
                if scrape_phases:
                    marks["phases"] = _phase_sums(await inspectors[0].metrics())
                if traced and isinstance(targets[0], HttpTarget):
                    # GET /healthz over the keep-alive connection.
                    extra["roundtrip_floor_us"] = 1e6 * await _median_seconds(
                        targets[0].healthz, 200)
                marks["setup"] = time.perf_counter() - started
                marks["own_cpu"] = time.process_time()

            wall = await run_script(targets, script, tally, probe, on_ready=ready)
            extra["loadgen_cpu_share"] = (time.process_time() - marks["own_cpu"]) / wall
            if script.workload == "cluster3_serial" and not traced:
                # The caller->router hop on an establish's real bytes: the
                # router refuses a live session before it calls any shard.
                # The traced stand-in has no such hop; budget.py adds this.
                live = script.arrivals[tally.last_admitted]
                extra["router_hop_us"] = 1e6 * await _median_seconds(
                    lambda: targets[0].establish_duplicate(live), 100)
            if scrape_phases:
                for phase, (total, count) in _phase_sums(await inspectors[0].metrics()).items():
                    before = marks["phases"].get(phase, (0.0, 0.0))
                    extra[f"phase_{phase}_s"] = total - before[0]
                    extra[f"phase_{phase}_n"] = count - before[1]
            await drain(targets[0], script, tally)
            # Every daemon answers for its own brokers; the router for its sessions.
            routers = [t for t in targets if not isinstance(t, HttpTarget) or t.router]
            for target in routers + inspectors:
                leak = await target.leak()
                if leak:
                    tally.fail(f"leak: {leak}")
            clients = [t.client for t in targets if isinstance(t, HttpTarget)]
            extra["connections_opened"] = float(sum(c.connections_opened for c in clients))
            extra["connections_reused"] = float(sum(c.connections_reused for c in clients))
            rss = sut.peak_rss_mb(pids)
        except OpFailed as exc:
            # A call outside the script (healthz, scrape, leak query) failed.
            tally.attempted += 1
            tally.fail(str(exc))
        finally:
            for target in [probe, *targets, *inspectors]:
                await target.aclose()
    result = summarize(
        script, tally, targets, setup_s=marks["setup"], wall_s=wall, rss_mb=rss
    )
    result.extra.update(extra)
    if scrape_phases:
        # Complete only now that the daemon has exited and its log is closed.
        layers.attach_access_log(result.spans, daemon_log.read_text().splitlines())
    return result
