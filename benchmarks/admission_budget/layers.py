"""Per-layer metrics: the catalogue, the in-process probes, and the budget rows.

Two kinds of per-layer reading, both taken from outside the program:

* **probes** time calls into one layer's public functions on inputs made
  from ``--seed`` (this module, run in its own subprocess so that the
  observability handles it installs never meet the load generator);
* **round** metrics come from the spans, scrapes and access log of the
  traced round of one workload (:func:`round_metrics`).  A layer that is
  not on a workload's path reads 0 there.

``CATALOGUE`` is the contract: ``BENCHMARK.json`` lists exactly these
names, and every entry says which end-to-end metric on which workload
the layer is predicted to move.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import spans as _spans

# name, unit, better, predicted to move (end-to-end metric @ workload)
_A = "admit_p50_ms"
CATALOGUE: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.env_build_ms", "ms", "lower", "setup_s @ all"),
    ("sim.workload_gen_us", "us", "lower", "setup_s @ all"),
    ("brokers.snapshot_us", "us", "lower", f"{_A} @ coord_dark, daemon_closed"),
    ("brokers.reserve_release_us", "us", "lower", f"{_A} @ coord_dark, daemon_closed"),
    ("brokers.observe_fresh_us", "us", "lower", f"{_A} @ coord_dark"),
    ("brokers.observe_aged_us", "us", "lower",
     f"{_A}, cpu_ms_per_decision @ daemon_closed, cluster3_serial; none @ coord_dark"),
    ("brokers.history_growth_ratio", "ratio", "lower",
     f"{_A}, cpu_ms_per_decision @ daemon_closed, cluster3_serial; none @ coord_dark"),
    ("core.qrg.skeleton_build_us", "us", "lower", "setup_s @ all (cold cache only)"),
    ("core.qrg.skeleton_hit_ratio", "ratio", "higher", f"{_A} @ coord_dark"),
    ("core.qrg.price_us", "us", "lower", f"{_A}, decisions_per_s @ coord_dark"),
    ("core.qrg.nodes", "count", "lower", f"{_A} @ coord_dark"),
    ("core.qrg.edges", "count", "lower", f"{_A} @ coord_dark"),
    ("core.dijkstra.search_us", "us", "lower", f"{_A}, decisions_per_s @ coord_dark"),
    ("core.planner.plan_us", "us", "lower", f"{_A}, decisions_per_s @ coord_dark"),
    ("core.planner.plan_self_us", "us", "lower", f"{_A} @ coord_dark"),
    ("core.planner.batch_memo_hit_ratio", "ratio", "higher", "decisions_per_s @ daemon_mixed"),
    ("core.tradeoff.plan_us", "us", "lower", "none (algorithm=basic on every workload)"),
    ("runtime.coordinator.establish_us", "us", "lower", f"{_A}, admit_p90_ms @ coord_dark"),
    ("runtime.coordinator.reserve_self_us", "us", "lower", f"{_A} @ coord_dark"),
    ("runtime.coordinator.teardown_us", "us", "lower", "decisions_per_s @ coord_dark"),
    ("runtime.coordinator.plan_session_us", "us", "lower",
     "read_p50_ms @ coord_dark; admit_p50_ms @ cluster3_serial"),
    ("runtime.coordinator.establish_batch_us_per_arrival", "us", "lower",
     "decisions_per_s, cpu_ms_per_decision @ daemon_mixed"),
    ("runtime.coordinator.renegotiate_us", "us", "lower", "admit_p90_ms @ daemon_mixed"),
    ("runtime.coordinator.admitted", "count", "higher", "none (exact count of the script)"),
    ("runtime.coordinator.refused", "count", "lower", "none (exact count of the script)"),
    ("runtime.coordinator.mean_level", "level", "higher", "none (exact mean of the script)"),
    ("obs.establish_overhead_ratio", "ratio", "lower",
     "cpu_ms_per_decision @ daemon_closed, cluster3_serial; none @ coord_dark"),
    ("obs.flight_overhead_ratio", "ratio", "lower",
     "cpu_ms_per_decision, decisions_per_s @ daemon_closed; none @ coord_dark"),
    ("obs.events_per_admission", "count", "lower", "cpu_ms_per_decision @ daemon_closed"),
    ("obs.spans_per_admission", "count", "lower", "cpu_ms_per_decision @ daemon_closed"),
    ("obs.prom.exposition_ms", "ms", "lower", "admit_p90_ms @ daemon_mixed"),
    ("obs.prom.parse_ms", "ms", "lower", "none (scraper side)"),
    ("service.daemon.establish_us", "us", "lower", f"{_A} @ daemon_closed, daemon_mixed"),
    ("service.daemon.teardown_us", "us", "lower", "decisions_per_s @ daemon_closed"),
    ("service.daemon.query_us", "us", "lower", "read_p50_ms @ daemon_closed, daemon_mixed"),
    ("service.daemon.availability_us", "us", "lower",
     "admit_p90_ms @ daemon_mixed; admit_p50_ms @ cluster3_serial"),
    ("service.daemon.metrics_us", "us", "lower", "admit_p90_ms @ daemon_mixed"),
    ("service.daemon.reserve_commit_us", "us", "lower", f"{_A} @ cluster3_serial"),
    ("service.daemon.phase.parse_us", "us", "lower", f"{_A} @ daemon_closed, daemon_mixed"),
    ("service.daemon.phase.queue_wait_us", "us", "lower",
     "admit_p90_ms @ daemon_mixed first, then daemon_closed"),
    ("service.daemon.phase.plan_us", "us", "lower", f"{_A} @ daemon_closed, daemon_mixed"),
    ("service.daemon.phase.commit_us", "us", "lower", f"{_A} @ daemon_closed, daemon_mixed"),
    ("service.daemon.phase.serialize_us", "us", "lower", f"{_A} @ daemon_closed, daemon_mixed"),
    ("service.daemon.drift_ratio", "ratio", "lower",
     "admit_p90_ms @ daemon_closed, cluster3_serial; 1.0 @ coord_dark"),
    ("service.http.read_request_us", "us", "lower", f"{_A} @ daemon_closed, daemon_mixed"),
    ("service.http.response_bytes_us", "us", "lower", f"{_A} @ daemon_closed, daemon_mixed"),
    ("service.http.request_bytes", "bytes", "lower", f"{_A} @ daemon_closed"),
    ("service.http.response_bytes", "bytes", "lower", f"{_A} @ daemon_closed"),
    ("service.client.roundtrip_floor_us", "us", "lower",
     f"{_A} @ daemon_closed, daemon_mixed; x(1 + shard calls) @ cluster3_serial"),
    ("service.client.connections_opened", "count", "lower", "setup_s @ daemon workloads"),
    ("service.client.connections_reused", "count", "higher", f"{_A} @ daemon workloads"),
    ("loadgen.late_p90_ms", "ms", "lower", "admit_p90_ms @ daemon_mixed (generator, not program)"),
    ("loadgen.cpu_share", "ratio", "lower", "decisions_per_s @ daemon_closed (generator)"),
    ("cluster.shardmap.build_ms", "ms", "lower", "setup_s @ cluster3_serial"),
    ("cluster.shardmap.shards_per_admission", "count", "lower", f"{_A} @ cluster3_serial"),
    ("cluster.router.establish_ms", "ms", "lower", f"{_A}, decisions_per_s @ cluster3_serial"),
    ("cluster.router.availability_rtt_ms", "ms", "lower", f"{_A} @ cluster3_serial"),
    ("cluster.router.availability_wait_ms", "ms", "lower", f"{_A} @ cluster3_serial"),
    ("cluster.router.plan_self_ms", "ms", "lower", f"{_A} @ cluster3_serial"),
    ("cluster.router.reserve_rtt_ms", "ms", "lower", f"{_A} @ cluster3_serial"),
    ("cluster.router.commit_rtt_ms", "ms", "lower", f"{_A} @ cluster3_serial"),
    ("cluster.router.shard_calls_per_admission", "count", "lower", f"{_A} @ cluster3_serial"),
    ("cluster.router.rollbacks", "count", "lower", "decisions_per_s @ cluster3_serial"),
    ("cluster.router.serial_share", "ratio", "lower",
     f"{_A} @ cluster3_serial (the fan-out headroom)"),
    ("budget.unattributed_us", "us", "lower", "none (what the rows do not explain)"),
    ("trace.overhead_ratio", "ratio", "lower", "none (cost of the benchmark's own spans)"),
)
PER_LAYER_NAMES = tuple(name for name, *_ in CATALOGUE)
PHASES = ("parse", "queue_wait", "plan", "commit", "serialize")
_SHARD_CALLS = tuple(
    f"cluster.shard.{name}" for name in ("availability", "reserve", "commit", "abort")
)


# -- probes ----------------------------------------------------------------


def _per_call_us(call: Callable, inputs: Sequence, repeats: int = 5,
                 before: Callable = None) -> float:
    """Median over ``repeats`` passes of the mean microseconds per call.

    ``before`` runs untimed ahead of every call (the dark probes use it to
    advance the DES clock, as the simulator does between arrivals).
    """
    means = []
    for _ in range(repeats):
        total = 0.0
        for item in inputs:
            if before is not None:
                before()
            started = time.perf_counter()
            call(item)
            total += time.perf_counter() - started
        means.append(total / len(inputs))
    return 1e6 * statistics.median(means)


def _timed_pairs(do: Callable, undo: Callable, inputs: Sequence, repeats: int = 5,
                 before: Callable = None):
    """(do µs, undo µs) per call, each ``do`` undone so the state stays put."""
    do_means, undo_means = [], []
    for _ in range(repeats):
        do_s = undo_s = 0.0
        for item in inputs:
            if before is not None:
                before()
            t0 = time.perf_counter()
            token = do(item)
            t1 = time.perf_counter()
            undo(item, token)
            do_s += t1 - t0
            undo_s += time.perf_counter() - t1
        do_means.append(do_s / len(inputs))
        undo_means.append(undo_s / len(inputs))
    return 1e6 * statistics.median(do_means), 1e6 * statistics.median(undo_means)


def run_probes(seed: int) -> Dict[str, float]:
    """Every workload-independent per-layer metric, on inputs made from ``seed``."""
    from repro.brokers.local import LocalResourceBroker
    from repro.cluster.shardmap import ShardMap
    from repro.core.dijkstra import minimax_dijkstra
    from repro.core.planner import BasicPlanner
    from repro.core.qrg import build_skeleton, price_skeleton
    from repro.core.tradeoff import TradeoffPlanner
    from repro.des.engine import Environment
    from repro.des.rng import RandomStreams
    from repro.obs import ObservationSession
    from repro.obs.prom import parse_exposition
    from repro.service.daemon import DaemonConfig, ReservationService
    from repro.service.loadgen import arrival_payload
    from repro.sim.environment import GridEnvironment
    from repro.sim.experiment import CONTENTION_INDICES
    from repro.sim.workload import WorkloadGenerator

    import sut
    import workloads as wl

    out: Dict[str, float] = {}
    ratio = CONTENTION_INDICES["ratio"]
    sample_size = 200

    # sim ------------------------------------------------------------------
    builds = []
    for _ in range(5):
        started = time.perf_counter()
        GridEnvironment(Environment(), RandomStreams(sut.GRID_SEED))
        builds.append(time.perf_counter() - started)
    out["sim.env_build_ms"] = 1e3 * statistics.median(builds)
    total = wl.K_WINDOW + sample_size
    started = time.perf_counter()
    arrivals = list(itertools.islice(
        WorkloadGenerator(wl.ARRIVAL_SPEC, RandomStreams(seed)).generate(), total))
    out["sim.workload_gen_us"] = 1e6 * (time.perf_counter() - started) / total
    warm, sample = arrivals[: wl.K_WINDOW], arrivals[wl.K_WINDOW:]

    def warmed_target() -> Tuple["wl.DarkTarget", list]:
        """The dark coordinator with the window full, and the arrivals it admitted."""
        target = wl.DarkTarget()
        admitted = []
        for arrival in warm:
            target.env.run(until=arrival.arrival_time)
            if target.admit(arrival).success:
                admitted.append(arrival)
        target.env.run(until=sample[0].arrival_time)
        return target, admitted

    # With the window full some brokers have next to nothing left, and on
    # some seeds no arrival of the sample is admitted on top of it.  A probe
    # that needs room or a live session takes it from what the warm-up left.
    # brokers, core: each layer's public entry points on the same inputs ------
    dark, window = warmed_target()
    grid, planner, coordinator = dark.grid, dark.planner, dark.grid.coordinator

    def tick(env=dark.env):
        """One time unit passes, so the availability window keeps pruning."""
        env.run(until=env.now + 1.0)

    bindings = [grid.binding_for(a.service, a.domain) for a in sample]
    resource_ids = [sorted(b.resource_ids()) for b in bindings]
    out["brokers.snapshot_us"] = _per_call_us(grid.registry.snapshot, resource_ids, before=tick)
    cpu = max(grid.cpu_brokers.values(), key=lambda broker: broker.available)
    amount = min(1.0, cpu.available / 2)
    out["brokers.reserve_release_us"] = _per_call_us(
        lambda _: cpu.release(cpu.reserve(amount, "probe")), range(sample_size))
    frozen = LocalResourceBroker("H0", "cpu", 1000.0, clock=lambda: 0.0)
    observe = lambda _: frozen.observe()  # noqa: E731
    out["brokers.observe_fresh_us"] = _per_call_us(observe, range(100), repeats=1)
    for _ in range(4000):  # reports under a clock that never advances
        frozen.observe()
    out["brokers.observe_aged_us"] = _per_call_us(observe, range(100), repeats=1)
    out["brokers.history_growth_ratio"] = (
        out["brokers.observe_aged_us"] / out["brokers.observe_fresh_us"])

    services = [grid.model_store.service(a.service) for a in sample]
    pairs = list(zip(services, bindings))
    out["core.qrg.skeleton_build_us"] = _per_call_us(
        lambda pair: build_skeleton(*pair), pairs[:50], repeats=3)
    skeletons = [build_skeleton(*pair) for pair in pairs]
    snapshots = [grid.registry.snapshot(rids) for rids in resource_ids]
    priced = list(zip(skeletons, snapshots))
    out["core.qrg.price_us"] = _per_call_us(lambda p: price_skeleton(*p), priced)
    qrgs = [price_skeleton(*p) for p in priced]
    out["core.qrg.nodes"] = statistics.fmean(q.count_nodes() for q in qrgs)
    out["core.qrg.edges"] = statistics.fmean(q.count_edges() for q in qrgs)
    out["core.dijkstra.search_us"] = _per_call_us(
        lambda q: minimax_dijkstra(q.source_node, q.successors, tie_break=True), qrgs)
    out["core.planner.plan_us"] = _per_call_us(planner.plan, qrgs)
    out["core.planner.plan_self_us"] = (
        out["core.planner.plan_us"] - out["core.dijkstra.search_us"])
    out["core.tradeoff.plan_us"] = _per_call_us(TradeoffPlanner().plan, qrgs)

    # runtime.coordinator ---------------------------------------------------
    admit = dark.admit

    def release(arrival, result):
        if result.success:
            coordinator.teardown(arrival.session_id)

    establish_us, teardown_us = _timed_pairs(admit, release, sample, before=tick)
    out["runtime.coordinator.establish_us"] = establish_us
    out["runtime.coordinator.teardown_us"] = teardown_us
    out["runtime.coordinator.reserve_self_us"] = establish_us - (
        out["brokers.snapshot_us"] + out["core.qrg.price_us"] + out["core.planner.plan_us"])
    stats = coordinator.qrg_skeletons.stats()
    out["core.qrg.skeleton_hit_ratio"] = stats["hits"] / (stats["hits"] + stats["misses"])
    out["runtime.coordinator.plan_session_us"] = _per_call_us(
        lambda item: coordinator.plan_session(
            item[0].session_id, item[0].service, item[1], planner, item[2],
            demand_scale=item[0].demand_scale, contention_index=ratio),
        list(zip(sample, bindings, snapshots)), before=tick)

    planner_calls = [0]

    class CountingPlanner(BasicPlanner):
        def plan(self, qrg):
            planner_calls[0] += 1
            return super().plan(qrg)

    requests = [
        a.to_session_request(b, component_hosts=grid.component_hosts_for(a.service, a.domain))
        for a, b in zip(sample, bindings)
    ]
    batches = [requests[i:i + wl.BATCH_SIZE] for i in range(0, len(requests), wl.BATCH_SIZE)]
    counting = CountingPlanner()

    def admit_batch(batch):
        return coordinator.establish_batch(batch, counting, contention_index=ratio)

    def release_batch(_batch, results):
        for result in results:
            if result.success:
                coordinator.teardown(result.session_id)

    batch_us, _ = _timed_pairs(admit_batch, release_batch, batches, repeats=3, before=tick)
    out["runtime.coordinator.establish_batch_us_per_arrival"] = batch_us / wl.BATCH_SIZE
    out["core.planner.batch_memo_hit_ratio"] = 1.0 - planner_calls[0] / (3 * len(requests))

    # The newest sessions of the window, as the open loop renegotiates them.
    live = window[-50:]
    out["runtime.coordinator.renegotiate_us"] = _per_call_us(
        lambda a: coordinator.renegotiate(
            a.session_id, a.service, grid.binding_for(a.service, a.domain), planner,
            component_hosts=grid.component_hosts_for(a.service, a.domain),
            demand_scale=a.demand_scale, contention_index=ratio, trigger="api"),
        live, repeats=3, before=tick)

    # obs: the same establish/teardown script, observed vs dark -------------------
    def cycle_us(target) -> float:
        """Establish + teardown per arrival on a freshly warmed coordinator."""
        teardown = target.grid.coordinator.teardown
        do_us, undo_us = _timed_pairs(
            target.admit,
            lambda a, r: teardown(a.session_id) if r.success else None,
            sample, repeats=3, before=lambda: tick(target.env),
        )
        return do_us + undo_us

    dark_cycle = cycle_us(warmed_target()[0])
    observed, _ = warmed_target()
    with ObservationSession() as session:
        observed_cycle = cycle_us(observed)
        admissions = 3 * len(sample)
        out["obs.events_per_admission"] = (
            (len(session.event_log) + session.event_log.dropped) / admissions)
        out["obs.spans_per_admission"] = len(session.tracer.records) / admissions
    out["obs.establish_overhead_ratio"] = observed_cycle / dark_cycle

    # service.daemon: a started ReservationService, no sockets --------------------
    service = ReservationService(DaemonConfig(seed=sut.GRID_SEED))
    service.start()
    try:
        for arrival in warm:
            service.establish(arrival_payload(arrival))
        payloads = [arrival_payload(a) for a in sample]

        def svc_release(payload, document):
            if document["success"]:
                service.teardown({"session_id": payload["session_id"]})

        svc_establish_us, svc_teardown_us = _timed_pairs(
            service.establish, svc_release, payloads, repeats=3)
        out["service.daemon.establish_us"] = svc_establish_us
        out["service.daemon.teardown_us"] = svc_teardown_us
        out["obs.flight_overhead_ratio"] = (svc_establish_us + svc_teardown_us) / dark_cycle
        live_ids = [a.session_id for a in warm if a.session_id in service.sessions][:100]
        out["service.daemon.query_us"] = _per_call_us(service.query, live_ids)
        out["service.daemon.availability_us"] = _per_call_us(
            lambda _: service.availability(), range(50))
        out["service.daemon.metrics_us"] = _per_call_us(
            lambda _: service.metrics_exposition(), range(20), repeats=3)
        out["obs.prom.exposition_ms"] = out["service.daemon.metrics_us"] / 1e3
        exposition = service.metrics_exposition()
        out["obs.prom.parse_ms"] = _per_call_us(parse_exposition, [exposition] * 5) / 1e3

        # Under the window's load some brokers have less than a unit left and
        # would refuse it: the lease takes a unit, or half of what is there.
        left = {rid: entry["available"] for rid, entry in service.availability()["resources"].items()}
        reservable = [rids for rids in resource_ids if all(left[rid] > 1e-6 for rid in rids)]
        if not reservable:
            raise RuntimeError("reserve/commit probe: every binding has an exhausted broker")

        def reserve_commit(index):
            outcome = service.reserve({
                "session_id": f"probe-{index}",
                "demands": {
                    rid: min(1.0, left[rid] / 2) for rid in reservable[index % len(reservable)]
                },
            })
            service.commit({"lease_id": outcome["lease_id"]})

        out["service.daemon.reserve_commit_us"], _ = _timed_pairs(
            reserve_commit,
            lambda index, _: service.teardown({"session_id": f"probe-{index}"}),
            range(sample_size), repeats=3)
        reply = service.establish(payloads[0])
    finally:
        service.close()

    # service.http: the parser and serializer on the bytes the client really sends -------
    out.update(asyncio.run(_http_probe(payloads[0], reply)))

    # cluster.shardmap ------------------------------------------------------------
    out["cluster.shardmap.build_ms"] = _per_call_us(
        lambda _: ShardMap.from_topology(grid.topology, 3), range(20)) / 1e3
    shard_map = ShardMap.from_topology(grid.topology, 3)
    out["cluster.shardmap.shards_per_admission"] = statistics.fmean(
        len({shard_map.shard_of(rid) for rid in rids}) for rids in resource_ids)
    return out


async def _http_probe(payload: dict, reply: dict) -> Dict[str, float]:
    """Capture one establish exchange off a loopback socket, then time the codec."""
    from repro.service import http
    from repro.service.client import ServiceClient

    canned = http.json_response_bytes(200, reply, close=False)
    captured: List[bytes] = []

    async def capture(reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length:", 1)[1].split(b"\r\n", 1)[0])
        captured.append(head + await reader.readexactly(length))
        writer.write(canned)
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(capture, "127.0.0.1", 0)
    client = ServiceClient("127.0.0.1", server.sockets[0].getsockname()[1])
    try:
        await client.establish(**payload)
    finally:
        await client.aclose()
        server.close()
        await server.wait_closed()
    wire = captured[0]

    async def parse_once() -> None:
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        request = await http.read_request(reader)
        request.json()

    passes = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(200):
            await parse_once()
        passes.append((time.perf_counter() - started) / 200)
    return {
        "service.http.read_request_us": 1e6 * statistics.median(passes),
        "service.http.response_bytes_us": _per_call_us(
            lambda _: http.json_response_bytes(200, reply, close=False), range(200)),
        "service.http.request_bytes": float(len(wire)),
        "service.http.response_bytes": float(len(canned)),
    }


# -- from one traced round --------------------------------------------------


def attach_access_log(spans: List[dict], lines: Iterable[str]) -> None:
    """Add the daemon's own handling time as a child of each traced admission.

    The access log (a surface the daemon already serves) carries the
    request id the benchmark sent and a duration that starts when the
    daemon began *waiting* for the request on its keep-alive connection.
    The wait is the caller's own gap since the previous reply on that
    connection, which the caller's spans know, so handling = duration -
    gap.  The child is centred in its parent: only durations are known.
    """
    logged = {}
    for line in lines:
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and "request_id" in entry:
            logged[entry["request_id"]] = entry.get("duration_ms", 0.0) / 1e3
    previous_reply: Dict[int, float] = {}
    for span in list(spans):
        if span["parent"] is not None:
            continue
        idle_since = previous_reply.get(span["conn"])
        previous_reply[span["conn"]] = span["end"]
        if span["name"] != "admit" or span["rid"] not in logged or idle_since is None:
            continue
        own = span["end"] - span["start"]
        handling = min(own, max(0.0, logged[span["rid"]] - (span["start"] - idle_since)))
        slack = (own - handling) / 2
        spans.append({
            "id": len(spans), "name": "service.daemon.request",
            "start": span["start"] + slack, "end": span["start"] + slack + handling,
            "parent": span["id"], "rid": span["rid"], "conn": span["conn"],
        })


def layer_rows(spans: List[dict]) -> Dict[str, List[float]]:
    """Per layer, each admission's self time in it (seconds; 0 when not entered).

    A span's self time is its interval minus what its children cover.
    Children that overlap (the router's parallel availability calls) are
    charged for wall time once: a child owns only the part of its interval
    no earlier sibling already covers, so the rows of one admission add up
    to the admission's own duration.
    """
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    roots = [s for s in spans if s["name"] == "admit" and s["parent"] is None]
    rows: Dict[str, List[float]] = defaultdict(lambda: [0.0] * len(roots))
    for position, root in enumerate(roots):
        stack = [(root, root["end"] - root["start"])]
        while stack:
            span, charged = stack.pop()
            covered, cursor = 0.0, span["start"]
            for kid in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
                owned = kid["end"] - max(kid["start"], cursor)
                if owned > 0.0:
                    covered += owned
                    cursor = kid["end"]
                    stack.append((kid, owned))
            rows[span["name"]][position] += max(0.0, charged - covered)
    return dict(rows)


def budget_rows(spans: List[dict], late_p50_ms: float, speed: float,
                hop_us: float) -> List[Tuple[str, int, float, float]]:
    """``(layer, admissions that entered it, mean us, p50 us)`` of self time.

    ``speed`` puts the raw span times at nominal host speed (the traced
    round's ``speed_factor``).  On the open loop the wait from an
    operation's due time to its send is the generator's own row.  On the
    cluster workload ``hop_us`` is the caller->router hop, which the traced
    stand-in for the router does not have: measured in the untraced rounds,
    already at nominal speed.
    """
    rows = [
        (name, sum(1 for value in seconds if value > 0.0),
         1e6 * speed * statistics.fmean(seconds), 1e6 * speed * statistics.median(seconds))
        for name, seconds in layer_rows(spans).items()
    ]
    if late_p50_ms and rows:
        late_us = 1e3 * speed * late_p50_ms
        rows.append(("loadgen.late", rows[0][1], late_us, late_us))
    if hop_us and rows:
        rows.append(("cluster.router.hop", rows[0][1], hop_us, hop_us))
    return rows


def drift_ratio(admit_ms: Sequence[float]) -> float:
    """Last-fifth over first-fifth median admission latency within a round."""
    fifth = max(1, len(admit_ms) // 5)
    return statistics.median(admit_ms[-fifth:]) / statistics.median(admit_ms[:fifth])


def round_metrics(traced, untraced_admit_p50_ms: float, hop_us: float) -> Dict[str, float]:
    """Every per-layer name; the ones a traced round yields are filled in.

    0 means the layer is not on the workload's path (or is a probe's to
    report: the caller lays the probe readings over this).
    """
    out = {name: 0.0 for name in PER_LAYER_NAMES}
    extra, spans = traced.extra, traced.spans
    speed = traced.speed_factor()  # raw seconds -> seconds at nominal host speed
    admit_ms = traced.normalised(traced.admit)
    out["trace.overhead_ratio"] = _spans.percentile(admit_ms, 50) / untraced_admit_p50_ms
    late_p50_ms = _spans.percentile(traced.late_ms, 50) if traced.late_ms else 0.0
    if traced.late_ms:
        out["loadgen.late_p90_ms"] = speed * _spans.percentile(traced.late_ms, 90)
    out["budget.unattributed_us"] = 1e3 * untraced_admit_p50_ms - sum(
        row[3] for row in budget_rows(spans, late_p50_ms, speed, hop_us))
    out["runtime.coordinator.admitted"] = float(traced.admitted)
    out["runtime.coordinator.refused"] = float(traced.refused)
    weights = {int(level): count for level, count in traced.levels.items()}
    if weights:
        out["runtime.coordinator.mean_level"] = (
            sum(level * count for level, count in weights.items()) / sum(weights.values()))
    out["service.daemon.drift_ratio"] = drift_ratio(admit_ms)
    out["loadgen.cpu_share"] = extra.get("loadgen_cpu_share", 0.0)
    out["service.client.connections_opened"] = extra.get("connections_opened", 0.0)
    out["service.client.connections_reused"] = extra.get("connections_reused", 0.0)
    out["service.client.roundtrip_floor_us"] = speed * extra.get("roundtrip_floor_us", 0.0)
    for phase in PHASES:
        seconds, count = extra.get(f"phase_{phase}_s"), extra.get(f"phase_{phase}_n")
        if not count:
            continue
        # Only establishments plan and commit; every locked operation
        # (teardowns included) parses, queues and serializes.
        per = traced.decisions if phase in ("plan", "commit") else count
        out[f"service.daemon.phase.{phase}_us"] = 1e6 * speed * seconds / per
    establishes = [s for s in spans if s["name"] == "cluster.router.establish"]
    if establishes:
        by_parent: Dict[int, List[dict]] = defaultdict(list)
        for span in spans:
            if span["name"] in _SHARD_CALLS:
                by_parent[span["parent"]].append(span)
        calls = [s for establish in establishes for s in by_parent[establish["id"]]]
        ms = lambda name: 1e3 * speed * _spans.p50(  # noqa: E731
            _spans.durations(spans, f"cluster.shard.{name}"))
        waits = []
        for establish in establishes:
            fan = [s for s in by_parent[establish["id"]] if s["name"].endswith("availability")]
            if fan:
                waits.append(max(s["end"] for s in fan) - min(s["start"] for s in fan))
        total = sum(s["end"] - s["start"] for s in establishes)
        out["cluster.router.establish_ms"] = 1e3 * speed * _spans.p50(
            [s["end"] - s["start"] for s in establishes])
        out["cluster.router.availability_rtt_ms"] = ms("availability")
        out["cluster.router.availability_wait_ms"] = 1e3 * speed * _spans.p50(waits)
        out["cluster.router.plan_self_ms"] = 1e3 * speed * _spans.p50(
            layer_rows(spans)["cluster.router.establish"])
        out["cluster.router.reserve_rtt_ms"] = ms("reserve")
        out["cluster.router.commit_rtt_ms"] = ms("commit")
        out["cluster.router.shard_calls_per_admission"] = len(calls) / len(establishes)
        out["cluster.router.rollbacks"] = float(
            sum(1 for s in calls if s["name"].endswith("abort")))
        out["cluster.router.serial_share"] = sum(s["end"] - s["start"] for s in calls) / total
    return out
