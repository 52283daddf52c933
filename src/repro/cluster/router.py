"""The cluster router: cross-shard admission over two-phase reserve/commit.

:class:`ClusterCoordinator` fronts N shard daemons, each serving the
slice of the grid its :class:`~repro.cluster.shardmap.ShardMap` index
assigns (every shard builds the identical same-seed grid, so capacities
agree without a directory service).  An establishment becomes:

1. **merged snapshot** -- ``GET /v1/availability?resources=...`` from
   every involved shard in one round, naming only the session's
   resources that shard owns (the paper's phase 1 reports exactly the
   resources a session needs); resources an unreachable shard should
   have reported are zero-filled, so planning degrades instead of
   crashing.
2. **local plan** -- the paper's phase 2 runs once, in the router,
   against the merged snapshot
   (:meth:`~repro.runtime.coordinator.ReservationCoordinator.plan_session`).
3. **two-phase commit** -- the plan's demand is split by owning shard;
   each shard holds its slice on a TTL lease (``/v1/reserve``), in
   shard order.  The last shard's reserve carries the commit (the fold):
   that shard holds and commits in one exchange, so a one-shard plan is
   a single exchange.  Only then does the router ``/v1/commit`` the
   earlier shards' leases.  Any failure aborts the held leases and tears
   down the committed slices; a shard that dies mid-round leaves only
   TTL leases behind, which its reaper releases -- no lost and no
   double-granted capacity, the :mod:`repro.runtime.leases` contract
   stretched across processes.

The router runs this one path at every shard count: a one-shard
admission is an availability round and a folded reserve, and its
establish and teardown bodies equal the daemon's (and therefore the
in-process coordinator's).

:class:`ClusterDaemon` serves the router inside the same
:class:`~repro.service.server.ServingShell` as a single daemon, so the
load generator and :class:`ServiceClient` work unchanged against a
cluster.  :class:`LocalShardClient` swaps the HTTP hop for a direct call
into the shard's route table (with per-shard event logs and the drain
flag) -- the transport the property tests race.

The router sends and reads shard exchanges in rounds, in one place,
:meth:`ClusterCoordinator._round`: every request of a round is written
first, then the replies are read in shard order -- with no task and no
timer per exchange.  One deadline, :data:`EXCHANGE_TIMEOUT` from the
round's start, bounds the whole round and so every exchange in it.  A
reply is either read (through a small per-route reader), a refusal that
applied nothing (``shard_draining``, ``shard_error``), or unknown
(``shard_unreachable``: no reply by the deadline, or one of the wrong
shape -- the shard may have applied the call).  What follows each
outcome is decided in one place as well, the sans-I/O core
:mod:`repro.cluster.protocol`, which holds the sessions, the teardown
debts and the per-shard generations: an unknown reserve is left to the
shard's TTL reaper, an unknown folded reserve, commit or teardown becomes
a teardown debt, and every unknown outcome bumps that shard's
*generation*.  :class:`ClusterCoordinator` is the core's driver: it
builds each exchange's payload, sends the core's ready round, and
delivers the outcomes back.  An unknown availability reply zero-fills
that shard's resources.

The router sends the generation on reserves and teardowns; a shard
refuses a reserve whose generation is below the highest it has seen.
The debt's teardown carries the bumped generation, so a folded reserve
still in flight when the teardown settles the debt (a 404: the shard
held nothing yet) is refused when it lands, instead of committing a
session no router owns.  The generations start at the router's boot
time in nanoseconds: a restarted router starts above any generation its
predecessor reached, and a shard keeps one integer, however often
routers restart.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from functools import partial
from typing import Awaitable, Dict, List, Optional, Sequence, Tuple

from repro.core import CONTENTION_INDICES, check_numbers, check_planner_fields, make_planner
from repro.core.errors import ModelError, ReproError
from repro.core.resources import AvailabilitySnapshot, ResourceObservation
from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.obs import events as _events
from repro.obs import trace as _trace
from repro.obs.metrics import Counter, MetricsRegistry, format_labels
from repro.obs.prom import registry_exposition
from repro.runtime.coordinator import EstablishmentResult
from repro.service import http as _http
from repro.service.http import encode_json
from repro.service.client import (
    UNREACHABLE,
    ServiceClient,
    ServiceClientError,
    ServiceDrainingError,
    ServiceResponse,
)
from repro.service.daemon import (
    ReservationService,
    ServiceError,
    _establishment_to_dict,
    decode_arrival,
    refusal,
)
from repro.service.server import DRAIN_REFUSAL, ServingShell
from repro.sim.environment import GridEnvironment

from repro.cluster.protocol import UNKNOWN, Admission, Exchange, Flush, RouterCore, Teardown
from repro.cluster.shardmap import ShardMap

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterDaemon",
    "HttpShardClient",
    "LocalShardClient",
]


#: Seconds the router waits for the replies of one round.
EXCHANGE_TIMEOUT = 10.0

#: Seconds the router's shutdown waits for in-flight admissions.
DRAIN_TIMEOUT = 10.0

#: ``Task.uncancel`` (3.11+) takes back the cancel a :class:`_Deadline` sent.
_UNCANCEL = hasattr(asyncio.Task, "uncancel")


class _Deadline:
    """Bounds the awaits of the current task by ``when`` (loop time).

    Inside the ``with`` block the task is cancelled at ``when``, and the
    block raises ``asyncio.TimeoutError`` instead.  A ``when`` already
    past cancels at the next loop iteration, so an await that needs no
    wait, such as a reply already buffered, still completes.  One timer,
    no task: ``asyncio.wait_for`` runs its call in a task of its own, and
    ``asyncio.timeout_at`` is 3.11+ only.

    A cancel sent from outside still cancels the task -- except on
    Python 3.10 when it comes after ``when`` but before the task runs
    again: without ``Task.uncancel`` it cannot be told from the
    deadline's own, so it is lost and the block raises the timeout.
    """

    def __init__(self, when: float) -> None:
        self._when = when
        self._expired = False

    def __enter__(self) -> "_Deadline":
        self._task = task = asyncio.current_task()
        self._cancelling = task.cancelling() if _UNCANCEL else 0
        self._timer = task.get_loop().call_at(self._when, self._expire)
        return self

    def _expire(self) -> None:
        self._expired = True
        self._task.cancel()

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self._timer.cancel()
        if self._expired and exc_type is asyncio.CancelledError:
            # Only our own cancel turns into a timeout; one sent from
            # outside as well still cancels the task (3.11+, see above).
            if not _UNCANCEL or self._task.uncancel() <= self._cancelling:
                raise asyncio.TimeoutError from exc
        return False


class _ShardClient:
    """The calls the router makes on one shard.

    Each per-kind call (:meth:`availability`, :meth:`reserve`, ...) writes
    its request through :meth:`send` when it is called, and returns a
    coroutine that reads the checked reply -- so the router writes a
    whole round before it reads any of it.
    """

    index: int
    label: str

    def send(
        self, method: str, target: str, payload: Optional[dict]
    ) -> Awaitable[ServiceResponse]:
        """Send one request; the awaitable gives its reply, with no bound.

        In process, the request is applied when the awaitable is awaited.
        """
        raise NotImplementedError

    def _call(self, method: str, target: str, payload: Optional[dict] = None):
        return _checked(self.send(method, target, payload))

    def availability(self, resource_ids: Sequence[str] = ()):
        """The shard's observations: of ``resource_ids``, or its whole slice."""
        query = f"?resources={','.join(resource_ids)}" if resource_ids else ""
        return self._call("GET", "/v1/availability" + query)

    def reserve(self, payload: dict):
        return self._call("POST", "/v1/reserve", payload)

    def commit(self, payload: dict):
        return self._call("POST", "/v1/commit", payload)

    def abort(self, payload: dict):
        return self._call("POST", "/v1/abort", payload)

    def teardown(self, payload: dict):
        return self._call("POST", "/v1/teardown", payload)

    def query(self):
        """The shard's ``?view=shard``: all the router reads of its state."""
        return self._call("GET", "/v1/query?view=shard")

    async def aclose(self) -> None:
        """Release pooled connections (none by default)."""


async def _checked(reply: Awaitable[ServiceResponse]) -> object:
    """The decoded body of ``reply``, or its status's typed error."""
    return (await reply).checked()


class HttpShardClient(_ShardClient):
    """One shard daemon reached over HTTP (keep-alive pooled).

    A per-kind call writes its request at once
    (:meth:`ServiceClient.send`) and leaves the bound on its reply to the
    round that reads it (:meth:`ClusterCoordinator._round`), so a shard
    that reads a request and never answers is an unknown outcome, not a
    router holding its admission lock forever.  The bound lives in the
    router, not in :class:`ServiceClient`: only the router has an
    unknown outcome to settle, and every other client would pay for it.
    """

    def __init__(self, index: int, host: str, port: int) -> None:
        self.index = index
        self.label = f"{host}:{port}"
        self._client = ServiceClient(host, port)

    def send(
        self, method: str, target: str, payload: Optional[dict]
    ) -> Awaitable[ServiceResponse]:
        return self._client.send(method, target, payload)

    def _call(self, method: str, target: str, payload: Optional[dict] = None):
        # One coroutine per exchange: the client checks the reply itself.
        return self._client.send(method, target, payload, checked=True)

    async def aclose(self) -> None:
        await self._client.aclose()


class LocalShardClient(_ShardClient):
    """In-process stand-in for a shard daemon (tests, benchmarks).

    Wraps a bare (not :meth:`~ReservationService.start`-ed) service and
    answers every call from the service's own route table
    (:meth:`~ReservationService.handle`) -- the daemon's routes minus
    the socket.  Every call runs under ``event_logging(self.log)`` so
    each shard keeps its own causal event log exactly as separate
    processes would.  ``draining`` is the daemon's drain flag.
    """

    def __init__(
        self,
        index: int,
        service: ReservationService,
        *,
        log: Optional[_events.EventLog] = None,
        label: Optional[str] = None,
    ) -> None:
        self.index = index
        self.service = service
        self.log = log
        self.label = label or f"local-{index}"
        self.draining = False

    def _logged(self):
        if self.log is None:
            return nullcontext()
        return _events.event_logging(self.log)

    async def send(
        self, method: str, target: str, payload: Optional[dict]
    ) -> ServiceResponse:
        await asyncio.sleep(0)  # the network hop: an interleave point
        path, query = _http.split_target(target)
        with self._logged():
            status, document = self.service.handle(
                method, path, query, payload, draining=self.draining
            )
        return ServiceResponse(status=status, headers={}, body=encode_json(document))

    async def reap(self, now: Optional[float] = None) -> int:
        """Run the shard's lease reaper (the daemon does this on a timer)."""
        with self._logged():
            return self.service.reap_expired_leases(now)


#: Reject reasons that are the infrastructure failing, not admission
#: control saying a QoS-aware "no": ``/metrics`` counts them as
#: ``verdict="rejected_infra"``, the errors of an availability SLO.
INFRA_REJECT_REASONS = frozenset(
    {"shard_unreachable", "shard_error", "shard_draining"}
)

#: What an exchange raises when no reply came (:data:`UNREACHABLE`), or
#: what a reader raises on a reply of the wrong shape.
_NO_READABLE_REPLY = UNREACHABLE + (
    AttributeError, LookupError, TypeError, ValueError, ModelError
)

#: A resource no readable reply covered: planning sees it exhausted.
_UNSEEN = ResourceObservation(available=0.0)


def _export_order(reason_and_counter) -> str:
    """Where ``cluster.rejects{reason=...}`` sorts in the registry's export."""
    return format_labels((("reason", reason_and_counter[0]),))


def _read_object(document) -> dict:
    """A JSON object: all the router reads off a commit, abort or query."""
    if not isinstance(document, dict):
        raise TypeError(f"expected a JSON object, got {type(document).__name__}")
    return document


def _read_availability(wanted, document) -> Dict[str, ResourceObservation]:
    """``GET /v1/availability``: the observations of the ``wanted`` resources.

    A reply that omits one of them raises ``KeyError``: it is unreadable.
    """
    reported = _read_object(document)["resources"]
    observations = {}
    for rid in wanted:
        fields = reported[rid]
        observed_at = fields.get("observed_at")
        observations[rid] = ResourceObservation(
            available=max(0.0, float(fields.get("available", 0.0))),
            alpha=float(fields.get("alpha", 1.0)),
            observed_at=None if observed_at is None else float(observed_at),
        )
    return observations


def _read_reserve(document) -> Tuple[Optional[str], Optional[str]]:
    """``/v1/reserve``: ``(lease_id, None)``, or ``(None, failed_resource)``."""
    if _read_object(document).get("reserved"):
        return document["lease_id"], None
    return None, document.get("failed_resource")


def _read_folded(document) -> Tuple[Optional[str], Optional[str]]:
    """A ``/v1/reserve`` that carried the commit: a hold must say committed."""
    lease_id, failed_resource = _read_reserve(document)
    if lease_id is not None and document.get("committed") is not True:
        raise ValueError("a folded reserve held without committing")
    return lease_id, failed_resource


def _read_released(document) -> int:
    """``/v1/teardown``: the amount the shard released."""
    return int(_read_object(document).get("released", 0))


#: How an exchange's reply reads, by kind (a commit's or an abort's is an
#: object); a folded reserve's reads with :func:`_read_folded`.
_READERS = {"reserve": _read_reserve, "teardown": _read_released}


class ClusterCoordinator(RouterCore):
    """Routes admissions across shard clients (HTTP or in-process).

    Holds its own same-seed planning replica of the grid -- used only
    for placement (:meth:`~repro.sim.environment.GridEnvironment
    .binding_for`) and phase-2 planning; it never reserves locally.
    Its routes return ``(status, body_bytes)``, what the serving layer
    writes.

    It is the protocol core (:class:`~repro.cluster.protocol.RouterCore`:
    ``sessions``, ``pending_teardowns``, ``generations``) with the I/O:
    it drives the core's operations over its shard clients.
    """

    def __init__(
        self,
        shards: Sequence,
        *,
        seed: int = 0,
        algorithm: str = "basic",
        capacity_range: Tuple[float, float] = (1000.0, 4000.0),
        contention_index: str = "ratio",
        tie_break: bool = True,
    ) -> None:
        if not shards:
            raise ModelError("a cluster needs at least one shard")
        check_planner_fields(algorithm, contention_index)
        self.shards = list(shards)
        self.env = Environment()
        self.streams = RandomStreams(seed)
        self.grid = GridEnvironment(
            self.env, self.streams, capacity_range=capacity_range
        )
        self.shard_map = ShardMap.from_topology(
            self.grid.topology, len(self.shards)
        )
        self.planner = make_planner(algorithm, tie_break, self.streams)
        self.contention_index = CONTENTION_INDICES[contention_index]
        self.seed = seed
        self.algorithm = algorithm
        super().__init__(len(self.shards), time.time_ns())
        self._session_ids = itertools.count(1)
        #: The router's own scrape surface (NOT globally installed --
        #: the router may share a process with shard services in tests).
        self.registry = MetricsRegistry()
        #: Admissions, rejections and teardowns are counted once, on the
        #: registry; the teardown series exists from the first scrape on.
        #: The router holds each counter it reads, by verdict and by
        #: reason, from the first time it counts one.
        self._teardowns = self.registry.counter("cluster.teardowns")
        self._verdicts: Dict[str, Counter] = {}
        self._rejects: Dict[str, Counter] = {}
        self.shard_reachable: Dict[int, bool] = {}
        for index in range(len(self.shards)):
            # Optimistic until proven otherwise, so every shard's
            # reachability series exists from the first scrape on.
            self._note_shard(index, True)

    def _note_shard(self, shard_index: int, reachable: bool) -> None:
        """Record the latest reachability verdict for one shard.

        The gauge is written only when the verdict flips.
        """
        if self.shard_reachable.get(shard_index) == reachable:
            return
        self.shard_reachable[shard_index] = reachable
        self.registry.gauge(
            "cluster.shard_reachable", shard=f"shard-{shard_index}"
        ).set(1.0 if reachable else 0.0)

    async def _round(self, sent) -> List[Tuple[object, Optional[str]]]:
        """Read a written round's replies in shard order: ``[(value, failure)]``.

        ``sent`` holds one ``(shard index, reply, read)`` per exchange,
        its request already written: ``reply`` is the awaitable a shard
        client's per-kind call returned, and ``read`` reads its document.
        One deadline, :data:`EXCHANGE_TIMEOUT` from now, bounds the whole
        round.  A reply not in by then is unknown, and its connection is
        closed; a later shard's reply that came in meanwhile is still
        read.

        ``failure`` is None when the shard answered and the reply read;
        ``shard_draining`` or ``shard_error`` when it answered with a
        refusal, having applied nothing; :data:`UNKNOWN` when no reply
        came, or one ``read`` cannot read -- the shard may have applied
        the call, and every caller's handling of an unknown outcome
        assumes it did.  The one place the router reads a shard's
        answer, and records whether the shard is reachable; the core
        hears every outcome (:meth:`~repro.cluster.protocol.RouterCore.heard`):
        an unknown one bumps the shard's generation.
        """
        outcomes: List[Tuple[object, Optional[str]]] = []
        loop = asyncio.get_running_loop()
        deadline = loop.time() + EXCHANGE_TIMEOUT
        try:
            while len(outcomes) < len(sent):
                try:
                    with _Deadline(deadline):
                        for shard, reply, read in sent[len(outcomes):]:
                            value = failure = None
                            try:
                                value = read(await reply)
                            except ServiceDrainingError:
                                failure = "shard_draining"
                            except ServiceClientError:
                                failure = "shard_error"
                            except _NO_READABLE_REPLY:
                                failure = UNKNOWN
                            outcomes.append(self._outcome(shard, value, failure))
                except asyncio.TimeoutError:
                    shard = sent[len(outcomes)][0]
                    outcomes.append(self._outcome(shard, None, UNKNOWN))
        except BaseException:
            # Cancelled from outside: each reply not read yet is read as a
            # late one, so a socket left unanswered is closed, not leaked.
            for _, reply, _ in sent[len(outcomes) + 1:]:
                with suppress(BaseException), _Deadline(loop.time()):
                    await reply
            raise
        return outcomes

    def _outcome(self, shard: int, value, failure: Optional[str]):
        """One exchange's outcome, heard by the core and the reachability gauge."""
        self.heard(shard, failure)
        self._note_shard(shard, failure != UNKNOWN)
        return value, failure

    def metrics_exposition(self) -> str:
        """The router's ``/metrics`` body (Prometheus text format).

        Point-in-time state -- active sessions, the anti-entropy flush
        debt still owed to once-unreachable shards -- is synced into
        gauges at render time; the admission/reject counters are kept
        live on the decision paths.
        """
        self.registry.gauge("cluster.shard_count").set(len(self.shards))
        self.registry.gauge("cluster.active_sessions").set(len(self.sessions))
        self.registry.gauge("cluster.pending_teardown_sessions").set(
            len(self.pending_teardowns)
        )
        self.registry.gauge("cluster.pending_teardown_shards").set(
            sum(len(debt) for debt in self.pending_teardowns.values())
        )
        return registry_exposition(self.registry)

    # -- cross-shard establishment -----------------------------------------

    async def establish(self, payload: dict) -> Tuple[int, bytes]:
        try:
            result = await self._establish_cross_shard(payload)
        except ReproError as exc:
            status, document = refusal(exc)
            return status, encode_json(document)
        self._count(result.success, result.reason)
        return 200, encode_json(_establishment_to_dict(result))

    async def _establish_cross_shard(self, payload: dict) -> EstablishmentResult:
        arrival = decode_arrival(payload, self._session_ids)
        session_id = arrival.session_id
        if session_id in self.sessions:
            raise ServiceError(
                f"session {session_id!r} already established", status=409
            )
        if session_id in self.pending_teardowns:
            # A shard may still hold the old session under this id; the
            # debt's teardown would free the new one's slice there.
            raise ServiceError(
                f"session {session_id!r} is still being torn down", status=409
            )
        binding = self.grid.binding_for(arrival.service, arrival.domain)
        resource_ids = sorted(binding.resource_ids())
        shard_for = {rid: self.shard_map.shard_of(rid) for rid in resource_ids}
        involved = sorted(set(shard_for.values()))

        with _trace.span("cluster.establish", session=session_id) as span:
            span.set(shards=len(involved))
            snapshot = await self._merged_snapshot(resource_ids, involved)
            plan, result = self.grid.coordinator.plan_session(
                session_id,
                arrival.service,
                binding,
                self.planner,
                snapshot,
                demand_scale=arrival.demand_scale,
                contention_index=self.contention_index,
            )
            if result is not None:
                if any(
                    not self.shard_reachable.get(index, True)
                    for index in involved
                ):
                    # The planner saw zero-filled availability for a dead
                    # shard; that is an infrastructure failure, not a
                    # QoS-aware "no".
                    result = result._replace(reason="shard_unreachable")
                return result
            per_shard: Dict[int, Dict[str, float]] = {}
            for rid in sorted(plan.demand):
                per_shard.setdefault(shard_for[rid], {})[rid] = plan.demand[rid]
            result = await self._two_phase_commit(arrival, plan, per_shard)
            span.set(outcome=result.reason or "established")
            return result

    async def _merged_snapshot(
        self, resource_ids: List[str], involved: List[int]
    ) -> AvailabilitySnapshot:
        """Phase 1 over the wire: availability from every involved shard.

        Each shard is asked only for the resources it owns among
        ``resource_ids``, so it files the reports one daemon would file
        for the session and its alpha reads the same history.
        Resources a shard should have covered are zero-filled when its
        reply is unknown (no reply, one of the wrong shape, or one that
        omits a resource asked for) -- the same degrade-not-crash stance
        the coordinator takes on a timed-out proxy under faults.
        """
        asked: Dict[int, List[str]] = {}
        for rid in sorted(resource_ids):
            asked.setdefault(self.shard_map.shard_of(rid), []).append(rid)
        with _trace.span("cluster.snapshot", shards=len(involved)):
            replies = await self._round(
                [
                    (
                        index,
                        self.shards[index].availability(asked[index]),
                        partial(_read_availability, asked[index]),
                    )
                    for index in involved
                ]
            )
        observations: Dict[str, ResourceObservation] = {}
        for read_observations, _ in replies:
            observations.update(read_observations or {})
        for rid in resource_ids:
            observations.setdefault(rid, _UNSEEN)
        return AvailabilitySnapshot(observations)

    async def _two_phase_commit(self, arrival, plan, per_shard) -> EstablishmentResult:
        """Admit ``arrival`` (a :class:`~repro.sim.workload.SessionArrival`)
        with ``plan``'s level, ``per_shard`` holding its demands by shard
        index: the core's :class:`~repro.cluster.protocol.Admission`."""
        session_id = arrival.session_id
        level = plan.numeric_level
        record = {"service": arrival.service, "domain": arrival.domain, "level": level}
        meta = dict(record, demand_scale=arrival.demand_scale, duration=arrival.duration)
        admission = Admission(self, session_id, sorted(per_shard), record)
        await self._drive(admission, per_shard, meta)
        if admission.reason is None:
            return EstablishmentResult(session_id, True, plan)
        refused = admission.reason, admission.failed_resource
        return EstablishmentResult(session_id, False, None, *refused)

    async def _drive(self, operation, demands=None, meta=None):
        """Run a :mod:`~repro.cluster.protocol` operation to its end; return it.

        Each ready round is written at once and read by one deadline
        (:meth:`_round`), and every outcome is delivered back.
        """
        while ready := operation.ready():
            outcomes = await self._round(
                [self._send(exchange, demands, meta) for exchange in ready]
            )
            for exchange, outcome in zip(ready, outcomes):
                operation.deliver(exchange, outcome)
        return operation

    def _send(self, exchange: Exchange, demands, meta):
        """Write one exchange, its payload built: ``(shard, reply, read)``.

        ``demands`` are an admission's by shard, and ``meta`` the session
        record its commits carry.
        """
        kind, shard = exchange.kind, exchange.shard
        if kind in ("commit", "abort"):
            payload = {"lease_id": exchange.lease}
        else:
            payload = {"session_id": exchange.session, "generation": exchange.generation}
        if kind == "reserve":
            payload["demands"] = demands[shard]
        if kind == "commit" or exchange.folded:
            # The session record rides on a commit as ``session``, and on
            # the folded reserve, which carries the commit, as ``commit``.
            payload["session" if kind == "commit" else "commit"] = meta
        read = _read_folded if exchange.folded else _READERS.get(kind, _read_object)
        return shard, getattr(self.shards[shard], kind)(payload), read

    def _count(self, success: bool, reason: Optional[str]) -> None:
        """The one admission verdict counter."""
        if success:
            verdict = "established"
        else:
            reason = reason or "rejected"
            verdict = (
                "rejected_infra" if reason in INFRA_REJECT_REASONS
                else "rejected_merit"
            )
            rejects = self._rejects.get(reason)
            if rejects is None:
                rejects = self._rejects[reason] = self.registry.counter(
                    "cluster.rejects", reason=reason
                )
                # reject_reasons lists them in the registry's export order.
                self._rejects = dict(sorted(self._rejects.items(), key=_export_order))
            rejects.inc()
        admissions = self._verdicts.get(verdict)
        if admissions is None:
            admissions = self._verdicts[verdict] = self.registry.counter(
                "cluster.admissions", verdict=verdict
            )
        admissions.inc()

    @property
    def counters(self) -> Dict[str, int]:
        """Admissions, rejections and teardowns so far (read-only)."""
        established = self._verdicts.get("established")
        return {
            "established": 0 if established is None else int(established.value),
            "rejected": int(sum(c.value for c in self._rejects.values())),
            "torn_down": int(self._teardowns.value),
        }

    @property
    def reject_reasons(self) -> Dict[str, int]:
        """Rejections so far by reason, read off ``cluster.rejects``."""
        return {reason: int(c.value) for reason, c in self._rejects.items()}

    # -- teardown / query --------------------------------------------------

    async def teardown(self, payload: dict) -> Tuple[int, bytes]:
        session_id = str(payload.get("session_id") or "")
        if not session_id:
            return 400, encode_json({"error": "missing required field 'session_id'"})
        teardown = await self._drive(Teardown(self, session_id))
        if not teardown.known and teardown.released == 0:
            return 404, encode_json({"error": f"unknown session {session_id!r}"})
        self._teardowns.inc()
        return 200, encode_json({"session_id": session_id, "released": teardown.released})

    async def flush_pending_teardowns(self) -> int:
        """Retry teardowns that earlier failed against unreachable shards.

        A healed partition leaves the shard still holding capacity for
        sessions the router already tore down everywhere else, and a
        lost commit reply can leave it holding a session the router
        never admitted; this anti-entropy pass releases them.  A shard
        that holds nothing (it crashed and restarted, or the lost
        commit never applied) answers 404, which settles the debt too.
        Returns the amount released; shards still unreachable keep
        their entry for the next pass.
        """
        return (await self._drive(Flush(self))).released

    async def query(
        self, session_id: Optional[str] = None, view: Optional[str] = None
    ) -> Tuple[int, bytes]:
        """The cluster document, or one session's record with ``session_id``.

        A session's record comes from the router's own session table.  A
        router has no view: ``view`` is a 400.
        """
        if view is not None:
            return 400, encode_json({"error": "a cluster router has no 'view'"})
        if session_id is not None:
            record = self.sessions.get(session_id)
            if record is None:
                return 404, encode_json({"error": f"unknown session {session_id!r}"})
            return 200, encode_json(dict(record, session_id=session_id))
        per_shard: List[dict] = []
        for shard, (document, failure) in zip(self.shards, await self._query_all()):
            entry: dict = {"label": shard.label, "reachable": failure is None}
            if failure is None:
                entry["active_sessions"] = document.get("active_sessions")
                entry["shard"] = document.get("shard")
            per_shard.append(entry)
        return 200, encode_json(
            {
                "shards": len(self.shards),
                "seed": self.seed,
                "algorithm": self.algorithm,
                "active_sessions": len(self.sessions),
                "counters": self.counters,
                "reject_reasons": self.reject_reasons,
                "per_shard": per_shard,
            }
        )

    async def _query_all(self) -> List[Tuple[Optional[dict], Optional[str]]]:
        """Every shard's ``/v1/query`` exchange, in one round."""
        return await self._round(
            [(shard.index, shard.query(), _read_object) for shard in self.shards]
        )

    async def check(self) -> Tuple[List[str], List[str]]:
        """Boot-time sanity: ``(unreachable, misconfigured)`` problem lines.

        Every reachable shard must replicate the router's grid (the same
        seed) and serve the slice its place in the router's list names:
        its ``shard`` section says ``index`` that place and ``count`` the
        router's shard count.  A shard that does not answer may not be
        up yet.
        """
        unreachable: List[str] = []
        misconfigured: List[str] = []
        count = len(self.shards)
        for shard, (document, failure) in zip(self.shards, await self._query_all()):
            if failure is not None:
                unreachable.append(f"{shard.label}: {failure}")
                continue
            if document.get("seed") != self.seed:
                misconfigured.append(
                    f"{shard.label}: seed {document.get('seed')} != {self.seed} "
                    "(shards must replicate the router's grid)"
                )
            section = document.get("shard") or {}
            index = section.get("index")
            if (index, section.get("count")) != (shard.index, count):
                misconfigured.append(
                    f"{shard.label}: serves shard {index} of {section.get('count')}, "
                    f"listed as shard {shard.index} of {count}"
                )
        return unreachable, misconfigured

    async def aclose(self) -> None:
        for shard in self.shards:
            await shard.aclose()


@dataclass(frozen=True)
class ClusterConfig:
    """One router instance: where to listen and which shards to front."""

    shards: Tuple[Tuple[str, int], ...]
    host: str = "127.0.0.1"
    port: int = 8790
    seed: int = 0
    algorithm: str = "basic"
    capacity_range: Tuple[float, float] = (1000.0, 4000.0)
    contention_index: str = "ratio"
    tie_break: bool = True

    def __post_init__(self) -> None:
        if not self.shards:
            raise ModelError("a cluster needs at least one shard address")
        check_planner_fields(self.algorithm, self.contention_index)
        check_numbers(self)


class ClusterDaemon(ServingShell):
    """Serves a :class:`ClusterCoordinator` over the daemon wire protocol.

    Establishments and teardowns run serialized under the shell's lock
    (like the shard daemons' own admissions), so router decisions for a
    given request order are deterministic.  Sharing the shell with
    :class:`ReservationDaemon` is what lets the load generator point at
    a cluster unchanged.
    """

    request_id_prefix = "cluster-req"

    def __init__(
        self,
        config: ClusterConfig,
        *,
        coordinator: Optional[ClusterCoordinator] = None,
    ) -> None:
        super().__init__(config.host, config.port, drain_timeout=DRAIN_TIMEOUT)
        self.config = config
        self.coordinator = coordinator or ClusterCoordinator(
            [
                HttpShardClient(index, host, port)
                for index, (host, port) in enumerate(config.shards)
            ],
            seed=config.seed,
            algorithm=config.algorithm,
            capacity_range=config.capacity_range,
            contention_index=config.contention_index,
            tie_break=config.tie_break,
        )

    async def start(self) -> None:
        await super().start()
        self._background = asyncio.create_task(self._flush_loop())

    async def _flush_loop(self) -> None:
        """Anti-entropy: settle teardowns owed to once-unreachable shards."""
        while True:
            await asyncio.sleep(1.0)
            if self.coordinator.pending_teardowns:
                async with self._lock:
                    await self.coordinator.flush_pending_teardowns()

    async def shutdown(self, *, drain: Optional[bool] = True) -> None:
        """Drain and stop listening, then close the shard clients."""
        await super().shutdown(drain=drain)
        await self.coordinator.aclose()

    # -- routes ------------------------------------------------------------

    def _health_fields(self) -> dict:
        return {"role": "cluster-router", "shards": len(self.coordinator.shards)}

    def _metrics_text(self) -> str:
        return self.coordinator.metrics_exposition()

    async def _dispatch(self, request: _http.Request, close: bool) -> bytes:
        status, body = await self._route(request)
        return _http.response_bytes(status, body, close=close)

    async def _route(self, request: _http.Request) -> Tuple[int, bytes]:
        coordinator = self.coordinator
        if (request.method, request.path) == ("GET", "/v1/query"):
            query = request.query
            return await coordinator.query(query.get("session_id"), query.get("view"))
        if request.method != "POST":
            return 405, encode_json(
                {"error": f"no route for {request.method} {request.path}"}
            )
        if request.path == "/v1/establish":
            operation = coordinator.establish
        elif request.path == "/v1/teardown":
            operation = coordinator.teardown
        elif request.path not in ("/v1/establish_batch", "/v1/renegotiate"):
            return 404, encode_json({"error": f"unknown path {request.path!r}"})
        else:
            return 501, encode_json(
                {"error": f"{request.path} is not supported by the cluster router"}
            )
        if self._draining and request.path != "/v1/teardown":
            # Drain refuses new work, never the freeing of old work.
            return 503, encode_json(DRAIN_REFUSAL)
        payload = request.json()
        self._enter_admission()
        try:
            await self._lock.acquire()
            try:
                return await operation(payload)
            finally:
                self._lock.release()
        finally:
            self._exit_admission()
