"""The cluster router: cross-shard admission over two-phase reserve/commit.

:class:`ClusterCoordinator` fronts N shard daemons, each serving the
slice of the grid its :class:`~repro.cluster.shardmap.ShardMap` index
assigns (every shard builds the identical same-seed grid, so capacities
agree without a directory service).  An establishment becomes:

1. **merged snapshot** -- ``GET /v1/availability?resources=...`` from
   every involved shard in parallel, naming only the session's
   resources that shard owns (the paper's phase 1 reports exactly the
   resources a session needs); resources an unreachable shard should
   have reported are zero-filled, so planning degrades instead of
   crashing.
2. **local plan** -- the paper's phase 2 runs once, in the router,
   against the merged snapshot
   (:meth:`~repro.runtime.coordinator.ReservationCoordinator.plan_session`).
3. **two-phase commit** -- the plan's demand is split by owning shard;
   each shard holds its slice on a TTL lease (``/v1/reserve``), and
   only when every slice is held does the router ``/v1/commit`` them.
   Any failure aborts the held leases; a shard that dies mid-round
   leaves only TTL leases behind, which its reaper releases -- no lost
   and no double-granted capacity, the PR 4 lease contract stretched
   across processes.

With a single shard the router forwards requests verbatim, so its
responses are byte-identical to the daemon's (and therefore to the
in-process coordinator) -- the property the acceptance test pins.

:class:`ClusterDaemon` serves the router inside the same
:class:`~repro.service.server.ServingShell` as a single daemon, so the
load generator and :class:`ServiceClient` work unchanged against a
cluster.  :class:`LocalShardClient` swaps the HTTP hop for a direct call
into the shard's route table (with per-shard event logs and the drain
flag) -- the transport the property tests race.

The router reads every shard answer in one place,
:meth:`ClusterCoordinator._exchange`: a reply is either read (through a
small per-route reader), a refusal that applied nothing
(``shard_draining``, ``shard_error``), or unknown (``shard_unreachable``:
no reply, or one of the wrong shape -- the shard may have applied the
call).  Each caller's handling of an unknown outcome is what keeps the
cluster leak-free: an unknown reserve is left to the shard's TTL
reaper, an unknown commit or teardown becomes a teardown debt, and an
unknown availability reply zero-fills that shard's resources.  A shard
that does not answer within :data:`EXCHANGE_TIMEOUT` is unknown too.
"""

from __future__ import annotations

import asyncio
import itertools
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import CONTENTION_INDICES, make_planner
from repro.core.errors import ModelError, ReproError
from repro.core.resources import AvailabilitySnapshot, ResourceObservation
from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.obs import events as _events
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import registry_exposition
from repro.runtime.coordinator import EstablishmentResult
from repro.service import http as _http
from repro.service.http import decode_json, encode_json
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
    check_grid_fields,
    decode_arrival,
    refusal,
)
from repro.service.server import DRAIN_REFUSAL, ServingShell
from repro.sim.environment import GridEnvironment
from repro.sim.workload import SessionArrival

from repro.cluster.shardmap import ShardMap

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterDaemon",
    "HttpShardClient",
    "LocalShardClient",
]


#: Seconds the router waits for a shard's reply to one exchange.
EXCHANGE_TIMEOUT = 10.0

#: ``asyncio.timeout`` (3.11+) bounds an await inside the awaiting task.
#: ``wait_for``, the one form 3.10 has, runs the call in a task of its
#: own, which costs each exchange extra event-loop iterations: about
#: twice the overhead on ``cluster3_serial``'s CPU per decision.
_timeout = getattr(asyncio, "timeout", None)


class _ShardClient:
    """The calls the router makes on one shard, over :meth:`forward_raw`."""

    index: int
    label: str

    async def forward_raw(
        self, method: str, target: str, payload: Optional[dict]
    ) -> ServiceResponse:
        """One verbatim exchange (the single-shard byte-identity path)."""
        raise NotImplementedError

    async def _call(self, method: str, target: str, payload: Optional[dict] = None):
        return (await self.forward_raw(method, target, payload)).checked()

    async def availability(self, resource_ids: Sequence[str] = ()) -> dict:
        """The shard's observations: of ``resource_ids``, or its whole slice."""
        query = f"?resources={','.join(resource_ids)}" if resource_ids else ""
        return await self._call("GET", "/v1/availability" + query)

    async def reserve(self, payload: dict) -> dict:
        return await self._call("POST", "/v1/reserve", payload)

    async def commit(self, payload: dict) -> dict:
        return await self._call("POST", "/v1/commit", payload)

    async def abort(self, payload: dict) -> dict:
        return await self._call("POST", "/v1/abort", payload)

    async def teardown(self, payload: dict) -> dict:
        return await self._call("POST", "/v1/teardown", payload)

    async def query(self) -> dict:
        return await self._call("GET", "/v1/query")

    async def aclose(self) -> None:
        """Release pooled connections (none by default)."""


class HttpShardClient(_ShardClient):
    """One shard daemon reached over HTTP (keep-alive pooled).

    An exchange that gets no reply within :data:`EXCHANGE_TIMEOUT` raises
    ``asyncio.TimeoutError`` (one of :data:`UNREACHABLE`): a shard that
    reads a request and never answers is an unknown outcome, not a
    router holding its admission lock forever.  The bound lives here,
    not in :class:`ServiceClient`: only the router has an unknown
    outcome to settle, and every other client would pay for it.
    """

    def __init__(self, index: int, host: str, port: int) -> None:
        self.index = index
        self.label = f"{host}:{port}"
        self._client = ServiceClient(host, port)

    async def forward_raw(
        self, method: str, target: str, payload: Optional[dict]
    ) -> ServiceResponse:
        call = self._client.request(method, target, payload)
        if _timeout is None:  # Python 3.10
            return await asyncio.wait_for(call, EXCHANGE_TIMEOUT)
        async with _timeout(EXCHANGE_TIMEOUT):
            return await call

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

    async def forward_raw(
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

#: The failure of an exchange whose outcome the router cannot know.
UNKNOWN = "shard_unreachable"

#: What an exchange raises when no reply came (:data:`UNREACHABLE`), or
#: what a reader raises on a reply of the wrong shape.
_NO_READABLE_REPLY = UNREACHABLE + (
    AttributeError, LookupError, TypeError, ValueError, ModelError
)

#: A resource no readable reply covered: planning sees it exhausted.
_UNSEEN = ResourceObservation(available=0.0)


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


def _read_released(document) -> int:
    """``/v1/teardown``: the amount the shard released."""
    return int(_read_object(document).get("released", 0))


class ClusterCoordinator:
    """Routes admissions across shard clients (HTTP or in-process).

    Holds its own same-seed planning replica of the grid -- used only
    for placement (:meth:`~repro.sim.environment.GridEnvironment
    .binding_for`) and phase-2 planning; it never reserves locally.
    All methods return ``(status, body_bytes)`` so the serving layer
    can pass shard responses through untouched in single-shard mode.
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
        check_grid_fields(algorithm, contention_index)
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
        #: session_id -> {"shards": [...], ...} for teardown routing.
        self.sessions: Dict[str, dict] = {}
        self.counters = {"established": 0, "rejected": 0, "torn_down": 0}
        self.reject_reasons: Dict[str, int] = {}
        #: session_id -> shard indexes that may still hold the session:
        #: its teardown or commit there had an unknown outcome (no
        #: reply, or an unreadable one).  Retried by flush_pending_teardowns.
        self.pending_teardowns: Dict[str, List[int]] = {}
        self._session_ids = itertools.count(1)
        #: The router's own scrape surface (NOT globally installed --
        #: the router may share a process with shard services in tests).
        self.registry = MetricsRegistry()
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

    async def _exchange(self, shard_index: int, call, read):
        """Await one shard ``call`` and ``read`` its reply: ``(value, failure)``.

        ``failure`` is None when the shard answered and the reply read;
        ``shard_draining`` or ``shard_error`` when it answered with a
        refusal, having applied nothing; :data:`UNKNOWN` when no reply
        came, or one ``read`` cannot read -- the shard may have applied
        the call, and every caller's handling of an unknown outcome
        assumes it did.  The one place the router reads a shard's
        answer, and records whether the shard is reachable.
        """
        value = failure = None
        try:
            value = read(await call)
        except ServiceDrainingError:
            failure = "shard_draining"
        except ServiceClientError:
            failure = "shard_error"
        except _NO_READABLE_REPLY:
            failure = UNKNOWN
        self._note_shard(shard_index, failure != UNKNOWN)
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

    # -- single-shard pass-through -----------------------------------------

    async def forward(
        self, method: str, target: str, payload: Optional[dict]
    ) -> Tuple[int, bytes]:
        """Verbatim proxying to the only shard (byte-identity path)."""
        try:
            response = await self.shards[0].forward_raw(method, target, payload)
        except UNREACHABLE:
            return 503, encode_json({"error": "shard unreachable"})
        return response.status, response.body

    # -- cross-shard establishment -----------------------------------------

    async def establish(self, payload: dict) -> Tuple[int, bytes]:
        if len(self.shards) == 1:
            status, body = await self.forward("POST", "/v1/establish", payload)
            # The shard's bytes are proxied verbatim; the verdict is read
            # off them.  Request errors (4xx) are not admission decisions.
            if status == 503:
                self._note_shard(0, False)
                self._count(False, "shard_unreachable")
            elif status == 200:
                self._note_shard(0, True)
                try:
                    document = _read_object(decode_json(body))
                except (_http.ProtocolError, TypeError):
                    return status, body
                self._count(document.get("success"), document.get("reason"))
            return status, body
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
            demand = plan.demand
            per_shard: Dict[int, Dict[str, float]] = {}
            for rid in sorted(demand):
                per_shard.setdefault(shard_for[rid], {})[rid] = demand[rid]
            result = await self._two_phase_commit(arrival, plan, per_shard)
            span.set(outcome=result.reason or "established")
            return result

    async def _merged_snapshot(
        self, resource_ids: List[str], involved: List[int]
    ) -> AvailabilitySnapshot:
        """Phase 1 over the wire: gather availability from every shard.

        Each shard is asked only for the resources it owns among
        ``resource_ids``, so it files the reports one daemon would file
        for the session and its alpha reads the same history.
        Resources a shard should have covered are zero-filled when its
        reply is unknown (no reply, one of the wrong shape, or one that
        omits a resource asked for) -- the same degrade-not-crash stance
        the fault-tolerant coordinator takes on a timed-out proxy.
        """
        asked: Dict[int, List[str]] = {}
        for rid in sorted(resource_ids):
            asked.setdefault(self.shard_map.shard_of(rid), []).append(rid)
        with _trace.span("cluster.snapshot", shards=len(involved)):
            replies = await asyncio.gather(
                *(
                    self._exchange(
                        index,
                        self.shards[index].availability(asked[index]),
                        partial(_read_availability, asked[index]),
                    )
                    for index in involved
                )
            )
        observations: Dict[str, ResourceObservation] = {}
        for read_observations, _ in replies:
            observations.update(read_observations or {})
        for rid in resource_ids:
            observations.setdefault(rid, _UNSEEN)
        return AvailabilitySnapshot(observations)

    async def _two_phase_commit(
        self,
        arrival: SessionArrival,
        plan,
        per_shard: Dict[int, Dict[str, float]],
    ) -> EstablishmentResult:
        session_id = arrival.session_id
        leases: List[Tuple[int, str]] = []
        reason: Optional[str] = None
        failed_resource: Optional[str] = None
        with _trace.span("cluster.reserve", shards=len(per_shard)):
            for shard_index in sorted(per_shard):
                # An unknown reserve may hold a lease no abort can name:
                # the shard's TTL reaper frees it.
                request = {"session_id": session_id, "demands": per_shard[shard_index]}
                reserve = self.shards[shard_index].reserve(request)
                held, reason = await self._exchange(shard_index, reserve, _read_reserve)
                if reason is not None:
                    break
                lease_id, failed_resource = held
                if lease_id is None:
                    reason = "admission_failed"
                    break
                leases.append((shard_index, lease_id))
        if reason is not None:
            await self._abort_leases(leases)
            return EstablishmentResult(
                session_id, False, None, reason, failed_resource
            )

        meta = {
            "service": arrival.service,
            "domain": arrival.domain,
            "demand_scale": arrival.demand_scale,
            "duration": arrival.duration,
            "level": plan.numeric_level,
        }
        committed: List[int] = []
        with _trace.span("cluster.commit", shards=len(leases)):
            for position, (shard_index, lease_id) in enumerate(leases):
                commit = self.shards[shard_index].commit(
                    {"lease_id": lease_id, "session": meta}
                )
                _, failure = await self._exchange(shard_index, commit, _read_object)
                if failure is not None:
                    # Undo the rest: abort the still-held leases, tear the
                    # committed slices back down.  A shard that answered
                    # with an error (an expired lease) committed nothing;
                    # its lease is aborted with the later ones.  One whose
                    # outcome is unknown may have committed, which no
                    # abort undoes, and may be silent: asking it again
                    # would hold the admission lock for a second
                    # EXCHANGE_TIMEOUT.  It owes a teardown, as does a
                    # committed shard we cannot reach now:
                    # flush_pending_teardowns settles the debt (a 404
                    # means the shard holds nothing), and a lease it never
                    # committed is its TTL reaper's, as after an unknown
                    # reserve.
                    unanswered = failure == UNKNOWN
                    await self._abort_leases(
                        leases[position + 1 if unanswered else position:]
                    )
                    _, owed = await self._teardown_on(committed, session_id)
                    if unanswered:
                        owed.append(shard_index)
                    if owed:
                        self._owe_teardown(session_id, owed)
                    return EstablishmentResult(
                        session_id, False, None, "shard_unreachable"
                    )
                committed.append(shard_index)
        self.sessions[session_id] = {
            "service": arrival.service,
            "domain": arrival.domain,
            "level": plan.numeric_level,
            "shards": sorted(per_shard),
        }
        return EstablishmentResult(session_id, True, plan)

    def _count(self, success: bool, reason: Optional[str]) -> None:
        """The one admission verdict counter (pass-through and 2PC alike)."""
        if success:
            self.counters["established"] += 1
            self.registry.counter("cluster.admissions", verdict="established").inc()
            return
        reason = reason or "rejected"
        self.counters["rejected"] += 1
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1
        verdict = (
            "rejected_infra" if reason in INFRA_REJECT_REASONS
            else "rejected_merit"
        )
        self.registry.counter("cluster.admissions", verdict=verdict).inc()
        self.registry.counter("cluster.rejects", reason=reason).inc()

    async def _abort_leases(self, leases: List[Tuple[int, str]]) -> None:
        """Best-effort rollback; unreachable shards are left to their TTL."""
        for shard_index, lease_id in leases:
            abort = self.shards[shard_index].abort({"lease_id": lease_id})
            await self._exchange(shard_index, abort, _read_object)

    async def _teardown_on(
        self, shard_indexes: Sequence[int], session_id: str
    ) -> Tuple[int, List[int]]:
        """Tear a session down shard by shard: (released, unknown shards).

        A shard that answers with an error holds nothing to release (a
        404: it never held the session, or forgot it in a restart).
        """
        released = 0
        unknown: List[int] = []
        for shard_index in shard_indexes:
            teardown = self.shards[shard_index].teardown({"session_id": session_id})
            freed, failure = await self._exchange(shard_index, teardown, _read_released)
            released += freed or 0
            if failure == UNKNOWN:
                unknown.append(shard_index)
        return released, unknown

    # -- teardown / query --------------------------------------------------

    async def teardown(self, payload: dict) -> Tuple[int, bytes]:
        if len(self.shards) == 1:
            return await self.forward("POST", "/v1/teardown", payload)
        session_id = str(payload.get("session_id") or "")
        if not session_id:
            return 400, encode_json({"error": "missing required field 'session_id'"})
        record = self.sessions.pop(session_id, None)
        targets = (
            record["shards"] if record is not None else range(len(self.shards))
        )
        released, unreachable = await self._teardown_on(targets, session_id)
        if record is not None and unreachable:
            # The session is gone from the router's view, but a shard
            # we could not reach may still hold its capacity (e.g. a
            # partition, not a crash-restart).  Remember the debt and
            # settle it when the shard is reachable again.
            self._owe_teardown(session_id, unreachable)
        if record is None and released == 0:
            return 404, encode_json({"error": f"unknown session {session_id!r}"})
        self.counters["torn_down"] += 1
        return 200, encode_json({"session_id": session_id, "released": released})

    def _owe_teardown(self, session_id: str, shard_indexes: Sequence[int]) -> None:
        """Record that ``shard_indexes`` may still hold ``session_id``."""
        pending = set(self.pending_teardowns.get(session_id, []))
        self.pending_teardowns[session_id] = sorted(pending | set(shard_indexes))

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
        released = 0
        for session_id in sorted(self.pending_teardowns):
            freed, remaining = await self._teardown_on(
                self.pending_teardowns[session_id], session_id
            )
            released += freed
            if remaining:
                self.pending_teardowns[session_id] = remaining
            else:
                del self.pending_teardowns[session_id]
        return released

    async def query(
        self, target: str = "/v1/query", session_id: Optional[str] = None
    ) -> Tuple[int, bytes]:
        """The cluster document, or one session's record with ``session_id``.

        A single shard is asked ``target`` verbatim, so its
        ``?session_id=`` answers stay byte-identical to the daemon's; a
        multi-shard router answers from its own session table.
        """
        if len(self.shards) == 1:
            return await self.forward("GET", target, None)
        if session_id is not None:
            record = self.sessions.get(session_id)
            if record is None:
                return 404, encode_json({"error": f"unknown session {session_id!r}"})
            return 200, encode_json(dict(record, session_id=session_id))
        per_shard: List[dict] = []
        for shard in self.shards:
            document, failure = await self._exchange(
                shard.index, shard.query(), _read_object
            )
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
                "counters": dict(self.counters),
                "reject_reasons": dict(self.reject_reasons),
                "per_shard": per_shard,
            }
        )

    async def check(self) -> List[str]:
        """Boot-time sanity: every reachable shard must share our config."""
        problems: List[str] = []
        for shard in self.shards:
            document, failure = await self._exchange(
                shard.index, shard.query(), _read_object
            )
            if failure is not None:
                problems.append(f"{shard.label}: {failure}")
                continue
            if document.get("seed") != self.seed:
                problems.append(
                    f"{shard.label}: seed {document.get('seed')} != {self.seed} "
                    "(shards must replicate the router's grid)"
                )
        return problems

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
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if not self.shards:
            raise ModelError("a cluster needs at least one shard address")
        check_grid_fields(self.algorithm, self.contention_index, self.drain_timeout)


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
        super().__init__(
            config.host, config.port, drain_timeout=config.drain_timeout
        )
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
        if len(self.coordinator.shards) > 1:
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

    async def _dispatch(
        self, request: _http.Request, parse_seconds: float, close: bool
    ) -> bytes:
        status, body = await self._route(request)
        return _http.response_bytes(status, body, close=close)

    async def _route(self, request: _http.Request) -> Tuple[int, bytes]:
        coordinator = self.coordinator
        if (request.method, request.path) == ("GET", "/v1/query"):
            return await coordinator.query(
                request.target, request.query.get("session_id")
            )
        if request.method != "POST":
            return 405, encode_json(
                {"error": f"no route for {request.method} {request.path}"}
            )
        if self._draining:
            return 503, encode_json(DRAIN_REFUSAL)
        payload = request.json()
        if request.path == "/v1/establish":
            operation = coordinator.establish
        elif request.path == "/v1/teardown":
            operation = coordinator.teardown
        elif request.path not in ("/v1/establish_batch", "/v1/renegotiate"):
            return 404, encode_json({"error": f"unknown path {request.path!r}"})
        elif len(coordinator.shards) == 1:
            operation = partial(coordinator.forward, "POST", request.path)
        else:
            return 501, encode_json(
                {
                    "error": f"{request.path} is not supported by the "
                    "multi-shard router"
                }
            )
        self._enter_admission()
        try:
            async with self._lock:
                return await operation(payload)
        finally:
            self._exit_admission()
