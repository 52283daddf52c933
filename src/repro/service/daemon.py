"""The long-lived reservation service daemon (the admission API).

Everything before this module is run-to-completion: build a grid, drive
a workload, exit.  :class:`ReservationService` keeps one
:class:`~repro.sim.environment.GridEnvironment` (and its
:class:`~repro.runtime.coordinator.ReservationCoordinator`) alive
behind an admission API and owns the one transport-free route table
(:meth:`ReservationService.route`), and
:class:`ReservationDaemon` serves that table over HTTP inside the shared
:class:`~repro.service.server.ServingShell`:

===========================  ==================================================
``POST /v1/establish``       one three-phase establishment
``POST /v1/establish_batch`` N arrivals against one availability snapshot
``POST /v1/renegotiate``     §5 re-planning of a live session
``POST /v1/teardown``        release everything a session holds
``POST /v1/reserve``         cross-shard 2PC: hold demands on a TTL lease, or
                             hold and commit them in one call (``commit``)
``POST /v1/commit``          cross-shard 2PC: make a lease permanent
``POST /v1/abort``           cross-shard 2PC: release a lease
``GET  /v1/query``           daemon + session + utilization state, or with
                             ``?view=shard`` only what a cluster router reads
``GET  /v1/availability``    observed availability of the owned slice, or of
                             the ``?resources=`` it names
``GET  /metrics``            Prometheus text exposition of the live registry
``GET  /healthz``            liveness probe (uptime, in-flight, drain state)
``POST /v1/debug/dump``      flight-recorder snapshot on demand
===========================  ==================================================

Admissions execute *serialized* on the event loop under the shell's
lock, so daemon decisions for a given request order are byte-identical
to calling ``coordinator.establish`` in-process in that order -- the
property the acceptance test pins.

Trace ids never appear in response bodies, so decisions stay
byte-identical to in-process calls.  Per-phase admission latency (parse
/ queue_wait / plan / commit / serialize) lands in
``daemon.admission_phase_seconds`` histograms with trace-id exemplars,
and an always-on :class:`~repro.obs.flight.FlightRecorder` keeps the
most recent spans + events + wire counters for postmortem dumps
(SIGQUIT, unhandled exception, or the debug endpoint).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os as _os
import sys as _sys
import time as _time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cluster.protocol import ShardCore
from repro.cluster.shardmap import ShardMap
from repro.core import CONTENTION_INDICES, check_numbers, check_planner_fields, make_planner
from repro.core.errors import AdmissionError, ModelError, ReproError
from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.obs import context as _context
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import registry_exposition
from repro.runtime.coordinator import (
    PHASE2_SPAN,
    PHASE3_SPAN,
    EstablishmentResult,
    RenegotiationResult,
)
from repro.runtime.leases import LeaseTable
from repro.service import http as _http
from repro.service.server import DRAIN_REFUSAL, ServingShell
from repro.sim.environment import GridEnvironment
from repro.sim.workload import SessionArrival

__all__ = ["DaemonConfig", "ReservationDaemon", "ReservationService", "ServiceError"]


class ServiceError(ReproError):
    """A request the service refuses (bad input, unknown session, ...)."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def refusal(exc: ReproError) -> Tuple[int, dict]:
    """The ``(status, document)`` a refused request is answered with."""
    status = exc.status if isinstance(exc, ServiceError) else 400
    return status, {"error": str(exc)}


def answer(operation, *args) -> Tuple[int, object]:
    """``(200, operation(*args))``, or the refusal the operation raised."""
    try:
        return 200, operation(*args)
    except ReproError as exc:
        return refusal(exc)


def _generation(payload: dict) -> Optional[int]:
    """A payload's router ``generation`` (None without one); 400 unless an int."""
    generation = payload.get("generation")
    if isinstance(generation, bool) or not isinstance(generation, (int, type(None))):
        raise ServiceError("'generation' must be an integer")
    return generation


def decode_arrival(payload: object, session_ids) -> SessionArrival:
    """Decode one establish payload into a workload-style arrival.

    The one arrival decoder of the daemon and the cluster router.
    ``session_ids`` is the caller's counter the id of an arrival that
    names none is drawn from.  Anything malformed -- a non-object, a
    missing field, a non-numeric or non-finite number -- is a 400
    :class:`ServiceError`, never an unhandled exception.
    """
    if not isinstance(payload, dict):
        raise ServiceError("an arrival must be a JSON object")
    try:
        service = str(payload["service"])
        domain = str(payload["domain"])
    except KeyError as exc:
        raise ServiceError(f"missing required field {exc.args[0]!r}") from exc
    session_id = str(payload.get("session_id") or f"svc-{next(session_ids)}")
    numbers = {"demand_scale": 1.0, "duration": 1.0, "arrival_time": 0.0}
    for name, default in numbers.items():
        try:
            numbers[name] = float(payload.get(name, default))
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"non-numeric field: {exc}") from exc
        if not math.isfinite(numbers[name]):
            raise ServiceError(f"{name} must be finite, got {numbers[name]!r}")
    if numbers["demand_scale"] <= 0:
        raise ServiceError(
            f"demand_scale must be positive, got {numbers['demand_scale']!r}"
        )
    return SessionArrival(
        session_id=session_id, domain=domain, service=service, **numbers
    )


@dataclass(frozen=True)
class DaemonConfig:
    """Everything that defines one daemon instance.

    The grid-shaped fields (``seed``, ``capacity_range``, ``algorithm``,
    ``contention_index``, ``tie_break``) mean exactly what they mean on
    :class:`~repro.sim.SimulationConfig`, so a daemon and an in-process
    run built from the same values admit identically.
    """

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (see ``ReservationDaemon.port``).
    port: int = 8787
    seed: int = 0
    algorithm: str = "basic"
    capacity_range: Tuple[float, float] = (1000.0, 4000.0)
    contention_index: str = "ratio"
    tie_break: bool = True
    #: Seconds shutdown waits for in-flight admissions before forcing.
    drain_timeout: float = 10.0
    #: Emit one JSON access-log line per request to stderr.
    access_log: bool = False
    #: Directory flight-recorder dumps are written to (None = no files;
    #: ``POST /v1/debug/dump`` still returns the snapshot in-band).
    flight_dir: Optional[str] = None
    #: Cluster sharding: this daemon owns the resources the
    #: :class:`~repro.cluster.shardmap.ShardMap` assigns to
    #: ``shard_index`` out of ``shard_count`` shards.  The default, shard
    #: 0 of 1, owns every resource of its grid.
    shard_index: int = 0
    shard_count: int = 1
    #: Wall-clock TTL (seconds) of a two-phase ``/v1/reserve`` lease;
    #: leases neither committed nor aborted in time are reaped so a
    #: dead router never strands capacity.
    lease_ttl: float = 5.0

    def __post_init__(self) -> None:
        check_planner_fields(self.algorithm, self.contention_index)
        check_numbers(self)
        if self.drain_timeout < 0:
            raise ModelError("drain_timeout must be >= 0")
        if self.shard_count < 1:
            raise ModelError("shard_count must be >= 1")
        if not 0 <= self.shard_index < self.shard_count:
            raise ModelError(
                f"shard_index {self.shard_index} out of range for "
                f"shard_count {self.shard_count}"
            )
        if self.lease_ttl <= 0:
            raise ModelError("lease_ttl must be positive")


#: POST routes a draining daemon still serves.
_DRAIN_EXEMPT = frozenset({"/v1/commit", "/v1/abort", "/v1/teardown"})

#: ``phase`` label values of ``daemon.admission_phase_seconds``, in the
#: order :meth:`ReservationDaemon._admit` measures them.
_PHASES = ("parse", "queue_wait", "plan", "commit", "serialize")


class ReservationService:
    """The daemon's in-process core: grid + coordinator + flight recorder.

    Owns the process-global observability handles while started: its
    :class:`MetricsRegistry` backs ``/metrics`` and its
    :class:`EventLog` is the flight recorder's event ring.
    ``start()`` installs them and ``close()`` restores the handles
    installed before, so sequential daemons (tests, restarts) leave a
    clean process behind.
    """

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.env = Environment()
        self.streams = RandomStreams(config.seed)
        self.registry = MetricsRegistry()
        self.flight = FlightRecorder()
        #: The one event log, and the flight recorder's event ring.
        self.log = self.flight.log
        self.grid = GridEnvironment(
            self.env, self.streams, capacity_range=config.capacity_range
        )
        self.coordinator = self.grid.coordinator
        self.planner = make_planner(config.algorithm, config.tie_break, self.streams)
        self.contention_index = CONTENTION_INDICES[config.contention_index]
        #: Session outcomes and two-phase lease operations, each counted
        #: once, where it happens, on the registry (``daemon.sessions``,
        #: ``daemon.lease_operations``); :attr:`counters` and
        #: :attr:`lease_counters` read them.
        self._outcomes = {
            outcome: self.registry.counter("daemon.sessions", outcome=outcome)
            for outcome in ("established", "rejected", "torn_down")
        }
        self._lease_operations = {
            op: self.registry.counter("daemon.lease_operations", op=op)
            for op in ("reserved", "committed", "aborted", "expired")
        }
        self.started_at = _time.monotonic()
        self._session_ids = itertools.count(1)
        #: The installed handles while started, None while closed.
        self._handles: Optional[ExitStack] = None
        # Cluster sharding: which slice of the grid this daemon owns.
        # Every shard builds the identical same-seed grid (capacities
        # come from the seeded draw), but only grants reservations on
        # the resources the shard map assigns to it.
        self.shard_map = ShardMap.from_topology(self.grid.topology, config.shard_count)
        self._owned_resources = frozenset(
            self.shard_map.owned_resource_ids(
                config.shard_index, self.grid.registry.resource_ids()
            )
        )
        #: The brokers plans name, grid-wide: cpu and end-to-end path,
        #: not links.
        self._addressable = {
            broker.resource_id: broker
            for brokers in (self.grid.cpu_brokers, self.grid.path_brokers)
            for broker in brokers.values()
        }
        #: The addressable brokers this daemon owns: ``/v1/availability``.
        self._slice = [
            broker
            for resource_id, broker in self._addressable.items()
            if resource_id in self._owned_resources
        ]
        #: The one lease table: phase 3's hold -> commit engine and the
        #: two-phase ``/v1/reserve`` leases alike, on the wall clock (the
        #: router that holds a reserve's lease is another process).
        self.leases = self.coordinator.leases = LeaseTable(
            self.coordinator.proxies, _time.monotonic, config.lease_ttl
        )
        #: The shard's half of the cluster protocol: its fence, and the
        #: one session table (session_id -> the facts to renegotiate or
        #: query it).
        self.core = ShardCore(self.leases, self.coordinator.teardown, self.shard_label)
        self.sessions = self.core.sessions
        #: POST path -> admission operation (payload in, document out).
        self._operations = {
            "/v1/establish": self.establish,
            "/v1/establish_batch": self.establish_batch,
            "/v1/renegotiate": self.renegotiate,
            "/v1/teardown": self.teardown,
            "/v1/reserve": self.reserve,
            "/v1/commit": self.commit,
            "/v1/abort": self.abort,
        }
        #: POST path -> the span its admission runs in (``daemon.<op>``).
        self.admission_spans = {
            path: "daemon." + path.rsplit("/", 1)[1] for path in self._operations
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Install the registry + event log + flight tracer.

        Refuses to start over another installed event log: replacing it
        would detach that log's subscribers.
        """
        if self._handles is not None:
            return
        if _events.active_event_log() not in (None, self.log):
            raise RuntimeError("an EventLog is already installed; uninstall() it first")
        self._handles = ExitStack()
        self._handles.enter_context(_metrics.metering(self.registry))
        self._handles.enter_context(_events.event_logging(self.log))
        self._handles.enter_context(_trace.tracing(self.flight.tracer))

    def close(self) -> None:
        """Restore the handles installed before :meth:`start`."""
        if self._handles is not None:
            self._handles.close()
            self._handles = None

    def flight_dump(self, reason: str) -> Optional[Path]:
        """Dump the flight recorder (None when no ``flight_dir`` is set).

        File names carry the pid and a per-process sequence number so
        repeated dumps (and parallel daemons sharing a directory) never
        overwrite each other.
        """
        if self.config.flight_dir is None:
            return None
        name = f"flight-{reason}-{_os.getpid()}-{self.flight.dump_count}.json"
        self._set_state_gauges()
        return self.flight.dump(
            Path(self.config.flight_dir) / name,
            reason=reason,
            registry=self.registry,
            meta=self._flight_meta(),
        )

    def flight_snapshot(self, reason: str) -> dict:
        """The flight recorder's schema-v4 document, in-band."""
        self._set_state_gauges()
        return self.flight.snapshot(
            reason=reason, registry=self.registry, meta=self._flight_meta()
        )

    def _flight_meta(self) -> dict:
        return {
            "daemon_seed": self.config.seed,
            "daemon_algorithm": self.config.algorithm,
            "active_sessions": len(self.sessions),
            "counters": self.counters,
        }

    def debug_dump(self) -> dict:
        """``POST /v1/debug/dump``: the flight snapshot, in-band and on disk."""
        path = self.flight_dump("debug_endpoint")
        return {
            "path": str(path) if path is not None else None,
            "document": self.flight_snapshot("debug_endpoint"),
        }

    # -- the route table (transport-free) ----------------------------------

    def route(self, method: str, path: str, query, *, draining: bool = False):
        """Resolve one request: ``(status, document)``, or ``(None, operation)``.

        Reads, the flight-dump hatch and every refusal need neither a
        payload nor the admission lock and are answered on the spot;
        an admission comes back as the operation to call with the
        decoded payload, so the caller decides what serializes it.
        Drain refuses *new* admissions.  Commit/abort finish a 2PC
        round already holding capacity and teardown releases held
        capacity, so they stay available -- a draining shard must not
        wedge another shard's decision or strand a session's holds.
        """
        if method == "GET" and path == "/v1/query":
            if "view" in query:
                return answer(self.query_view, query["view"], query.get("session_id"))
            return answer(self.query, query.get("session_id"))
        if method == "GET" and path == "/v1/availability":
            return answer(self.availability, query.get("resources"))
        if method != "POST":
            return 405, {"error": f"no route for {method} {path}"}
        if path == "/v1/debug/dump":
            # The postmortem hatch works during drain on purpose: a
            # wedged daemon is exactly when the flight recorder matters.
            return answer(self.debug_dump)
        operation = self._operations.get(path)
        if operation is None:
            return 404, {"error": f"unknown path {path!r}"}
        if draining and path not in _DRAIN_EXEMPT:
            return 503, DRAIN_REFUSAL
        return None, operation

    def handle(
        self, method: str, path: str, query, payload, *, draining: bool = False
    ) -> Tuple[int, object]:
        """``(status, document)`` of one request, as the daemon answers it."""
        status, document = self.route(method, path, query, draining=draining)
        if status is None:
            return answer(document, payload)
        return status, document

    # -- request decoding --------------------------------------------------

    def _placed(self, service: str, domain: str):
        """(binding, component_hosts) of a placement this daemon may admit.

        400 on a bad placement; 409 from a shard when the placement
        touches a resource another shard owns -- every shard builds the
        whole grid, so planning it here would hold capacity on a local
        copy of brokers whose real state lives elsewhere.
        """
        try:
            binding = self.grid.binding_for(service, domain)
            component_hosts = self.grid.component_hosts_for(service, domain)
        except ModelError as exc:
            raise ServiceError(str(exc)) from exc
        for resource_id in sorted(binding.resource_ids() - self._owned_resources):
            self._check_owned(resource_id)
        return binding, component_hosts

    # -- admission operations (serialized by the daemon's lock) ------------

    def establish(self, payload: dict) -> dict:
        """One three-phase establishment; returns the JSON-ready outcome."""
        arrival = decode_arrival(payload, self._session_ids)
        if arrival.session_id in self.sessions:
            raise ServiceError(
                f"session {arrival.session_id!r} already established", status=409
            )
        binding, component_hosts = self._placed(arrival.service, arrival.domain)
        result = self.coordinator.establish(
            arrival.session_id,
            arrival.service,
            binding,
            self.planner,
            component_hosts=component_hosts,
            demand_scale=arrival.demand_scale,
            contention_index=self.contention_index,
        )
        return self._record(arrival, result)

    def establish_batch(self, payload: dict) -> List[dict]:
        """N arrivals admitted against one availability snapshot."""
        arrivals_payload = payload.get("arrivals")
        if not isinstance(arrivals_payload, list) or not arrivals_payload:
            raise ServiceError("'arrivals' must be a non-empty list")
        arrivals = [decode_arrival(item, self._session_ids) for item in arrivals_payload]
        seen = set()
        for arrival in arrivals:
            if arrival.session_id in self.sessions or arrival.session_id in seen:
                raise ServiceError(
                    f"session {arrival.session_id!r} already established", status=409
                )
            seen.add(arrival.session_id)
        requests = []
        for arrival in arrivals:
            binding, component_hosts = self._placed(arrival.service, arrival.domain)
            requests.append(
                arrival.to_session_request(binding, component_hosts=component_hosts)
            )
        results = self.coordinator.establish_batch(
            requests, self.planner, contention_index=self.contention_index
        )
        return [
            self._record(arrival, result)
            for arrival, result in zip(arrivals, results)
        ]

    def _record(self, arrival: SessionArrival, result: EstablishmentResult) -> dict:
        """Track the outcome and shape the response document."""
        outcome = _establishment_to_dict(result)
        if result.success:
            self._outcomes["established"].inc()
            self.sessions[arrival.session_id] = {
                "service": arrival.service,
                "domain": arrival.domain,
                "demand_scale": arrival.demand_scale,
                "duration": arrival.duration,
                "level": result.qos_level,
            }
        else:
            self._outcomes["rejected"].inc()
        return outcome

    def renegotiate(self, payload: dict) -> dict:
        """§5 re-planning of a live session against fresh availability."""
        session_id = payload.get("session_id")
        if not session_id:
            raise ServiceError("missing required field 'session_id'")
        session = self.sessions.get(str(session_id))
        if session is None:
            raise ServiceError(f"unknown session {session_id!r}", status=404)
        if session.get("cluster"):
            # Recorded by /v1/commit: this daemon holds one shard's share
            # of the plan (and maybe no placement at all), not the session.
            raise ServiceError(
                f"session {session_id!r} was admitted by a cluster router; "
                "renegotiate through it",
                status=409,
            )
        binding, component_hosts = self._placed(session["service"], session["domain"])
        result = self.coordinator.renegotiate(
            str(session_id),
            session["service"],
            binding,
            self.planner,
            component_hosts=component_hosts,
            demand_scale=session["demand_scale"],
            contention_index=self.contention_index,
            trigger=str(payload.get("trigger", "api")),
            previous_level=session["level"],
        )
        if result.outcome == "failed_dropped":
            self.sessions.pop(str(session_id), None)
        else:
            session["level"] = result.new_level
        return _renegotiation_to_dict(result)

    def teardown(self, payload: dict) -> dict:
        """Release everything a session holds.

        The coordinator's teardown drops the session's live leases first
        (they are in its lease table, which is this daemon's; their
        reservations are on the proxies' books, which the teardown
        releases), so a commit that arrives after the teardown finds no
        lease and answers 404 instead of re-creating the session.
        """
        session_id = payload.get("session_id")
        if not session_id:
            raise ServiceError("missing required field 'session_id'")
        known, released = self.core.teardown(str(session_id), _generation(payload))
        if not known and released == 0:
            raise ServiceError(f"unknown session {session_id!r}", status=404)
        self._outcomes["torn_down"].inc()
        return {"session_id": str(session_id), "released": released}

    # -- cross-shard two-phase reserve/commit ------------------------------

    @property
    def shard_label(self) -> str:
        return f"shard-{self.config.shard_index}"

    def _check_owned(self, resource_id: str) -> None:
        if resource_id not in self.grid.registry:
            raise ServiceError(f"unknown resource {resource_id!r}")
        if resource_id not in self._owned_resources:
            raise ServiceError(
                f"resource {resource_id!r} is not owned by shard "
                f"{self.config.shard_index}",
                status=409,
            )

    def reserve(self, payload: dict) -> dict:
        """Phase one of a cross-shard admission: hold capacity on a lease.

        Applies the demanded amounts through this shard's owning proxies
        atomically (all or nothing) and parks them on a TTL lease.  The
        router commits or aborts the lease; a router that dies first is
        covered by the reaper, which releases expired leases -- the
        PR 4 orphan-reaping contract applied across processes.

        A reserve that carries ``commit`` (the session record a
        ``/v1/commit`` would carry) is the router's last exchange of the
        round, and commits the lease it holds before answering.  A
        reserve whose ``generation`` is below the fence is refused with
        a 409 before anything is held: the router gave up on an exchange
        with this shard since it sent it, and may already have settled
        that exchange's teardown here.
        """
        session_id = str(payload.get("session_id") or "")
        if not session_id:
            raise ServiceError("missing required field 'session_id'")
        demands_payload = payload.get("demands")
        if not isinstance(demands_payload, dict) or not demands_payload:
            raise ServiceError("'demands' must be a non-empty object")
        try:
            demands = {
                str(rid): float(amount)
                for rid, amount in demands_payload.items()
            }
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"non-numeric demand: {exc}") from exc
        for resource_id in sorted(demands):
            self._check_owned(resource_id)
        generation, record = _generation(payload), payload.get("commit")
        # hold itself refuses a non-finite or non-positive amount (a 400).
        try:
            lease = self.core.reserve(
                session_id, generation, self.coordinator.segments(demands), record
            )
        except AdmissionError as exc:
            return {
                "session_id": session_id,
                "reserved": False,
                "failed_resource": exc.resource_id,
            }
        if lease is None:
            raise ServiceError(
                f"stale router generation (fence {self.core.fence})", status=409
            )
        self._lease_operations["reserved"].inc()
        if record is not None:
            return dict(self._committed(lease), reserved=True)
        # The holder is a remote router that may die at any moment, so
        # the lease is the reaper's from birth; commit/abort race it.
        self.leases.orphan(lease)
        return {
            "session_id": session_id,
            "reserved": True,
            "lease_id": lease.lease_id,
            "ttl": self.config.lease_ttl,
        }

    def commit(self, payload: dict) -> dict:
        """Phase two: make a lease's reservations permanent."""
        lease_id = str(payload.get("lease_id") or "")
        if not lease_id:
            raise ServiceError("missing required field 'lease_id'")
        lease = self.core.commit(lease_id, payload.get("session"))
        if lease is None:
            raise ServiceError(
                f"unknown lease {lease_id!r} (expired or never reserved)",
                status=404,
            )
        return self._committed(lease)

    def _committed(self, lease) -> dict:
        """Count, log and answer a lease the core committed."""
        self._outcomes["established"].inc()
        self._lease_operations["committed"].inc()
        _events.emit(
            "lease.committed",
            session=lease.session_id,
            lease=lease.lease_id,
            shard=self.shard_label,
        )
        return {
            "lease_id": lease.lease_id,
            "session_id": lease.session_id,
            "committed": True,
        }

    def abort(self, payload: dict) -> dict:
        """Abort a lease, releasing its holds (idempotent on unknowns)."""
        lease_id = str(payload.get("lease_id") or "")
        if not lease_id:
            raise ServiceError("missing required field 'lease_id'")
        lease, released = self.core.abort(lease_id)
        if lease is None:
            return {"lease_id": lease_id, "aborted": False, "released": 0}
        self._lease_operations["aborted"].inc()
        _events.emit(
            "lease.aborted",
            session=lease.session_id,
            lease=lease_id,
            shard=self.shard_label,
            released=released,
        )
        return {"lease_id": lease_id, "aborted": True, "released": released}

    def reap_expired_leases(self, now: Optional[float] = None) -> int:
        """Release every lease past its TTL; returns the count reaped."""
        reaped = self.leases.reap(now)
        for lease, released in reaped:
            self._lease_operations["expired"].inc()
            _events.emit(
                "lease.expired",
                session=lease.session_id,
                host=self.shard_label,
                lease=lease.lease_id,
                released=released,
            )
        return len(reaped)

    def availability(self, resources: Optional[str] = None) -> dict:
        """Observed availability of this shard's demand-addressable slice.

        Covers the cpu and end-to-end path brokers the shard owns (the
        resources plans name); link brokers stay internal to the paths.
        ``resources`` (``?resources=<id>,<id>``) narrows it to the named
        ones, each checked before any is observed: an unknown, link or
        repeated id is a 400, one another shard owns a 409.
        """
        if resources is None:
            brokers = self._slice
        else:
            resource_ids = resources.split(",")
            if len(set(resource_ids)) < len(resource_ids):
                raise ServiceError(f"'resources' repeats a resource: {resources!r}")
            for resource_id in resource_ids:
                if resource_id not in self._addressable:
                    raise ServiceError(
                        f"resource {resource_id!r} is unknown or not a cpu or path"
                    )
                self._check_owned(resource_id)
            brokers = [self._addressable[rid] for rid in resource_ids]
        observations: Dict[str, dict] = {}
        for broker in brokers:
            observation = broker.observe()
            observations[broker.resource_id] = {
                "available": observation.available,
                "alpha": observation.alpha,
                "observed_at": observation.observed_at,
            }
        return {
            "shard": self.config.shard_index,
            "shard_count": self.config.shard_count,
            "seed": self.config.seed,
            "resources": observations,
        }

    # -- read-only views ---------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Session outcomes so far, read off ``daemon.sessions``."""
        return {key: int(counter.value) for key, counter in self._outcomes.items()}

    @property
    def lease_counters(self) -> Dict[str, int]:
        """Lease operations so far, read off ``daemon.lease_operations``."""
        return {
            key: int(counter.value) for key, counter in self._lease_operations.items()
        }

    def query(self, session_id: Optional[str] = None) -> dict:
        """Daemon state, or one session's record with ``session_id``."""
        if session_id is not None:
            session = self.sessions.get(session_id)
            if session is None:
                raise ServiceError(f"unknown session {session_id!r}", status=404)
            return {"session_id": session_id, **session}
        return {
            "uptime_seconds": _time.monotonic() - self.started_at,
            "algorithm": self.config.algorithm,
            "seed": self.config.seed,
            "active_sessions": len(self.sessions),
            "counters": self.counters,
            "event_log": {
                "recorded": len(self.log),
                "dropped": self.log.dropped,
            },
            "utilization": {
                broker.resource_id: broker.utilization()
                for broker in self.grid.registry.brokers()
            },
            "shard": self._shard_section(),
        }

    def query_view(self, view: str, session_id: Optional[str] = None) -> dict:
        """``?view=shard``: only what a cluster router reads of :meth:`query`.

        ``seed``, ``active_sessions`` and the ``shard`` section, each as
        the full document has it.  Any other view, or a view asked
        together with ``session_id``, is a 400.
        """
        if view != "shard":
            raise ServiceError(f"unknown view {view!r}: the one view is 'shard'")
        if session_id is not None:
            raise ServiceError("'view' and 'session_id' cannot be asked together")
        return {
            "seed": self.config.seed,
            "active_sessions": len(self.sessions),
            "shard": self._shard_section(),
        }

    def _shard_section(self) -> dict:
        """The ``shard`` section of :meth:`query` and :meth:`query_view`."""
        return {
            "index": self.config.shard_index,
            "count": self.config.shard_count,
            "owned_resources": len(self._owned_resources),
            "pending_leases": len(self.leases.pending()),
            "lease_counters": self.lease_counters,
        }

    def _set_state_gauges(self) -> None:
        """Sync the point-in-time state into gauges (scrape, flight dump)."""
        self.registry.gauge("daemon.active_sessions").set(len(self.sessions))
        self.registry.gauge("daemon.pending_leases").set(len(self.leases.pending()))
        self.registry.gauge("daemon.shard_index").set(self.config.shard_index)
        self.registry.gauge("daemon.shard_count").set(self.config.shard_count)

    def metrics_exposition(self) -> str:
        """The ``/metrics`` body (Prometheus text format).

        The counters are counted where they happen; the point-in-time
        state -- active sessions, pending leases, shard identity -- is
        set into gauges here, at render time, so it is scrapeable
        without hitting ``/v1/query``.
        """
        self._set_state_gauges()
        return registry_exposition(self.registry)


def _establishment_to_dict(result: EstablishmentResult) -> dict:
    document = {
        "session_id": result.session_id,
        "success": result.success,
        "reason": result.reason,
        "failed_resource": result.failed_resource,
        "level": result.qos_level,
        "label": None,
        "psi": None,
    }
    if result.success and result.plan is not None:
        document["label"] = result.plan.end_to_end_label
        document["psi"] = result.plan.psi
    return document


def _renegotiation_to_dict(result: RenegotiationResult) -> dict:
    return {
        "session_id": result.session_id,
        "outcome": result.outcome,
        "success": result.success,
        "previous_level": result.previous_level,
        "new_level": result.new_level,
        "restored": result.restored,
        "result": _establishment_to_dict(result.result),
    }


class ReservationDaemon(ServingShell):
    """Serves a :class:`ReservationService` over HTTP."""

    def __init__(self, config: Optional[DaemonConfig] = None) -> None:
        self.config = config or DaemonConfig()
        super().__init__(
            self.config.host,
            self.config.port,
            drain_timeout=self.config.drain_timeout,
            access_log=self.config.access_log,
        )
        self.service = ReservationService(self.config)
        #: The shell counts into the flight recorder's wire counters.
        self.wire = self.service.flight.wire
        self._phase_histograms: Optional[tuple] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Install observability and bind the listening socket."""
        self.service.start()
        try:
            await super().start()
        except BaseException:
            self.service.close()
            raise
        self._background = asyncio.create_task(self._reap_leases_forever())

    async def _reap_leases_forever(self) -> None:
        """Release expired 2PC leases in the background.

        Runs under the admission lock so a reap never interleaves with
        a commit/abort of the same lease.
        """
        interval = max(0.05, min(1.0, self.config.lease_ttl / 4))
        while True:
            await asyncio.sleep(interval)
            async with self._lock:
                self.service.reap_expired_leases()

    async def shutdown(self, *, drain: Optional[bool] = True) -> None:
        """Drain and stop listening, then release the service.

        The observability handles are uninstalled once the socket is gone.
        """
        await super().shutdown(drain=drain)
        self.service.close()

    # -- routes ------------------------------------------------------------

    def _health_fields(self) -> dict:
        return {
            "role": "shard",
            "shard": self.service.shard_label,
            "shard_index": self.service.config.shard_index,
            "shard_count": self.service.config.shard_count,
        }

    def _metrics_text(self) -> str:
        return self.service.metrics_exposition()

    async def _dispatch(self, request: _http.Request, close: bool) -> bytes:
        status, resolved = self.service.route(
            request.method, request.path, request.query, draining=self._draining
        )
        if status is not None:
            return _http.json_response_bytes(status, resolved, close=close)
        payload = request.json()
        parse_seconds = _time.perf_counter() - request.received
        span_name = self.service.admission_spans[request.path]
        return await self._admit(resolved, payload, span_name, parse_seconds, close)

    async def _admit(
        self,
        operation,
        payload: dict,
        span_name: str,
        parse_seconds: float,
        close: bool,
    ) -> bytes:
        """Run one admission operation serialized under the lock.

        Each phase of the admission (parse / queue_wait / plan / commit
        / serialize) lands in the ``daemon.admission_phase_seconds``
        histogram, exemplared with the request's trace id.
        """
        context = _context.current_trace_context()
        trace_id = context.trace_id if context is not None else None
        self._enter_admission()
        queue_started = _time.perf_counter()
        try:
            await self._lock.acquire()
            try:
                queue_wait = _time.perf_counter() - queue_started
                # Nothing yields between here and _planning_phases, so the
                # spans opened from this index on are this request's.
                first_span = self.service.flight.tracer.next_index
                with _trace.span(span_name) as span:
                    status, document = answer(operation, payload)
                    span.set(status=status)
                plan_seconds, commit_seconds = self._planning_phases(first_span)
                serialize_started = _time.perf_counter()
                response = _http.json_response_bytes(status, document, close=close)
                serialize_seconds = _time.perf_counter() - serialize_started
                self._observe_phases(
                    trace_id,
                    parse_seconds,
                    queue_wait,
                    plan_seconds,
                    commit_seconds,
                    serialize_seconds,
                )
                return response
            finally:
                self._lock.release()
        finally:
            self._exit_admission()

    def _planning_phases(self, first_span: int) -> Tuple[float, float]:
        """(plan, commit) seconds of the request that just ran.

        ``first_span`` is the tracer's span index when the request took
        the lock.  Admissions are serialized under it, so the request's
        spans are the newest in the flight tracer's ring.  (Per request,
        not per trace: a client may send a whole session under one trace
        id.)
        """
        return self.service.flight.tracer.durations_since(
            first_span, PHASE2_SPAN, PHASE3_SPAN
        )

    def _observe_phases(self, trace_id: Optional[str], *seconds: float) -> None:
        """One observation per phase, in ``_PHASES`` order."""
        histograms = self._phase_histograms
        if histograms is None:
            # Resolved on the first admission, not at construction: the
            # series must not appear on /metrics before anything is timed.
            histograms = self._phase_histograms = tuple(
                self.service.registry.histogram(
                    "daemon.admission_phase_seconds", phase=phase
                )
                for phase in _PHASES
            )
        for histogram, value in zip(histograms, seconds):
            histogram.observe(value, exemplar=trace_id)

    def _on_unhandled(self, exc: Exception) -> None:
        """Count the exception, then dump the flight recorder (best effort)."""
        super()._on_unhandled(exc)
        try:
            path = self.service.flight_dump("exception")
        except Exception:  # pragma: no cover - the dump must never re-raise
            return
        if path is not None:
            print(
                f"repro-serve: unhandled {type(exc).__name__}; "
                f"flight recorder dumped to {path}",
                file=_sys.stderr,
                flush=True,
            )
