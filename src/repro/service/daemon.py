"""The long-lived reservation service daemon (admission API + event plane).

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
``POST /v1/reserve``         cross-shard 2PC: hold demands on a TTL lease
``POST /v1/commit``          cross-shard 2PC: make a lease permanent
``POST /v1/abort``           cross-shard 2PC: release a lease
``GET  /v1/query``           daemon + session + utilization state
``GET  /v1/availability``    observed availability of the owned slice
``GET  /v1/events``          WebSocket stream of the causal event log
``GET  /metrics``            Prometheus text exposition of the live registry
``GET  /healthz``            liveness probe (uptime, in-flight, drain state)
``POST /v1/debug/dump``      flight-recorder snapshot on demand
===========================  ==================================================

Admissions execute *serialized* on the event loop under the shell's
lock, so daemon decisions for a given request order are byte-identical
to calling ``coordinator.establish`` in-process in that order -- the
property the acceptance test pins.  The event plane fans the
coordinator's causal :class:`~repro.obs.events.EventLog` out to
WebSocket subscribers through bounded queues
(:mod:`repro.service.events`): a slow consumer loses its own events
behind a ``stream.truncated`` marker, never the daemon's.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import CONTENTION_INDICES, check_planner_fields, make_planner
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
from repro.service.events import EventPlane
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


def check_grid_fields(algorithm: str, contention_index: str, drain_timeout: float = 0.0) -> None:
    """Refuse the fields a daemon and a cluster router share (ModelError)."""
    check_planner_fields(algorithm, contention_index)
    if drain_timeout < 0:
        raise ModelError("drain_timeout must be >= 0")


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
    #: ``shard_index`` out of ``shard_count`` shards.  ``None`` (the
    #: default) keeps the historical single-daemon behaviour: the
    #: daemon owns every resource of its grid.
    shard_index: Optional[int] = None
    shard_count: int = 1
    #: Wall-clock TTL (seconds) of a two-phase ``/v1/reserve`` lease;
    #: leases neither committed nor aborted in time are reaped so a
    #: dead router never strands capacity.
    lease_ttl: float = 5.0

    def __post_init__(self) -> None:
        check_grid_fields(self.algorithm, self.contention_index, self.drain_timeout)
        if self.shard_count < 1:
            raise ModelError("shard_count must be >= 1")
        if self.shard_index is not None and not (
            0 <= self.shard_index < self.shard_count
        ):
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
    """The daemon's in-process core: grid + coordinator + event plane.

    Owns the process-global observability handles while started: its
    :class:`MetricsRegistry` backs ``/metrics`` and its
    :class:`EventLog` feeds the event plane.  ``start()``/``close()``
    install/uninstall them, so sequential daemons (tests, restarts)
    leave a clean process behind.
    """

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.env = Environment()
        self.streams = RandomStreams(config.seed)
        self.registry = MetricsRegistry()
        self.flight = FlightRecorder()
        #: The one event log, and the flight recorder's event ring.
        self.log = self.flight.log
        self.plane = EventPlane()
        self.grid = GridEnvironment(
            self.env, self.streams, capacity_range=config.capacity_range
        )
        self.coordinator = self.grid.coordinator
        self.planner = make_planner(config.algorithm, config.tie_break, self.streams)
        self.contention_index = CONTENTION_INDICES[config.contention_index]
        #: session_id -> the arrival facts needed to renegotiate/query it.
        self.sessions: Dict[str, dict] = {}
        self.counters = {"established": 0, "rejected": 0, "torn_down": 0}
        self.started_at = _time.monotonic()
        self._session_ids = itertools.count(1)
        self._started = False
        self._previous_tracer = None
        # Cluster sharding: which slice of the grid this daemon owns.
        # Every shard builds the identical same-seed grid (capacities
        # come from the seeded draw), but only grants reservations on
        # the resources the shard map assigns to it.
        self.shard_map = None
        self._owned_resources: Optional[frozenset] = None
        self.shard_registry = self.grid.registry
        if config.shard_index is not None:
            from repro.cluster.shardmap import ShardMap

            self.shard_map = ShardMap.from_topology(
                self.grid.topology, config.shard_count
            )
            self._owned_resources = frozenset(
                rid
                for rid in self.grid.registry.resource_ids()
                if self.shard_map.shard_of(rid) == config.shard_index
            )
            self.shard_registry = self.grid.registry.subset(
                sorted(self._owned_resources)
            )
        #: Two-phase ``/v1/reserve`` leases, on the wall clock: the
        #: router that holds them is another process.
        self.leases = LeaseTable(self.grid.proxies, _time.monotonic, config.lease_ttl)
        self.lease_counters = {
            "reserved": 0, "committed": 0, "aborted": 0, "expired": 0
        }
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

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Install the registry + event log + flight tracer, attach planes."""
        if self._started:
            return
        _metrics.install(self.registry)
        try:
            _events.install(self.log)
        except RuntimeError:
            _metrics.uninstall()
            raise
        self._previous_tracer = _trace.active_tracer()
        _trace.install(self.flight.tracer)
        self.plane.attach(self.log)
        self._started = True

    def close(self) -> None:
        """Detach the planes and release the global handles."""
        if not self._started:
            return
        self.plane.detach()
        if _trace.active_tracer() is self.flight.tracer:
            if self._previous_tracer is None:
                _trace.uninstall()
            else:
                _trace.install(self._previous_tracer)
        if _events.active_event_log() is self.log:
            _events.uninstall()
        if _metrics.active_registry() is self.registry:
            _metrics.uninstall()
        self._started = False

    def flight_dump(self, reason: str) -> Optional[Path]:
        """Dump the flight recorder (None when no ``flight_dir`` is set).

        File names carry the pid and a per-process sequence number so
        repeated dumps (and parallel daemons sharing a directory) never
        overwrite each other.
        """
        if self.config.flight_dir is None:
            return None
        name = f"flight-{reason}-{_os.getpid()}-{self.flight.dump_count}.json"
        return self.flight.dump(
            Path(self.config.flight_dir) / name,
            reason=reason,
            registry=self.registry,
            meta=self._flight_meta(),
        )

    def flight_snapshot(self, reason: str) -> dict:
        """The flight recorder's schema-v4 document, in-band."""
        return self.flight.snapshot(
            reason=reason, registry=self.registry, meta=self._flight_meta()
        )

    def _flight_meta(self) -> dict:
        return {
            "daemon_seed": self.config.seed,
            "daemon_algorithm": self.config.algorithm,
            "active_sessions": len(self.sessions),
            "counters": dict(self.counters),
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
            return answer(self.query, query.get("session_id"))
        if method == "GET" and path == "/v1/availability":
            return answer(self.availability)
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
        if self._owned_resources is not None:
            for resource_id in sorted(binding.resource_ids()):
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
            self.counters["established"] += 1
            self.sessions[arrival.session_id] = {
                "service": arrival.service,
                "domain": arrival.domain,
                "demand_scale": arrival.demand_scale,
                "duration": arrival.duration,
                "level": result.qos_level,
                "established_at": _time.monotonic(),
            }
        else:
            self.counters["rejected"] += 1
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
        """Release everything a session holds."""
        session_id = payload.get("session_id")
        if not session_id:
            raise ServiceError("missing required field 'session_id'")
        known = self.sessions.pop(str(session_id), None)
        released = self.coordinator.teardown(str(session_id))
        if known is None and released == 0:
            raise ServiceError(f"unknown session {session_id!r}", status=404)
        self.counters["torn_down"] += 1
        return {"session_id": str(session_id), "released": released}

    # -- cross-shard two-phase reserve/commit ------------------------------

    @property
    def shard_label(self) -> str:
        index = self.config.shard_index
        return f"shard-{index}" if index is not None else "shard-solo"

    def _check_owned(self, resource_id: str) -> None:
        if resource_id not in self.grid.registry:
            raise ServiceError(f"unknown resource {resource_id!r}")
        if (
            self._owned_resources is not None
            and resource_id not in self._owned_resources
        ):
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
        # hold itself refuses a non-finite or non-positive amount (a 400).
        try:
            lease = self.leases.hold(
                session_id, self.coordinator._segments(demands), self.shard_label
            )
        except AdmissionError as exc:
            return {
                "session_id": session_id,
                "reserved": False,
                "failed_resource": exc.resource_id,
            }
        # The holder is a remote router that may die at any moment, so
        # the lease is the reaper's from birth; commit/abort race it.
        self.leases.orphan(lease)
        self.lease_counters["reserved"] += 1
        _events.emit(
            "lease.reserved",
            session=session_id,
            lease=lease.lease_id,
            shard=self.shard_label,
            resources=sorted(demands),
        )
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
        lease = self.leases.get(lease_id)
        if lease is None:
            raise ServiceError(
                f"unknown lease {lease_id!r} (expired or never reserved)",
                status=404,
            )
        self.leases.commit(lease)
        meta = payload.get("session")
        record = {"cluster": True, "established_at": _time.monotonic()}
        if isinstance(meta, dict):
            for key in ("service", "domain", "demand_scale", "duration", "level"):
                if key in meta:
                    record[key] = meta[key]
        self.sessions.setdefault(lease.session_id, record)
        self.counters["established"] += 1
        self.lease_counters["committed"] += 1
        _events.emit(
            "lease.committed",
            session=lease.session_id,
            lease=lease_id,
            shard=self.shard_label,
        )
        return {
            "lease_id": lease_id,
            "session_id": lease.session_id,
            "committed": True,
        }

    def abort(self, payload: dict) -> dict:
        """Abort a lease, releasing its holds (idempotent on unknowns)."""
        lease_id = str(payload.get("lease_id") or "")
        if not lease_id:
            raise ServiceError("missing required field 'lease_id'")
        lease = self.leases.get(lease_id)
        if lease is None:
            return {"lease_id": lease_id, "aborted": False, "released": 0}
        released = self.leases.release(lease)
        self.lease_counters["aborted"] += 1
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
            self.lease_counters["expired"] += 1
            _events.emit(
                "lease.expired",
                session=lease.session_id,
                host=self.shard_label,
                lease=lease.lease_id,
                released=released,
            )
        return len(reaped)

    def availability(self) -> dict:
        """Observed availability of this shard's demand-addressable slice.

        Covers the cpu and end-to-end path brokers the shard owns (the
        resources plans name); link brokers stay internal to the paths.
        """
        observations: Dict[str, dict] = {}
        addressable = list(self.grid.cpu_brokers.values()) + list(
            self.grid.path_brokers.values()
        )
        for broker in addressable:
            if (
                self._owned_resources is not None
                and broker.resource_id not in self._owned_resources
            ):
                continue
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

    def query(self, session_id: Optional[str] = None) -> dict:
        """Daemon state, or one session's record with ``session_id``."""
        if session_id is not None:
            session = self.sessions.get(session_id)
            if session is None:
                raise ServiceError(f"unknown session {session_id!r}", status=404)
            document = {"session_id": session_id}
            document.update(
                {k: v for k, v in session.items() if k != "established_at"}
            )
            return document
        document = {
            "uptime_seconds": _time.monotonic() - self.started_at,
            "algorithm": self.config.algorithm,
            "seed": self.config.seed,
            "active_sessions": len(self.sessions),
            "counters": dict(self.counters),
            "event_log": {
                "recorded": len(self.log),
                "dropped": self.log.dropped,
                "subscribers": self.plane.subscriber_count,
                "fanned_out": self.plane.events_seen,
            },
            "utilization": {
                broker.resource_id: broker.utilization()
                for broker in self.grid.registry.brokers()
            },
        }
        # The shard section appears only for sharded daemons (or once
        # the 2PC endpoints have been used), so plain single-daemon
        # query responses stay byte-identical to the pre-cluster wire.
        if self.config.shard_index is not None or any(
            self.lease_counters.values()
        ):
            document["shard"] = {
                "index": self.config.shard_index,
                "count": self.config.shard_count,
                "owned_resources": len(self.shard_registry.resource_ids()),
                "pending_leases": len(self.leases.pending()),
                "lease_counters": dict(self.lease_counters),
            }
        return document

    def metrics_exposition(self) -> str:
        """The ``/metrics`` body (Prometheus text format).

        Synced against the raw dict counters first, so cluster state --
        session outcomes, 2PC lease operations, shard identity -- is
        scrapeable without hitting ``/v1/query``.
        """
        self._sync_scrape_instruments()
        return registry_exposition(self.registry)

    def _sync_scrape_instruments(self) -> None:
        """Mirror dict-based state into registry instruments.

        The admission path keeps its counters in plain dicts (they
        predate the registry and ride on ``/v1/query``); scrape time is
        the one place both views must agree, so the mirror runs here --
        incrementing by the delta keeps the instruments monotone.
        """
        for outcome, value in self.counters.items():
            instrument = self.registry.counter("daemon.sessions", outcome=outcome)
            instrument.inc(max(0.0, value - instrument.value))
        for op, value in self.lease_counters.items():
            instrument = self.registry.counter("daemon.lease_operations", op=op)
            instrument.inc(max(0.0, value - instrument.value))
        self.registry.gauge("daemon.active_sessions").set(len(self.sessions))
        self.registry.gauge("daemon.pending_leases").set(len(self.leases.pending()))
        if self.config.shard_index is not None:
            self.registry.gauge("daemon.shard_index").set(self.config.shard_index)
        self.registry.gauge("daemon.shard_count").set(self.config.shard_count)


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
    """Serves a :class:`ReservationService` over HTTP + WebSocket."""

    websocket_path = "/v1/events"

    def __init__(self, config: Optional[DaemonConfig] = None) -> None:
        self.config = config or DaemonConfig()
        super().__init__(
            self.config.host,
            self.config.port,
            drain_timeout=self.config.drain_timeout,
            access_log=self.config.access_log,
        )
        self.service = ReservationService(self.config)
        self._record_wire = self.service.flight.record_wire
        self._ws_tasks: set = set()
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

        WebSocket streams are closed and the observability handles
        uninstalled once the socket is gone.
        """
        await super().shutdown(drain=drain)
        for task in list(self._ws_tasks):
            task.cancel()
        if self._ws_tasks:
            await asyncio.gather(*self._ws_tasks, return_exceptions=True)
        self.service.close()

    # -- routes ------------------------------------------------------------

    def _health_fields(self) -> dict:
        return {
            "role": "shard",
            "shard": self.service.shard_label,
            "shard_index": self.service.config.shard_index,
            "shard_count": self.service.config.shard_count,
            "websocket_clients": self.stats.websocket_clients,
        }

    def _metrics_text(self) -> str:
        return self.service.metrics_exposition()

    async def _dispatch(
        self, request: _http.Request, parse_seconds: float, close: bool
    ) -> bytes:
        status, resolved = self.service.route(
            request.method, request.path, request.query, draining=self._draining
        )
        if status is not None:
            return _http.json_response_bytes(status, resolved, close=close)
        decode_started = _time.perf_counter()
        payload = request.json()
        parse_seconds += _time.perf_counter() - decode_started
        name = request.path.rsplit("/", 1)[1]
        return await self._admit(resolved, payload, name, parse_seconds, close)

    async def _admit(
        self,
        operation,
        payload: dict,
        name: str,
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
            async with self._lock:
                queue_wait = _time.perf_counter() - queue_started
                # Nothing yields between here and _planning_phases, so the
                # spans opened from this index on are this request's.
                first_span = self.service.flight.tracer.next_index
                with _trace.span(f"daemon.{name}") as span:
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

    # -- the event plane over WebSocket ------------------------------------

    async def _serve_websocket(
        self,
        request: _http.Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        if not key:
            writer.write(
                _http.json_response_bytes(400, {"error": "missing Sec-WebSocket-Key"})
            )
            await writer.drain()
            return
        writer.write(_http.websocket_handshake_bytes(key))
        await writer.drain()
        queue_size = None
        if "queue" in request.query:
            try:
                # One slot for the truncation marker plus one for a
                # payload lets a stalled consumer recover.
                queue_size = max(2, int(request.query["queue"]))
            except ValueError:
                queue_size = None
        subscriber = self.service.plane.subscribe(queue_size=queue_size)
        self.stats.websocket_clients += 1
        task = asyncio.current_task()
        if task is not None:
            self._ws_tasks.add(task)
        control = asyncio.create_task(self._ws_control_loop(reader))
        # A client close (or dead socket) must wake the sender even when
        # no events are flowing: closing the subscription queues the
        # close sentinel next_event() is waiting on.
        control.add_done_callback(
            lambda _task: self.service.plane.unsubscribe(subscriber)
        )
        try:
            while True:
                event = await subscriber.next_event()
                if event is None:
                    break
                writer.write(_http.encode_ws_frame(_http.encode_json(event)))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.service.plane.unsubscribe(subscriber)
            self.stats.websocket_clients -= 1
            if task is not None:
                self._ws_tasks.discard(task)
            control.cancel()
            try:
                await control
            except (Exception, asyncio.CancelledError):  # pragma: no cover
                pass
            try:
                writer.write(_http.encode_ws_frame(b"", opcode=_http.OP_CLOSE))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass

    async def _ws_control_loop(self, reader: asyncio.StreamReader) -> None:
        """Consume client frames; returns when the client closes."""
        while True:
            opcode, _payload = await _http.read_ws_frame(reader)
            if opcode == _http.OP_CLOSE:
                return
