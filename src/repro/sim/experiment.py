"""Experiment configuration, single runs, and parameter sweeps (§5).

:func:`run_simulation` executes one full simulated run: build the
figure-9 grid, generate the Poisson workload, plan + reserve + hold +
release every session with the configured algorithm, and return the
collected metrics.  :func:`sweep` maps a config factory over a parameter
list (the generation-rate sweeps of figures 11-13).

Every batch executes through :func:`run_configs`, in this process or on
``workers`` pool processes.  Runs are pure functions of their config
(all randomness goes through named, seed-derived streams), so results
are byte-identical for every worker count.  ``REPRO_SWEEP_WORKERS=<n>``
in the environment is the default for calls that pass no ``workers=``.
"""

from __future__ import annotations

import os as _os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import PurePath
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import CONTENTION_INDICES, check_planner_fields, make_planner
from repro.core.errors import ModelError
from repro.des.engine import Environment
from repro.des.rng import RandomStreams
from repro.faults.injector import FaultInjector
from repro.faults.invariants import assert_capacity_conserved
from repro.faults.plan import FAULT_SEED_INDEX, FaultConfig, FaultPlan
from repro.obs import (
    ObservabilityConfig,
    ObservationSession,
    ObservationSummary,
    reset_worker_observability,
)
from repro.obs import events as _obs_events
from repro.obs.events import EventLog
from repro.obs.metrics import DEFAULT_PSI_BUCKETS, active_registry
from repro.obs.monitor import AdaptationPolicy, MonitorConfig, OnlineMonitor
from repro.runtime.coordinator import ReservationCoordinator
from repro.runtime.session import ServiceSession, SessionOutcome
from repro.sim.environment import GridEnvironment
from repro.sim.metrics import MetricsCollector, MetricsSnapshot, PathCensus
from repro.sim.services import (
    evaluation_family_keys,
    evaluation_services_for,
)
from repro.sim.staleness import StaleObservationModel
from repro.sim.workload import WorkloadGenerator, WorkloadSpec


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that defines one run; defaults match §5.1."""

    algorithm: str = "basic"
    seed: int = 0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    capacity_range: Tuple[float, float] = (1000.0, 4000.0)
    #: T of the tradeoff policy's averaging window (3 TU in §5's runs).
    trend_window: float = 3.0
    #: E of §5.2.4: observations may be up to E time units stale.
    staleness: float = 0.0
    #: Optional establishment latency (protocol round-trip, §4.2).
    latency: float = 0.0
    #: §5.2.5: compress requirement diversity to this max/min ratio.
    diversity_ratio: Optional[float] = None
    #: psi definition (paper footnote 2); one of CONTENTION_INDICES.
    contention_index: str = "ratio"
    #: The §4.1.2 Dijkstra tie-breaking rule (ablation switch).
    tie_break: bool = True
    #: Retain individual SessionOutcome records (memory-heavy).
    keep_outcomes: bool = False
    #: Span/metrics/event collection and export (None = not observed,
    #: the zero-overhead default).  See :mod:`repro.obs`.
    observability: Optional[ObservabilityConfig] = None
    #: Fault schedule + recovery policy (None = no injector; a zero
    #: FaultConfig gives the coordinator an injector that never fires,
    #: regression-tested byte-identical).  See :mod:`repro.faults`.
    faults: Optional[FaultConfig] = None
    #: Online monitoring plane: streaming estimators, drift detection
    #: and (with ``adapt=True``) §5 renegotiation of live sessions.
    #: None = no monitor subscribed, zero overhead.  See
    #: :mod:`repro.obs.monitor`.
    monitoring: Optional[MonitorConfig] = None

    def __post_init__(self) -> None:
        check_planner_fields(self.algorithm, self.contention_index)
        if self.staleness < 0 or self.latency < 0:
            raise ModelError("staleness and latency must be >= 0")

    def with_(self, **changes) -> "SimulationConfig":
        """Copy of this config with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class SimulationResult:
    """Metrics of one finished run."""

    config: SimulationConfig
    metrics: MetricsSnapshot
    paths: PathCensus
    wall_seconds: float
    #: The run's live observation session, as :func:`run_simulation`
    #: returns it (None unless the config enabled observability).
    #: :func:`run_configs` replaces it by :attr:`observation_summary`.
    observation: Optional[ObservationSession] = None
    #: Picklable digest of the observation (span totals + metrics
    #: snapshot), set by :meth:`detached` -- what :func:`run_configs`
    #: returns in place of the live session.
    observation_summary: Optional[ObservationSummary] = None
    #: Fault-injection digest of the run (None when the config carried
    #: no fault schedule): injected-fault counts by kind plus the number
    #: of orphaned leases the end-of-run reaper reclaimed.  Plain ints,
    #: so it survives the process boundary of parallel sweeps.
    fault_stats: Optional[Dict[str, int]] = None
    #: Digest of the online monitoring plane (None when the config
    #: carried no :class:`~repro.obs.monitor.MonitorConfig`): the
    #: :meth:`OnlineMonitor.report` document -- estimators per broker,
    #: drift counts and the adaptation outcomes.  Plain JSON types,
    #: so it survives the process boundary of parallel sweeps.
    monitor_stats: Optional[Dict[str, object]] = None

    @property
    def success_rate(self) -> float:
        """Fraction of attempted sessions successfully established."""
        return self.metrics.success_rate

    @property
    def avg_qos_level(self) -> float:
        """Mean numeric QoS level over successful sessions."""
        return self.metrics.avg_qos_level

    def detached(self) -> "SimulationResult":
        """A picklable copy safe to ship across a process boundary.

        The live :class:`ObservationSession` (tracer + registry object
        graphs) is replaced by its :class:`ObservationSummary`; all
        exports configured on the run have already been written inside
        the worker by then.  A result without an observation is returned
        unchanged.
        """
        if self.observation is None:
            return self
        return replace(
            self,
            observation=None,
            observation_summary=self.observation.summarize(),
        )


def _record_session_metrics(outcome: SessionOutcome) -> None:
    """Per-session outcome counters/histograms (no-op when disabled)."""
    registry = active_registry()
    if registry is None:
        return
    if outcome.success:
        registry.counter("session.admitted", service=outcome.service).inc()
        if outcome.plan is not None and outcome.plan.end_to_end_rank > 0:
            # Admitted, but below the service's top end-to-end level --
            # the trade-off/feasibility degradation the paper trades
            # against success rate.
            registry.counter("session.degraded", service=outcome.service).inc()
    else:
        registry.counter(
            "session.rejected", service=outcome.service, reason=outcome.reason
        ).inc()
    if outcome.plan is not None:
        registry.histogram("session.psi", buckets=DEFAULT_PSI_BUCKETS).observe(
            outcome.plan.psi
        )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Execute one run and return its metrics.

    The run is fully deterministic given ``config`` (all randomness goes
    through named, seeded streams).  With ``config.observability`` set,
    the run collects a span trace and a metrics registry (attached to
    the result as ``observation``) and writes any configured export
    paths (JSON trace, CSV metrics, text summary) before returning.
    """
    if config.observability is not None:
        observation = ObservationSession(config.observability)
        with observation:
            result = _run_simulation(config, observation)
        observation.export(
            meta={
                "algorithm": config.algorithm,
                "seed": config.seed,
                "rate_per_60tu": config.workload.rate_per_60tu,
                "horizon": config.workload.horizon,
                "wall_seconds": result.wall_seconds,
            }
        )
        return result
    return _run_simulation(config, None)


def _run_simulation(
    config: SimulationConfig, observation: Optional[ObservationSession]
) -> SimulationResult:
    started = _time.perf_counter()
    env = Environment()
    streams = RandomStreams(config.seed)

    services = evaluation_services_for(config.diversity_ratio)

    grid = GridEnvironment(
        env,
        streams,
        services=services,
        capacity_range=config.capacity_range,
        trend_window=config.trend_window,
    )
    injector: Optional[FaultInjector] = None
    if config.faults is not None:
        # The fault seed derives from the run seed through a reserved
        # spawn-key index, so fault streams are independent of every
        # workload/planner stream and parallel sweeps stay byte-identical.
        plan = FaultPlan.generate(
            config.faults,
            seed=derive_run_seed(config.seed, FAULT_SEED_INDEX),
            horizon=config.workload.horizon,
            hosts=sorted(grid.proxies),
        )
        injector = FaultInjector(plan, clock=lambda: env.now)
        grid.coordinator = ReservationCoordinator(
            grid.registry, grid.model_store, grid.proxies, injector=injector, env=env
        )
    planner = make_planner(config.algorithm, config.tie_break, streams)
    contention_index = CONTENTION_INDICES[config.contention_index]
    metrics = MetricsCollector(family_of_service=evaluation_family_keys())
    metrics.keep_outcomes = config.keep_outcomes
    generator = WorkloadGenerator(config.workload, streams)
    stale_model = StaleObservationModel(
        config.staleness, streams.stream("staleness"), clock=lambda: env.now
    )

    monitor: Optional[OnlineMonitor] = None
    policy: Optional[AdaptationPolicy] = None
    # What the run installs and subscribes, undone when it ends.
    handles = ExitStack()
    if config.monitoring is not None:
        stream_log = _obs_events.active_event_log()
        if stream_log is None:
            # The monitor feeds off the event stream even when the run
            # is not otherwise observed; a capacity-1 private log keeps
            # storage bounded (subscribers see every event regardless).
            stream_log = handles.enter_context(
                _obs_events.event_logging(EventLog(capacity=1))
            )
        if config.monitoring.adapt:
            policy = AdaptationPolicy(grid.coordinator)
        monitor = OnlineMonitor(config.monitoring, log=stream_log, policy=policy)
        stream_log.subscribe(monitor.on_event)
        handles.callback(stream_log.unsubscribe, monitor.on_event)

    def record_outcome(outcome: SessionOutcome) -> None:
        """Feed the run's collector and the observability layer."""
        if policy is not None:
            outcome = policy.finalize_outcome(outcome)
            policy.unwatch(outcome.session_id)
        if monitor is not None:
            monitor.session_closed(outcome.session_id)
        metrics.record(outcome)
        _record_session_metrics(outcome)

    def arrivals():
        """Drive the Poisson arrival process on the DES engine."""
        for request in generator.generate():
            if request.arrival_time > env.now:
                yield env.timeout(request.arrival_time - env.now)
            binding = grid.binding_for(request.service, request.domain)
            component_hosts = grid.component_hosts_for(request.service, request.domain)
            if policy is not None:
                policy.watch(
                    request.session_id,
                    service_name=request.service,
                    binding=binding,
                    planner=planner,
                    component_hosts=component_hosts,
                    demand_scale=request.demand_scale,
                )
            session = ServiceSession(
                env,
                grid.coordinator,
                request.session_id,
                request.service,
                binding,
                planner,
                request.duration,
                demand_scale=request.demand_scale,
                component_hosts=component_hosts,
                observed_at=stale_model.schedule_for_session(),
                latency=config.latency,
                contention_index=contention_index,
                on_finish=record_outcome,
            )
            env.process(session.run())

    env.process(arrivals())
    with handles:
        env.run()

    fault_stats: Optional[Dict[str, int]] = None
    if injector is not None:
        # The lease watchdogs reclaim expired orphans on time; anything
        # still pending (TTL beyond the last event) is force-reaped so
        # the quiescence invariant below sees clean books.
        assert_capacity_conserved(grid.registry, grid.proxies)
        grid.coordinator.reap_orphans(force=True)
        fault_stats = dict(injector.injected_counts())
        fault_stats["orphans_reaped"] = grid.coordinator.leases_reaped

    monitor_stats: Optional[Dict[str, object]] = None
    if monitor is not None:
        monitor_stats = monitor.report()
        if observation is not None:
            observation.monitoring = monitor_stats

    # Every session released everything it reserved -- a structural
    # invariant of the brokers; violation means an accounting bug.
    grid.registry.assert_quiescent()

    return SimulationResult(
        config=config,
        metrics=metrics.snapshot(),
        paths=metrics.paths,
        wall_seconds=_time.perf_counter() - started,
        observation=observation,
        fault_stats=fault_stats,
        monitor_stats=monitor_stats,
    )


# -- batches -------------------------------------------------------------------

#: Environment variable holding the process-wide default worker count of
#: :func:`run_configs` (unset = 1; ``repro-reproduce --workers`` sets it,
#: the CI smoke of the pool path sets it to 2).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


def derive_run_seed(base_seed: int, index: int) -> int:
    """Deterministic per-run seed for run ``index`` of a batch.

    Derived through :class:`numpy.random.SeedSequence` spawn keys so the
    seeds are statistically independent of each other *and* of the base
    seed, yet a pure function of ``(base_seed, index)`` -- the property
    that makes parallel batches byte-identical to serial ones.
    """
    import numpy as np

    sequence = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(sequence.generate_state(1)[0])


def _execute_detached(config: SimulationConfig) -> SimulationResult:
    """Run one config, return a picklable result.

    Exports (JSON trace / CSV metrics / text summary) happen inside
    :func:`run_simulation`, i.e. inside the process that ran the config,
    before the live observation is replaced by its summary.
    """
    return run_simulation(config).detached()


#: The batch a pool worker operates on, installed once per worker by
#: :func:`_batch_worker_initializer`.  Tasks then name their config by
#: *index*, so the per-task IPC payload is one integer instead of a
#: pickled config per task.
_WORKER_CONFIGS: Optional[List[SimulationConfig]] = None


def _batch_worker_initializer(configs: Sequence[SimulationConfig]) -> None:
    """Install the read-only config batch in a pool worker (runs once).

    The batch crosses the process boundary exactly once per worker, via
    the pool's ``initargs``.  A forked worker also inherits the parent's
    module-level observability handles (active tracer/registry and
    session marker); clearing them gives each worker isolated, no-op
    handles until its own runs install their sessions.
    """
    global _WORKER_CONFIGS
    _WORKER_CONFIGS = list(configs)
    reset_worker_observability()


def _execute_batch_index(index: int) -> SimulationResult:
    """Worker entry point of the batched pool: run config ``index``."""
    assert _WORKER_CONFIGS is not None, "worker initializer did not run"
    return _execute_detached(_WORKER_CONFIGS[index])


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(_os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return _os.cpu_count() or 1


def _derive_export_paths(configs: Sequence[SimulationConfig]) -> List[SimulationConfig]:
    """Give each run of a batch its own export files.

    A batch whose configs share export paths would have every run
    overwrite the previous run's files (in-process) or race on them
    (pool).  For batches of more than one config, ``.runNNN`` is
    inserted before each path's extension -- identically for every
    worker count, so all produce the same files and, via the rewritten
    configs, byte-identical results.
    """
    if len(configs) <= 1:
        return list(configs)

    def rewrite(path: Optional[str], index: int) -> Optional[str]:
        if not path:
            return path
        pure = PurePath(path)
        return str(pure.with_name(f"{pure.stem}.run{index:03d}{pure.suffix}"))

    derived: List[SimulationConfig] = []
    for index, config in enumerate(configs):
        obs = config.observability
        if obs is None or not (obs.trace_path or obs.metrics_path or obs.summary_path):
            derived.append(config)
            continue
        derived.append(
            config.with_(
                observability=replace(
                    obs,
                    trace_path=rewrite(obs.trace_path, index),
                    metrics_path=rewrite(obs.metrics_path, index),
                    summary_path=rewrite(obs.summary_path, index),
                )
            )
        )
    return derived


def effective_workers(batch_size: int, workers: Optional[int] = None) -> int:
    """The process count a batch of ``batch_size`` runs would execute on.

    ``workers=None`` reads ``REPRO_SWEEP_WORKERS`` (default 1).  The
    count is clamped to the batch size and to the CPUs this process may
    run on: oversubscribing a small machine trades cache locality for
    context switches and was the dominant cost of the committed 0.85x
    pool regression.
    """
    if workers is None:
        workers = int(_os.environ.get(WORKERS_ENV) or 1)
    return min(workers, batch_size, _available_cpus())


def run_configs(
    configs: Sequence[SimulationConfig], *, workers: Optional[int] = None
) -> List[SimulationResult]:
    """Execute a batch of configs, in this process or on a process pool.

    The one executor: every sweep builds its config list and hands it
    here, so every worker count sees the exact same configs (including
    the per-run export-path derivation) and produces byte-identical
    metrics.  Results are always detached -- exports are written by
    whichever process ran the config, and a picklable
    :class:`~repro.obs.ObservationSummary` comes back in place of the
    live session -- so their shape never depends on the worker count.

    One effective worker (see :func:`effective_workers`) means no pool at
    all.  More run a pool in which the batch crosses the process
    boundary once per *worker* (via the pool initializer), not once per
    task, and indices are dispatched in chunks sized to give each worker
    ~4 of them: dynamic load balancing without per-task IPC.
    """
    configs = _derive_export_paths(configs)
    pool_size = effective_workers(len(configs), workers)
    if pool_size <= 1:
        return [_execute_detached(config) for config in configs]
    with ProcessPoolExecutor(
        max_workers=pool_size,
        initializer=_batch_worker_initializer,
        initargs=(configs,),
    ) as pool:
        return list(
            pool.map(
                _execute_batch_index,
                range(len(configs)),
                chunksize=max(1, len(configs) // (pool_size * 4)),
            )
        )


# -- sweeps -------------------------------------------------------------------


def sweep(
    base: SimulationConfig,
    parameter: str,
    values: Sequence,
    *,
    workload_field: bool = False,
    workers: Optional[int] = None,
) -> List[SimulationResult]:
    """Run ``base`` once per value of ``parameter``.

    ``workload_field=True`` varies a field of the nested
    :class:`WorkloadSpec` (e.g. ``rate_per_60tu``) instead of the config
    itself.  ``workers`` is :func:`run_configs`'s.
    """
    configs: List[SimulationConfig] = []
    for value in values:
        if workload_field:
            configs.append(base.with_(workload=replace(base.workload, **{parameter: value})))
        else:
            configs.append(base.with_(**{parameter: value}))
    return run_configs(configs, workers=workers)


def rate_sweep(
    algorithms: Iterable[str],
    rates: Sequence[float],
    *,
    base: Optional[SimulationConfig] = None,
    workers: Optional[int] = None,
) -> Dict[str, List[SimulationResult]]:
    """The figures' common shape: one success/QoS series per algorithm.

    All ``len(algorithms) * len(rates)`` runs form one batch, so a pool
    overlaps runs across algorithms, not just within one series.
    """
    base = base if base is not None else SimulationConfig()
    algorithms = list(algorithms)
    configs: List[SimulationConfig] = []
    for algorithm in algorithms:
        for rate in rates:
            configs.append(
                base.with_(
                    algorithm=algorithm,
                    workload=replace(base.workload, rate_per_60tu=rate),
                )
            )
    results = run_configs(configs, workers=workers)
    out: Dict[str, List[SimulationResult]] = {}
    for position, algorithm in enumerate(algorithms):
        out[algorithm] = results[position * len(rates) : (position + 1) * len(rates)]
    return out
