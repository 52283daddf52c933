"""The paper's evaluation environment (§5).

* :mod:`repro.sim.services` -- the figure-10 service families (QoS
  levels + requirement tables) and the §5.2.5 diversity compressor;
* :mod:`repro.sim.environment` -- the figure-9 Grid: brokers, proxies,
  routing, session bindings;
* :mod:`repro.sim.workload` -- Poisson session generation with the
  paper's heterogeneity (normal/fat, short/long, popularity drift);
* :mod:`repro.sim.staleness` -- the §5.2.4 inaccurate-observation model;
* :mod:`repro.sim.metrics` -- success rate, QoS levels, per-class
  breakdowns, path census, bottleneck census;
* :mod:`repro.sim.experiment` -- configuration, single runs, sweeps.
"""

from repro.sim.environment import GridEnvironment
from repro.sim.experiment import (
    SimulationConfig,
    SimulationResult,
    derive_run_seed,
    effective_workers,
    rate_sweep,
    run_configs,
    run_simulation,
    sweep,
)
from repro.sim.metrics import ClassBreakdown, MetricsCollector, PathCensus
from repro.sim.services import (
    FAMILY_A,
    FAMILY_B,
    ServiceFamily,
    build_evaluation_services,
    compress_diversity,
    evaluation_family_keys,
    evaluation_services_for,
    family_of_service,
)
from repro.sim.staleness import StaleObservationModel
from repro.sim.workload import (
    SessionArrival,
    SessionClassifier,
    WorkloadGenerator,
    WorkloadSpec,
)

__all__ = [
    "ClassBreakdown",
    "FAMILY_A",
    "FAMILY_B",
    "GridEnvironment",
    "MetricsCollector",
    "PathCensus",
    "ServiceFamily",
    "SessionArrival",
    "SessionClassifier",
    "SimulationConfig",
    "SimulationResult",
    "StaleObservationModel",
    "WorkloadGenerator",
    "WorkloadSpec",
    "build_evaluation_services",
    "compress_diversity",
    "derive_run_seed",
    "effective_workers",
    "evaluation_family_keys",
    "evaluation_services_for",
    "family_of_service",
    "rate_sweep",
    "run_configs",
    "run_simulation",
    "sweep",
]
