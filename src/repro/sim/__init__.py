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

The experiment layer (``experiment``, ``metrics``, ``staleness``) is
imported on first use of one of its names: it brings
``multiprocessing`` and the fault and monitoring planes, which a
serving daemon never runs.
"""

from repro.sim.environment import GridEnvironment
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
from repro.sim.workload import (
    SessionArrival,
    SessionClassifier,
    WorkloadGenerator,
    WorkloadSpec,
)

#: Names of the experiment layer, resolved lazily (PEP 562) from the
#: submodule that defines them.
_LAZY_EXPERIMENT = {
    "ClassBreakdown": "repro.sim.metrics",
    "MetricsCollector": "repro.sim.metrics",
    "PathCensus": "repro.sim.metrics",
    "SimulationConfig": "repro.sim.experiment",
    "SimulationResult": "repro.sim.experiment",
    "StaleObservationModel": "repro.sim.staleness",
    "derive_run_seed": "repro.sim.experiment",
    "effective_workers": "repro.sim.experiment",
    "rate_sweep": "repro.sim.experiment",
    "run_configs": "repro.sim.experiment",
    "run_simulation": "repro.sim.experiment",
    "sweep": "repro.sim.experiment",
}

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


def __getattr__(name: str):
    target = _LAZY_EXPERIMENT.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
