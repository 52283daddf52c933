"""The paper's primary contribution: the QoS-Resource Model and planners.

Public surface:

* model building blocks -- :class:`QoSVector`, :class:`QoSLevel`,
  :class:`QoSRanking`, :class:`ResourceVector`,
  :class:`TabularTranslation`, :class:`ServiceComponent`,
  :class:`DependencyGraph`, :class:`DistributedService`;
* snapshot & graph -- :class:`AvailabilitySnapshot`,
  :func:`build_qrg`, :class:`QoSResourceGraph`;
* planners -- :class:`BasicPlanner`, :class:`RandomPlanner`,
  :class:`TradeoffPlanner`, :class:`TwoPassDagPlanner`,
  :class:`ExhaustiveDagPlanner`, the one name -> planner table
  (:data:`PLANNERS`, :func:`make_planner`) and the :func:`compute_plan`
  facade over it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.component import Binding, ServiceComponent
from repro.core.dagplan import ExhaustiveDagPlanner, TwoPassDagPlanner
from repro.core.dijkstra import minimax_dijkstra, enumerate_paths, path_bottleneck
from repro.core.errors import (
    AdmissionError,
    BrokerError,
    IncomparableError,
    InfeasibleError,
    ModelError,
    PlanningError,
    ReproError,
    TranslationError,
)
from repro.core.plan import ComponentAssignment, ReservationPlan
from repro.core.planner import BasicPlanner, RandomPlanner, feasible_end_to_end_levels
from repro.core.qos import QoSLevel, QoSRanking, QoSVector, concat_levels
from repro.core.qrg import QoSResourceGraph, QRGNode, build_qrg
from repro.core.resources import (
    CONTENTION_INDICES,
    AvailabilitySnapshot,
    ContentionReport,
    ResourceObservation,
    ResourceVector,
    headroom_contention_index,
    log_contention_index,
    ratio_contention_index,
)
from repro.core.service import DependencyGraph, DistributedService
from repro.core.tradeoff import TradeoffPlanner, sink_report
from repro.core.translation import (
    CallableTranslation,
    ScaledTranslation,
    TabularTranslation,
    TranslationFunction,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

__all__ = [
    "ALGORITHMS",
    "AdmissionError",
    "AvailabilitySnapshot",
    "BasicPlanner",
    "Binding",
    "BrokerError",
    "CONTENTION_INDICES",
    "CallableTranslation",
    "ComponentAssignment",
    "ContentionReport",
    "DependencyGraph",
    "DistributedService",
    "ExhaustiveDagPlanner",
    "IncomparableError",
    "InfeasibleError",
    "ModelError",
    "PLANNERS",
    "PlanningError",
    "QoSLevel",
    "QoSRanking",
    "QoSResourceGraph",
    "QoSVector",
    "QRGNode",
    "RandomPlanner",
    "ReproError",
    "ReservationPlan",
    "ResourceObservation",
    "ResourceVector",
    "ScaledTranslation",
    "ServiceComponent",
    "TabularTranslation",
    "TradeoffPlanner",
    "TranslationFunction",
    "TranslationError",
    "TwoPassDagPlanner",
    "build_qrg",
    "check_planner_fields",
    "compute_plan",
    "concat_levels",
    "enumerate_paths",
    "feasible_end_to_end_levels",
    "headroom_contention_index",
    "log_contention_index",
    "make_planner",
    "minimax_dijkstra",
    "path_bottleneck",
    "ratio_contention_index",
    "sink_report",
]


#: Algorithm name -> ``factory(tie_break, rng)``: the one place a name is
#: bound to a planner class.  ``rng`` is a zero-argument callable, so a
#: random stream is drawn only for the planner that consumes one.
PLANNERS = {
    "basic": lambda tie_break, rng: BasicPlanner(tie_break=tie_break),
    "tradeoff": lambda tie_break, rng: TradeoffPlanner(tie_break=tie_break),
    "random": lambda tie_break, rng: RandomPlanner(rng=rng()),
    "dag": lambda tie_break, rng: TwoPassDagPlanner(),
    "dag-exhaustive": lambda tie_break, rng: ExhaustiveDagPlanner(),
}

#: The chain planners of the paper's evaluation: what the simulator, the
#: daemon and the router accept as ``algorithm``.
ALGORITHMS = ("basic", "tradeoff", "random")


def check_planner_fields(algorithm: str, contention_index: str) -> None:
    """Refuse an unknown :data:`ALGORITHMS` or contention index name.

    The one check behind every config that names a planner: the
    simulator's, the daemon's and the cluster router's.
    """
    if algorithm not in ALGORITHMS:
        raise ModelError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    if contention_index not in CONTENTION_INDICES:
        raise ModelError(
            f"unknown contention index {contention_index!r}; "
            f"pick from {sorted(CONTENTION_INDICES)}"
        )


def make_planner(algorithm: str, tie_break: bool, streams):
    """The planner an :data:`ALGORITHMS` name stands for.

    The random planner draws from the ``random-planner`` stream of
    ``streams`` (a :class:`~repro.des.rng.RandomStreams`), so simulation,
    daemon and router built from one seed plan identically.
    """
    return PLANNERS[algorithm](tie_break, lambda: streams.stream("random-planner"))


def compute_plan(
    service: DistributedService,
    binding: Binding,
    snapshot: AvailabilitySnapshot,
    *,
    algorithm: str = "basic",
    source_label: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
    contention_index=ratio_contention_index,
) -> Optional[ReservationPlan]:
    """One-call facade: build the QRG and run the chosen planner.

    ``algorithm`` is one of ``"basic"``, ``"tradeoff"``, ``"random"``,
    ``"dag"`` (two-pass heuristic) or ``"dag-exhaustive"``.  Chain
    algorithms require a chain dependency graph; the DAG planners accept
    any DAG (including chains).  Returns None when no feasible end-to-end
    plan exists under the snapshot.
    """
    factory = PLANNERS.get(algorithm)
    if factory is None:
        raise PlanningError(f"unknown planning algorithm {algorithm!r}")
    if algorithm in ALGORITHMS and not service.graph.is_chain():
        raise PlanningError(
            f"algorithm {algorithm!r} requires a chain dependency graph; "
            "use 'dag' or 'dag-exhaustive' for DAG services"
        )
    qrg = build_qrg(
        service,
        binding,
        snapshot,
        source_label=source_label,
        contention_index=contention_index,
    )
    return factory(True, lambda: rng).plan(qrg)
