"""The QoS / success-rate trade-off extension (paper §4.3.1).

Each Resource Broker reports, besides the current availability
``r_avail``, an *Availability Change Index* ``alpha = r_avail /
r_avg_avail`` where ``r_avg_avail`` averages the availabilities the
broker reported during the last ``T`` time units (eq. 5).  After the
minimax Dijkstra run, every sink carries the psi and alpha of the
bottleneck resource on its shortest path.  The policy then is:

* if ``alpha_s0 >= 1`` (bottleneck availability trending up or flat) --
  keep the basic algorithm's choice ``s0``;
* if ``alpha_s0 < 1`` (trending down) -- choose the highest-ranked sink
  ``s`` with ``psi_s <= alpha_s0 * psi_s0``, i.e. back off the bottleneck
  contention by the ratio the availability has dropped.

The paper leaves the corner case "no sink satisfies the inequality"
open; we fall back to the reachable sink with the smallest psi (most
conservative feasible plan), which preserves the intent of reducing
bottleneck pressure.  ``s0`` itself satisfies the inequality whenever
``psi_s0 == 0``, so the fallback only triggers on genuinely contended
graphs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.dijkstra import minimax_dijkstra
from repro.core.plan import ReservationPlan
from repro.core.planner import _best_sink, _bottleneck_edge, _reachable_sinks, assemble_plan
from repro.core.qrg import QoSResourceGraph, QRGNode
from repro.obs import events as _events
from repro.obs import metrics as _metrics


class TradeoffPlanner:
    """Basic algorithm + the availability-trend trade-off policy."""

    name = "tradeoff"

    def __init__(self, tie_break: bool = True) -> None:
        self.tie_break = tie_break

    def plan(self, qrg: QoSResourceGraph) -> Optional[ReservationPlan]:
        """Compute a reservation plan for the QRG (None when infeasible)."""
        search = minimax_dijkstra(qrg.source_node, qrg.successors, tie_break=self.tie_break)
        sinks = _reachable_sinks(qrg, search)
        best = _best_sink(qrg, sinks)
        if best is None:
            return None

        # psi and alpha of the bottleneck on the shortest path to each sink.
        sink_psi: Dict[QRGNode, float] = {}
        sink_alpha: Dict[QRGNode, float] = {}
        for sink in sinks:
            edges = search.edges_to(sink)
            bottleneck = _bottleneck_edge(edges)
            sink_psi[sink] = search.distance[sink]
            sink_alpha[sink] = bottleneck.alpha

        alpha0 = sink_alpha[best]
        psi0 = sink_psi[best]
        if alpha0 >= 1.0:
            chosen = best
        else:
            budget = alpha0 * psi0
            candidates = [sink for sink in sinks if sink_psi[sink] <= budget]
            if candidates:
                chosen = _best_sink(qrg, candidates)
            else:
                # Fallback (see module docstring): most conservative plan,
                # ties resolved toward the better QoS level.
                ranking = qrg.service.ranking
                chosen = min(sinks, key=lambda s: (sink_psi[s], ranking.rank(s.label)))
        assert chosen is not None
        if chosen != best:
            registry = _metrics.active_registry()
            if registry is not None:
                registry.counter("planner.tradeoff_backoffs").inc()
            log = _events.active_event_log()
            if log is not None:
                log.emit(
                    "planner.tradeoff_backoff",
                    service=qrg.service.name,
                    from_level=best.label,
                    to_level=chosen.label,
                    psi_best=psi0,
                    psi_chosen=sink_psi[chosen],
                    alpha=alpha0,
                )
        node_path = search.path_to(chosen)
        return assemble_plan(qrg, chosen, node_path, search.edges_along(node_path))


def sink_report(qrg: QoSResourceGraph) -> List[Tuple[str, float, float]]:
    """(label, psi, alpha) per reachable sink, best rank first.

    Exposed for diagnostics and tests of the trade-off policy.
    """
    search = minimax_dijkstra(qrg.source_node, qrg.successors)
    rows: List[Tuple[str, float, float]] = []
    for sink in _reachable_sinks(qrg, search):
        bottleneck = _bottleneck_edge(search.edges_to(sink))
        rows.append((sink.label, search.distance[sink], bottleneck.alpha))
    ranking = qrg.service.ranking
    rows.sort(key=lambda row: ranking.rank(row[0]))
    return rows
