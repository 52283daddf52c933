"""SRE-style multi-window burn-rate alerting over scraped fleet metrics.

The online monitor (:mod:`repro.obs.monitor`) watches one run's event
stream for drift; this module answers the operator's question -- "is
the *cluster* spending its error budget too fast" -- using the standard
SRE construction:

* every :class:`~repro.obs.slo.BurnRateSLO` defines an error rate
  (failed admissions over all admissions, or the fraction of requests
  over a latency bound) measured from the
  :class:`~repro.obs.telemetry.TimeSeriesStore`'s windowed rollups;
* *burn rate* is that error rate divided by the budget ``1 - target``
  (burn 1.0 = spending the budget exactly as fast as allowed);
* an alert **fires** only when both the short- and the long-window burn
  exceed the SLO's threshold -- the short window makes detection fast,
  the long window keeps one bad scrape from paging -- and **resolves**
  once both drop back under it;
* the rolling *error budget* over ``budget_window`` is reported as a
  remaining fraction (1.0 = untouched, <= 0 = exhausted).

State transitions are emitted as events -- ``slo.burn_rate`` with
``state="firing"`` / ``state="resolved"`` and ``slo.budget_exhausted``
-- into the installed :class:`~repro.obs.events.EventLog` (or an
explicit one), so cluster alerts stitch into the same merged event
timeline and flight-recorder tooling as every other lifecycle event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import events as _events
from repro.obs.slo import BurnRateSLO
from repro.obs.telemetry import TimeSeriesStore

__all__ = ["BurnRateEngine", "SLOStatus", "default_cluster_slos"]


def default_cluster_slos(*, short_window: float = 6.0,
                         long_window: float = 20.0,
                         budget_window: float = 30.0) -> List[BurnRateSLO]:
    """The stock cluster SLOs the dashboard and CI smoke run with.

    * ``admission-availability`` -- of the requests the router decided,
      how many were *served* (established, or rejected on merit by
      admission control -- a QoS-aware "no" is the system working) vs
      failed for infrastructure reasons (unreachable/draining/erroring
      shards).  A ``kill -9``'d shard turns its slice of traffic into
      infra rejections, which is exactly what burns this budget.
    * ``admission-latency`` -- the fraction of shard-side planning
      phases that exceed 250 ms, merged across every shard.
    """
    return [
        BurnRateSLO(
            name="admission-availability",
            kind="availability",
            target=0.99,
            good=(
                'repro_cluster_admissions_total{verdict="established"}',
                'repro_cluster_admissions_total{verdict="rejected_merit"}',
            ),
            bad=('repro_cluster_admissions_total{verdict="rejected_infra"}',),
            role="cluster-router",
            short_window=short_window,
            long_window=long_window,
            budget_window=budget_window,
            burn_threshold=5.0,
        ),
        BurnRateSLO(
            name="admission-latency",
            kind="latency",
            target=0.95,
            histogram="repro_daemon_admission_phase_seconds",
            latency_bound=0.25,
            role="shard",
            short_window=short_window,
            long_window=long_window,
            budget_window=budget_window,
            burn_threshold=5.0,
        ),
    ]


@dataclass
class SLOStatus:
    """One SLO's evaluation at one instant (what the dashboard shows)."""

    slo: str
    kind: str
    target: float
    error_rate_short: float
    error_rate_long: float
    burn_short: float
    burn_long: float
    threshold: float
    budget_remaining: float
    state: str  # "ok" | "firing"
    firing_since: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "kind": self.kind,
            "target": self.target,
            "error_rate_short": self.error_rate_short,
            "error_rate_long": self.error_rate_long,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "threshold": self.threshold,
            "budget_remaining": self.budget_remaining,
            "state": self.state,
            "firing_since": self.firing_since,
        }


class _AlertState:
    __slots__ = ("firing", "firing_since", "budget_exhausted", "min_budget")

    def __init__(self) -> None:
        self.firing = False
        self.firing_since: Optional[float] = None
        self.budget_exhausted = False
        self.min_budget = 1.0


class BurnRateEngine:
    """Evaluates burn-rate SLOs against a store and emits alert events.

    Call :meth:`evaluate` after every scrape sweep (the scraper's
    ``on_scrape`` hook is the natural place).  Transitions emit events;
    steady states do not, so a firing alert produces exactly one
    ``slo.burn_rate`` event per incident plus one on resolution.
    """

    def __init__(self, slos: Sequence[BurnRateSLO],
                 store: TimeSeriesStore, *,
                 event_log: Optional[_events.EventLog] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate BurnRateSLO names: {names}")
        self.slos = list(slos)
        self.store = store
        self._event_log = event_log
        self._clock = clock
        self._states: Dict[str, _AlertState] = {
            slo.name: _AlertState() for slo in self.slos
        }
        self.last_statuses: List[SLOStatus] = []

    # -- measurement -------------------------------------------------------

    def _error_rate(self, slo: BurnRateSLO, window: float,
                    now: float) -> float:
        role = slo.role or None
        if slo.kind == "availability":
            good = self.store.counter_window_sum(
                list(slo.good), window=window, now=now, role=role
            )
            bad = self.store.counter_window_sum(
                list(slo.bad), window=window, now=now, role=role
            )
            total = good + bad
            return bad / total if total > 0 else 0.0
        rollup = self.store.histogram_window(
            slo.histogram, window=window, now=now, role=role
        )
        if rollup is None or rollup.count <= 0:
            return 0.0
        return rollup.fraction_above(slo.latency_bound)

    def _emit(self, kind: str, **attributes: object) -> None:
        if self._event_log is not None:
            self._event_log.emit(kind, **attributes)
        else:
            _events.emit(kind, **attributes)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> List[SLOStatus]:
        """One pass over every SLO; returns their statuses in order."""
        if now is None:
            now = self._clock()
        statuses: List[SLOStatus] = []
        for slo in self.slos:
            state = self._states[slo.name]
            rate_short = self._error_rate(slo, slo.short_window, now)
            rate_long = self._error_rate(slo, slo.long_window, now)
            rate_budget = self._error_rate(slo, slo.budget_window, now)
            budget = slo.error_budget
            burn_short = rate_short / budget
            burn_long = rate_long / budget
            budget_remaining = 1.0 - rate_budget / budget
            state.min_budget = min(state.min_budget, budget_remaining)
            should_fire = (
                burn_short > slo.burn_threshold
                and burn_long > slo.burn_threshold
            )
            if should_fire and not state.firing:
                state.firing = True
                state.firing_since = now
                self._emit(
                    "slo.burn_rate",
                    slo=slo.name, state="firing", slo_kind=slo.kind,
                    burn_short=round(burn_short, 4),
                    burn_long=round(burn_long, 4),
                    threshold=slo.burn_threshold,
                    budget_remaining=round(budget_remaining, 4),
                )
            elif state.firing and not should_fire:
                duration = (
                    now - state.firing_since
                    if state.firing_since is not None else 0.0
                )
                state.firing = False
                state.firing_since = None
                self._emit(
                    "slo.burn_rate",
                    slo=slo.name, state="resolved", slo_kind=slo.kind,
                    burn_short=round(burn_short, 4),
                    burn_long=round(burn_long, 4),
                    threshold=slo.burn_threshold,
                    budget_remaining=round(budget_remaining, 4),
                    firing_seconds=round(duration, 3),
                )
            if budget_remaining <= 0.0 and not state.budget_exhausted:
                state.budget_exhausted = True
                self._emit(
                    "slo.budget_exhausted",
                    slo=slo.name, slo_kind=slo.kind,
                    budget_remaining=round(budget_remaining, 4),
                    budget_window=slo.budget_window,
                )
            elif budget_remaining > 0.0:
                state.budget_exhausted = False
            statuses.append(SLOStatus(
                slo=slo.name, kind=slo.kind, target=slo.target,
                error_rate_short=rate_short, error_rate_long=rate_long,
                burn_short=burn_short, burn_long=burn_long,
                threshold=slo.burn_threshold,
                budget_remaining=budget_remaining,
                state="firing" if state.firing else "ok",
                firing_since=state.firing_since,
            ))
        self.last_statuses = statuses
        return statuses

    # -- introspection -----------------------------------------------------

    def min_budget(self, name: str) -> float:
        """The lowest budget fraction this SLO has seen (for recovery
        assertions: the budget *recovered* when the latest reading sits
        above this low-water mark)."""
        return self._states[name].min_budget

    def firing(self) -> List[str]:
        """Names of SLOs currently in the firing state."""
        return [name for name, state in self._states.items() if state.firing]
