"""The repo's one SLO concept: fleet-level burn-rate objectives.

A :class:`BurnRateSLO` declares a target ratio of good events (admission
success rate, or requests under a latency bound) and the SRE-style
multi-window burn-rate parameters the
:class:`~repro.obs.burn.BurnRateEngine` evaluates against scraped time
series.  Plain frozen data, loadable from an ``--slo-config`` document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

__all__ = ["BurnRateSLO"]


@dataclass(frozen=True)
class BurnRateSLO:
    """One fleet-level objective evaluated over scraped time series.

    ``kind`` picks the objective shape:

    * ``"availability"`` -- good/bad are counter *selectors* (see below);
      the error rate over a window is ``bad / (good + bad)``.
    * ``"latency"`` -- ``histogram`` names a scraped histogram metric
      (exposition name, e.g. ``repro_daemon_admission_phase_seconds``)
      and ``latency_bound`` the objective bound in the histogram's unit;
      the error rate is the windowed fraction of observations above the
      bound, merged across every target the selector matches.

    A *selector* is ``metric_name`` or ``metric_name{label="value",...}``:
    the metric name must match exactly and every given label must match;
    labels the selector does not mention are unconstrained, so one
    selector naturally sums across shards.  ``role`` additionally
    restricts which scrape targets contribute ("" = all).

    Burn rate is the SRE definition -- ``error_rate / (1 - target)`` --
    and an alert fires only when **both** the short and the long window
    burn exceed ``burn_threshold``, which is what makes the alert fast
    on real incidents yet quiet on blips.  ``budget_window`` is the
    rolling period the error budget is accounted over.
    """

    name: str
    kind: str
    target: float
    good: Tuple[str, ...] = ()
    bad: Tuple[str, ...] = ()
    histogram: str = ""
    latency_bound: float = 0.0
    role: str = ""
    short_window: float = 5.0
    long_window: float = 30.0
    budget_window: float = 60.0
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("BurnRateSLO needs a non-empty name")
        if self.kind not in ("availability", "latency"):
            raise ValueError(
                f"BurnRateSLO {self.name!r}: kind must be 'availability' or "
                f"'latency', got {self.kind!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"BurnRateSLO {self.name!r}: target must be in (0, 1), "
                f"got {self.target!r}"
            )
        if self.kind == "availability" and not (self.good and self.bad):
            raise ValueError(
                f"BurnRateSLO {self.name!r}: availability kind needs both "
                "good and bad counter selectors"
            )
        if self.kind == "latency" and (not self.histogram or self.latency_bound <= 0.0):
            raise ValueError(
                f"BurnRateSLO {self.name!r}: latency kind needs a histogram "
                "metric and a positive latency_bound"
            )
        if not 0.0 < self.short_window < self.long_window:
            raise ValueError(
                f"BurnRateSLO {self.name!r}: need 0 < short_window < "
                f"long_window, got {self.short_window!r} / {self.long_window!r}"
            )
        if self.budget_window < self.long_window:
            raise ValueError(
                f"BurnRateSLO {self.name!r}: budget_window must be >= "
                f"long_window, got {self.budget_window!r}"
            )
        if self.burn_threshold <= 0.0:
            raise ValueError(
                f"BurnRateSLO {self.name!r}: burn_threshold must be positive"
            )

    @property
    def error_budget(self) -> float:
        """The allowed error fraction, ``1 - target``."""
        return 1.0 - self.target

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "BurnRateSLO":
        """Build from one JSON object of an ``--slo-config`` document."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown BurnRateSLO fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = dict(doc)
        for tuple_field in ("good", "bad"):
            if tuple_field in kwargs:
                value = kwargs[tuple_field]
                if isinstance(value, str):
                    value = [value]
                kwargs[tuple_field] = tuple(value)  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]
