"""Seeded fault injection at the protocol boundaries.

The :class:`FaultInjector` is the single decision point a
:class:`~repro.runtime.coordinator.ReservationCoordinator` handed one
consults at every phase-1/phase-3 message boundary.  It combines

* the :class:`~repro.faults.plan.FaultPlan`'s pre-materialised
  crash/partition windows (checked against the DES clock), and
* online per-message draws (drop, delay, stale report) from named
  streams of a :class:`~repro.des.rng.RandomStreams` family seeded with
  the plan's seed -- never touching the workload/planner streams.

Every fault that actually *fires* is recorded on :attr:`injected` and
emitted as a ``fault.injected`` event (plus a ``faults.injected``
counter), so an exported trace document contains the complete fault
history of a run -- the acceptance invariant of PR 4.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.faults.plan import FaultConfig, FaultPlan, FaultWindow, InjectedFault
from repro.des.rng import RandomStreams
from repro.obs import events as _events
from repro.obs import metrics as _metrics

__all__ = ["FaultInjector", "MESSAGE_CHANNELS"]

#: The protocol messages a drop/delay draw can hit, in the order the
#: coordinator sends them.  Kept explicit so traces stay interpretable.
MESSAGE_CHANNELS = ("availability", "reserve", "ack", "release")

Clock = Callable[[], float]


class FaultInjector:
    """Decides, deterministically, which protocol interactions fail."""

    def __init__(
        self,
        plan: FaultPlan,
        *,
        clock: Optional[Clock] = None,
    ) -> None:
        self.plan = plan
        self.config: FaultConfig = plan.config
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._streams = RandomStreams(plan.seed)
        #: Every fault that fired, in causal order.
        self.injected: List[InjectedFault] = []

    @classmethod
    def disabled(cls) -> "FaultInjector":
        """An injector that never fires (the zero-fault identity mode)."""
        return cls(FaultPlan.zero())

    # -- bookkeeping -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when no fault can ever fire through this injector."""
        return self.plan.is_zero

    @property
    def now(self) -> float:
        """The injector's current clock reading."""
        return self._clock()

    def _record(
        self,
        kind: str,
        *,
        host: Optional[str] = None,
        session: Optional[str] = None,
        **detail: object,
    ) -> InjectedFault:
        """Record one fired fault and surface it to the obs layer."""
        fault = InjectedFault(
            kind=kind,
            host=host,
            session=session,
            time=self.now,
            detail=tuple(sorted(detail.items())),
        )
        self.injected.append(fault)
        _events.emit(
            "fault.injected",
            session=session,
            time=fault.time,
            fault=kind,
            host=host,
            **detail,
        )
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("faults.injected", kind=kind).inc()
        return fault

    def injected_counts(self) -> dict:
        """kind -> number of fired faults (sorted by kind)."""
        counts: dict = {}
        for fault in self.injected:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return dict(sorted(counts.items()))

    # -- decisions ---------------------------------------------------------

    def outage(self, host: str) -> Optional[FaultWindow]:
        """The crash/partition window covering ``host`` right now."""
        return self.plan.active_window(host, self.now)

    def message_fault(
        self, channel: str, host: str, session: Optional[str]
    ) -> Optional[str]:
        """Whether the message on ``channel`` to/from ``host`` is lost.

        Returns the fault kind (``broker_crash`` / ``proxy_partition`` /
        ``message_drop``) when the message never arrives, else None.
        Outage windows are consulted first (no randomness), then the
        per-message drop draw.
        """
        if channel not in MESSAGE_CHANNELS:
            raise ValueError(f"unknown message channel {channel!r}")
        window = self.outage(host)
        if window is not None:
            self._record(window.kind, host=host, session=session, channel=channel,
                         until=window.end)
            return window.kind
        if self.config.drop_rate > 0 and (
            float(self._streams.stream("drop").random()) < self.config.drop_rate
        ):
            self._record("message_drop", host=host, session=session, channel=channel)
            return "message_drop"
        return None

    def message_delay(self, channel: str, host: str, session: Optional[str]) -> float:
        """Extra delivery delay for a message that *did* arrive (TU)."""
        if self.config.delay_rate > 0 and (
            float(self._streams.stream("delay").random()) < self.config.delay_rate
        ):
            amount = self._streams.exponential("delay-amount", self.config.delay_mean)
            self._record(
                "message_delay", host=host, session=session, channel=channel,
                delay=amount,
            )
            return amount
        return 0.0

    def stale_age_for(self, host: str, session: Optional[str]) -> Optional[float]:
        """Age of a stale availability report, when that fault fires."""
        if self.config.stale_rate > 0 and (
            float(self._streams.stream("stale").random()) < self.config.stale_rate
        ):
            age = self.config.stale_age
            self._record("stale_report", host=host, session=session, age=age)
            return age
        return None

    def backoff(self, attempt: int) -> float:
        """Seeded exponential backoff with jitter for retry ``attempt``."""
        base = min(
            self.config.backoff_base * (2.0 ** attempt), self.config.backoff_cap
        )
        if self.config.backoff_jitter > 0:
            base *= 1.0 + self._streams.uniform(
                "backoff", 0.0, self.config.backoff_jitter
            )
        return base
