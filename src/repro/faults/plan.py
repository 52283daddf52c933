"""Deterministic fault schedules (the *what goes wrong, when* of PR 4).

The paper (§3-§4.2) assumes a fully reservation-enabled environment:
every QoSProxy and Resource Broker answers instantly and truthfully.
This module relaxes that assumption with a *seeded*, fully
reproducible fault model:

* :class:`FaultConfig` -- the knobs: per-message drop/delay rates,
  per-host crash and partition (Poisson) rates with outage durations,
  stale-report injection, and the recovery policy (retries, backoff,
  replans, lease TTL) the coordinator runs under an injector;
* :class:`FaultPlan` -- a concrete schedule: the crash/partition
  *windows* are materialised up front from the seed (one Poisson
  process per host per window kind), while per-message faults are
  decided online by the :class:`~repro.faults.injector.FaultInjector`
  from named seeded streams.

Determinism contract: a plan (and every decision the injector derives
from it) is a pure function of ``(config, seed, horizon, hosts)``.
Per-run seeds are derived with the existing
:func:`repro.sim.derive_run_seed` machinery (``SeedSequence`` spawn
keys), so parallel sweeps remain byte-identical to serial ones and the
fault streams never perturb the workload/planner streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import check_numbers
from repro.core.errors import ModelError
from repro.des.rng import RandomStreams

__all__ = [
    "FAULT_SEED_INDEX",
    "FaultConfig",
    "FaultPlan",
    "FaultWindow",
    "InjectedFault",
]

#: Spawn-key index reserved for deriving a run's fault seed from its
#: config seed via :func:`repro.sim.derive_run_seed` -- far outside the
#: small indexes batches use, so fault streams are independent of every
#: workload/planner stream yet reproducible from the one config seed.
FAULT_SEED_INDEX = 0xFA017


@dataclass(frozen=True)
class FaultConfig:
    """Fault rates and the recovery policy of the tolerant protocol.

    All rates default to zero: a default-constructed config is the
    *all-zero* plan.  A
    :class:`~repro.runtime.coordinator.ReservationCoordinator` whose
    injector runs it is required (and regression-tested) to behave
    byte-identically to one with no injector.
    """

    #: Probability that any one protocol message (phase-1 availability
    #: exchange, phase-3 reserve, its ack, or a rollback release) is lost.
    drop_rate: float = 0.0
    #: Probability a delivered message is delayed, and the mean of the
    #: exponential delay added (simulated time for a simulated session;
    #: passes at once for a synchronous ``establish``).
    delay_rate: float = 0.0
    delay_mean: float = 0.5
    #: Expected broker-host crashes per host per 60 TU, and how long a
    #: crashed host stays down before restarting.
    crash_rate: float = 0.0
    crash_duration: float = 20.0
    #: Expected network partitions per host per 60 TU, and their length.
    partition_rate: float = 0.0
    partition_duration: float = 8.0
    #: Probability a phase-1 availability report is served from a stale
    #: snapshot, and how old that snapshot is (TU).
    stale_rate: float = 0.0
    stale_age: float = 4.0
    # -- recovery policy -------------------------------------------------
    #: Bounded retries per phase per proxy before the attempt fails over.
    max_retries: int = 2
    #: How many times a failed establishment may re-plan (fresh
    #: observations, failed hosts excluded) before giving up.
    max_replans: int = 1
    #: Seeded exponential backoff: base * 2**attempt, capped, plus
    #: multiplicative jitter drawn from U[0, backoff_jitter].
    backoff_base: float = 0.25
    backoff_cap: float = 4.0
    backoff_jitter: float = 0.5
    #: Reserve/commit lease: an uncommitted (orphaned) segment is
    #: reclaimed by the reaper this many TU after it was reserved.
    lease_ttl: float = 30.0

    def __post_init__(self) -> None:
        check_numbers(self)
        for name in ("drop_rate", "delay_rate", "stale_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ModelError(f"{name} must be in [0, 1], got {value!r}")
        for name in ("crash_rate", "partition_rate"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in (
            "delay_mean",
            "crash_duration",
            "partition_duration",
            "stale_age",
            "backoff_base",
            "backoff_cap",
            "lease_ttl",
        ):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.max_retries < 0 or self.max_replans < 0:
            raise ModelError("max_retries and max_replans must be >= 0")
        if self.backoff_jitter < 0:
            raise ModelError(f"backoff_jitter must be >= 0, got {self.backoff_jitter!r}")

    @property
    def is_zero(self) -> bool:
        """True when no fault can ever fire (the byte-identity mode)."""
        return (
            self.drop_rate == 0.0
            and self.delay_rate == 0.0
            and self.crash_rate == 0.0
            and self.partition_rate == 0.0
            and self.stale_rate == 0.0
        )


@dataclass(frozen=True)
class FaultWindow:
    """One contiguous outage: ``host`` is unreachable in [start, end)."""

    kind: str  # "broker_crash" | "proxy_partition"
    host: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        """First instant at which the host answers again (restart)."""
        return self.start + self.duration

    def covers(self, instant: float) -> bool:
        """True while the outage is in effect at ``instant``."""
        return self.start <= instant < self.end


@dataclass(frozen=True)
class InjectedFault:
    """The record one injected fault leaves behind (and in the log)."""

    kind: str
    host: Optional[str]
    session: Optional[str]
    time: float
    detail: Tuple[Tuple[str, object], ...] = ()


@dataclass(frozen=True)
class FaultPlan:
    """A fully materialised, seeded fault schedule for one run."""

    config: FaultConfig
    seed: int
    horizon: float
    hosts: Tuple[str, ...] = ()
    windows: Tuple[FaultWindow, ...] = ()
    _by_host: Dict[str, Tuple[FaultWindow, ...]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        by_host: Dict[str, List[FaultWindow]] = {}
        for window in self.windows:
            by_host.setdefault(window.host, []).append(window)
        object.__setattr__(
            self,
            "_by_host",
            {host: tuple(sorted(ws, key=lambda w: w.start)) for host, ws in by_host.items()},
        )

    @classmethod
    def zero(cls) -> "FaultPlan":
        """The empty plan: nothing ever fails."""
        return cls(config=FaultConfig(), seed=0, horizon=0.0)

    @classmethod
    def generate(
        cls,
        config: FaultConfig,
        *,
        seed: int,
        horizon: float,
        hosts: Sequence[str],
    ) -> "FaultPlan":
        """Materialise the crash/partition windows from the seed.

        One Poisson arrival process per (host, window kind), each on its
        own named stream, so adding hosts or changing one rate never
        perturbs the other hosts' schedules.
        """
        if horizon < 0:
            raise ModelError(f"horizon must be >= 0, got {horizon!r}")
        streams = RandomStreams(seed)
        windows: List[FaultWindow] = []
        specs = (
            ("broker_crash", config.crash_rate, config.crash_duration),
            ("proxy_partition", config.partition_rate, config.partition_duration),
        )
        for host in sorted(hosts):
            for kind, rate, duration in specs:
                if rate <= 0:
                    continue
                mean_gap = 60.0 / rate
                at = streams.exponential(f"{kind}:{host}", mean_gap)
                while at < horizon:
                    windows.append(
                        FaultWindow(kind=kind, host=host, start=at, duration=duration)
                    )
                    # The next outage can only start once this one ended.
                    at += duration + streams.exponential(f"{kind}:{host}", mean_gap)
        return cls(
            config=config,
            seed=seed,
            horizon=float(horizon),
            hosts=tuple(sorted(hosts)),
            windows=tuple(sorted(windows, key=lambda w: (w.start, w.host, w.kind))),
        )

    @property
    def is_zero(self) -> bool:
        """True when neither windows nor per-message faults can fire."""
        return self.config.is_zero and not self.windows

    def windows_for(self, host: str) -> Tuple[FaultWindow, ...]:
        """The host's outage windows, ordered by start time."""
        return self._by_host.get(host, ())

    def active_window(self, host: str, instant: float) -> Optional[FaultWindow]:
        """The outage covering ``instant`` on ``host``, if any."""
        for window in self._by_host.get(host, ()):
            if window.covers(instant):
                return window
            if window.start > instant:
                break
        return None
