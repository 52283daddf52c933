"""Advance (book-ahead) reservations -- the paper's stated next step.

Section 6 of the paper: "An advance resource reservation mechanism is
proposed in [12] ... One of our next steps is to extend our
multi-resource reservation framework to support advance reservations."
This module provides that extension:

* :class:`TimelineBroker` -- a broker whose reservations occupy a time
  *interval* ``[start, end)`` instead of "from now until released".
  Availability is a piecewise-constant function of time; admission
  checks the *minimum* availability over the requested interval.
* :meth:`AdvanceRegistry.snapshot` -- builds an
  :class:`~repro.core.resources.AvailabilitySnapshot` for a future
  window, so the unchanged planning algorithms (basic/tradeoff/DAG)
  plan *advance* multi-resource reservations with zero modification --
  exactly the compositionality the paper's QRG design allows.

The Availability Change Index of an advance broker compares the
requested window against the broker's recent report history, like the
immediate brokers do (eq. 5).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.brokers.base import Clock
from repro.brokers.history import AvailabilityHistory
from repro.core.errors import AdmissionError, BrokerError
from repro.core.resources import AvailabilitySnapshot, ResourceObservation

_advance_ids = itertools.count(1)


@dataclass(frozen=True)
class AdvanceReservation:
    """A granted book-ahead reservation for ``[start, end)``."""

    reservation_id: int
    resource_id: str
    amount: float
    session_id: str
    start: float
    end: float
    made_at: float


class TimelineBroker:
    """Admission-controlled capacity over a time axis.

    The committed load is a step function maintained as a sorted list of
    breakpoints; queries and admissions are O(log n + window span) in
    the number of breakpoints.
    """

    def __init__(
        self,
        resource_id: str,
        capacity: float,
        *,
        clock: Optional[Clock] = None,
        trend_window: float = 3.0,
    ) -> None:
        if capacity <= 0:
            raise BrokerError(f"capacity of {resource_id!r} must be positive")
        self.resource_id = resource_id
        self._capacity = float(capacity)
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        # breakpoints: times[i] is where load becomes loads[i]; the load
        # before times[0] is 0.  Invariant: strictly increasing times.
        self._times: List[float] = []
        self._loads: List[float] = []
        self._reservations: Dict[int, AdvanceReservation] = {}
        self.history = AvailabilityHistory(window=trend_window)

    # -- queries -----------------------------------------------------------

    @property
    def capacity(self) -> float:
        """Total capacity of this resource."""
        return self._capacity

    def load_at(self, when: float) -> float:
        """Committed load at instant ``when``."""
        index = bisect.bisect_right(self._times, when) - 1
        return self._loads[index] if index >= 0 else 0.0

    def available_at(self, when: float) -> float:
        """Availability at one instant."""
        return self._capacity - self.load_at(when)

    def available_over(self, start: float, end: float) -> float:
        """Minimum availability across ``[start, end)``."""
        self._check_window(start, end)
        worst = self.load_at(start)
        left = bisect.bisect_right(self._times, start)
        right = bisect.bisect_left(self._times, end)
        for index in range(left, right):
            worst = max(worst, self._loads[index])
        return self._capacity - worst

    def observe_window(self, start: float, end: float) -> ResourceObservation:
        """Availability + change index for a future window (eq. 5 analogue)."""
        available = self.available_over(start, end)
        alpha = self.history.alpha(self._clock(), available)
        return ResourceObservation(available=available, alpha=alpha, observed_at=self._clock())

    def outstanding(self) -> int:
        """Number of live reservations (diagnostics / invariants)."""
        return len(self._reservations)

    # -- booking -------------------------------------------------------------

    def reserve(
        self, amount: float, session_id: str, start: float, end: float
    ) -> AdvanceReservation:
        """Book ``amount`` over ``[start, end)`` or raise AdmissionError."""
        if not 0 < amount < math.inf:  # also refuses nan: every comparison is False
            raise BrokerError(
                f"reservation amount must be finite and positive, got {amount!r}"
            )
        self._check_window(start, end)
        if amount > self.available_over(start, end) + 1e-9:
            raise AdmissionError(
                f"{self.resource_id}: {amount:g} over [{start:g}, {end:g}) exceeds "
                f"window availability {self.available_over(start, end):g}",
                resource_id=self.resource_id,
            )
        self._apply(start, end, amount)
        reservation = AdvanceReservation(
            reservation_id=next(_advance_ids),
            resource_id=self.resource_id,
            amount=float(amount),
            session_id=session_id,
            start=float(start),
            end=float(end),
            made_at=self._clock(),
        )
        self._reservations[reservation.reservation_id] = reservation
        return reservation

    def cancel(self, reservation: AdvanceReservation) -> None:
        """Cancel a booking, returning its capacity over its window."""
        stored = self._reservations.pop(reservation.reservation_id, None)
        if stored is None:
            raise BrokerError(
                f"{self.resource_id}: unknown advance reservation "
                f"{reservation.reservation_id} (double cancel?)"
            )
        self._apply(stored.start, stored.end, -stored.amount)

    # -- internals ------------------------------------------------------------

    def _check_window(self, start: float, end: float) -> None:
        if not end > start:
            raise BrokerError(f"empty reservation window [{start!r}, {end!r})")

    def _ensure_breakpoint(self, when: float) -> int:
        """Index of the breakpoint at exactly ``when``, inserting if needed."""
        index = bisect.bisect_left(self._times, when)
        if index < len(self._times) and self._times[index] == when:
            return index
        previous_load = self._loads[index - 1] if index > 0 else 0.0
        self._times.insert(index, when)
        self._loads.insert(index, previous_load)
        return index

    def _apply(self, start: float, end: float, delta: float) -> None:
        first = self._ensure_breakpoint(start)
        last = self._ensure_breakpoint(end)
        for index in range(first, last):
            self._loads[index] += delta
        self._coalesce()

    def _coalesce(self) -> None:
        """Drop redundant breakpoints (load equal to the preceding one).

        The implicit load before the first breakpoint is 0, so leading
        zero-load breakpoints are redundant too.
        """
        times: List[float] = []
        loads: List[float] = []
        previous = 0.0
        for when, load in zip(self._times, self._loads):
            if abs(load - previous) > 1e-12:
                times.append(when)
                loads.append(load)
                previous = load
        self._times, self._loads = times, loads

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimelineBroker {self.resource_id} capacity={self._capacity:g} "
            f"breakpoints={len(self._times)}>"
        )


class AdvanceRegistry:
    """Directory of timeline brokers + windowed snapshots/transactions."""

    def __init__(self) -> None:
        self._brokers: Dict[str, TimelineBroker] = {}

    def register(self, broker: TimelineBroker) -> None:
        """Register one entry; duplicate registration raises."""
        if broker.resource_id in self._brokers:
            raise BrokerError(f"duplicate advance broker for {broker.resource_id!r}")
        self._brokers[broker.resource_id] = broker

    def broker(self, resource_id: str) -> TimelineBroker:
        """Look up the broker for ``resource_id``; raises if unknown."""
        try:
            return self._brokers[resource_id]
        except KeyError:
            raise BrokerError(f"no advance broker for resource {resource_id!r}") from None

    def __contains__(self, resource_id: str) -> bool:
        return resource_id in self._brokers

    def snapshot(self, resource_ids: Iterable[str], start: float, end: float) -> AvailabilitySnapshot:
        """Windowed availability snapshot -- feed it straight to build_qrg."""
        return AvailabilitySnapshot(
            {rid: self.broker(rid).observe_window(start, end) for rid in resource_ids}
        )

    def reserve_plan(self, plan, session_id: str, start: float, end: float) -> List[AdvanceReservation]:
        """Book an entire reservation plan's demand over a window, atomically.

        On *any* failure the bookings made so far are cancelled and the
        exception propagates.
        """
        made: List[AdvanceReservation] = []
        demand = plan.demand
        try:
            for resource_id in sorted(demand):
                made.append(
                    self.broker(resource_id).reserve(demand[resource_id], session_id, start, end)
                )
        except BaseException:
            self.cancel_all(reversed(made))
            raise
        return made

    def cancel_all(self, reservations: Iterable[AdvanceReservation]) -> None:
        """Cancel several bookings."""
        for reservation in reservations:
            self.broker(reservation.resource_id).cancel(reservation)
