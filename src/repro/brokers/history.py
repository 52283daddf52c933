"""Availability history: trend tracking and retrospective observation.

Supports two distinct needs of the paper's evaluation:

* **Availability Change Index** (§4.3.1, eq. 5): the broker keeps an
  average ``r_avg_avail`` of the availability values *reported* during
  the past ``T`` time units; ``alpha = r_avail / r_avg_avail`` reflects
  the trend.  The mean needs only the window's report count and exact
  sum, so the report log keeps one entry per distinct report *instant*
  (its report count and exact integer sum), not one per report: a
  report at the newest entry's instant merges into it, and an entry
  leaves the window whole.  A clock that never advances (the daemon's)
  therefore holds one entry for ever, and a report costs the same after
  a million reports as after three.  The sums are integers, so the mean
  is the correctly rounded quotient of the true sum -- a window whose
  reports all equal the current availability yields exactly 1.0, which
  §4.3's planner branches on.
* **Stale observations** (§5.2.4): the inaccuracy experiments observe a
  resource's availability as it was up to ``E`` time units ago, so the
  true availability must be reconstructible for any past instant.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.errors import BrokerError


class AvailabilityHistory:
    """Report log (for alpha) + change log (for retrospective queries)."""

    def __init__(self, window: float = 3.0) -> None:
        """``window`` is the paper's ``T`` (3 time units in §5's runs)."""
        if window <= 0:
            raise BrokerError(f"averaging window must be positive, got {window!r}")
        self.window = float(window)
        #: One ``(time, reports, sum, bits)`` entry per report instant in
        #: the window, oldest first: ``sum`` is the exact sum of that
        #: instant's reports as an integer count of 2**-bits.
        self._reports: Deque[Tuple[float, int, int, int]] = deque()
        #: Reports in ``_reports`` and the exact sum of their values, as an
        #: integer count of 2**-_sum_bits.  A float running sum would drift
        #: (entries leave in another order than they rounded in) and a flat
        #: window would stop reading 1.0.  ``_sum_bits`` is the finest
        #: binary exponent any report has needed so far (no entry's
        #: ``bits`` exceeds it); it never exceeds 1074.
        self._report_count = 0
        self._report_sum = 0
        self._sum_bits = 0
        self._change_times: List[float] = []
        self._change_values: List[float] = []

    # -- alpha (availability change index) --------------------------------

    def alpha(self, now: float, available: float) -> float:
        """Report ``available`` at ``now`` and return the change index.

        The index compares the current availability against the mean of
        the values reported in the window *before* this report (the paper
        updates the average after each report).  Returns 1.0 when there
        is no history yet -- "unchanged".  A non-finite report is refused
        with :class:`BrokerError` and leaves the window as it was.
        """
        reports = self._reports
        cutoff = now - self.window
        while reports and reports[0][0] < cutoff:
            _when, count, total, bits = reports.popleft()
            self._report_count -= count
            self._report_sum -= total << (self._sum_bits - bits)
        if reports:
            # int / int is correctly rounded: the mean is the double
            # nearest the true mean, whatever the length of the window.
            mean = self._report_sum / (self._report_count << self._sum_bits)
            index = 1.0 if mean <= 0 else available / mean
        else:
            index = 1.0
        try:
            # A finite float is numerator / 2**k (bit_length k + 1).
            numerator, denominator = available.as_integer_ratio()
        except (OverflowError, ValueError):
            raise BrokerError(
                f"availability report must be finite, got {available!r}"
            ) from None
        bits = self._sum_bits
        shift = bits + 1 - denominator.bit_length()
        if shift < 0:
            # Finer than anything reported so far: refine the unit.
            bits -= shift
            self._report_sum <<= -shift
            self._sum_bits = bits
            shift = 0
        value = numerator << shift
        self._report_sum += value
        self._report_count += 1
        if reports and reports[-1][0] == now:
            _when, count, total, unit = reports[-1]
            reports[-1] = (now, count + 1, (total << (bits - unit)) + value, bits)
        else:
            reports.append((now, 1, value, bits))
        return index

    @property
    def report_count(self) -> int:
        """Reports in the window as of the latest report, that one included."""
        return self._report_count

    # -- change log (retrospective availability) -----------------------------

    def record_change(self, now: float, available: float) -> None:
        """Record that availability became ``available`` at time ``now``."""
        if self._change_times and now < self._change_times[-1]:
            raise BrokerError(
                f"change at {now!r} is earlier than last recorded {self._change_times[-1]!r}"
            )
        if self._change_times and self._change_times[-1] == now:
            self._change_values[-1] = available
        else:
            self._change_times.append(now)
            self._change_values.append(available)

    def value_at(self, when: float) -> Optional[float]:
        """Availability as of time ``when`` (None before any record)."""
        index = bisect.bisect_right(self._change_times, when) - 1
        if index < 0:
            return self._change_values[0] if self._change_values else None
        return self._change_values[index]

    def __len__(self) -> int:
        return len(self._change_times)
