"""Inaccurate resource-availability observations (paper §5.2.4).

In the base experiments plan computation and reservation are atomic, so
observations are always accurate.  Lifting that assumption, "for each
service session, the availability of any resource may be observed up to
E time units ago": each session observes each resource at an
independently drawn instant in ``[now - E, now]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class StaleObservationModel:
    """Factory of per-session observation schedules."""

    def __init__(self, max_staleness: float, rng: np.random.Generator, clock: Callable[[], float]) -> None:
        if max_staleness < 0:
            raise ModelError(f"staleness bound must be >= 0, got {max_staleness!r}")
        self.max_staleness = float(max_staleness)
        self._rng = rng
        self._clock = clock

    @property
    def enabled(self) -> bool:
        """True when the model is active."""
        return self.max_staleness > 0

    def schedule_for_session(self) -> Optional[Callable[[str], Optional[float]]]:
        """An ``observed_at`` callable for one session (None when E=0).

        Each distinct resource gets one draw, cached so that repeated
        queries within the session see a consistent snapshot.
        """
        if not self.enabled:
            return None
        now = self._clock()
        cache: dict = {}

        def observed_at(resource_id: str) -> Optional[float]:
            """Stale observation instant for one resource (cached)."""
            when = cache.get(resource_id)
            if when is None:
                lag = float(self._rng.uniform(0.0, self.max_staleness))
                when = max(0.0, now - lag)
                cache[resource_id] = when
            return when

        return observed_at
