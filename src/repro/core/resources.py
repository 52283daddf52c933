"""Resource requirement/availability vectors and contention indices (paper §2.2, §4.1.1).

A :class:`ResourceVector` maps *resource slot names* to amounts.  Slots
are the abstract resource roles of a service component (``hS``, ``hP``,
``lPS``, ``lCP`` in the paper's evaluation); a session's *binding* later
maps each slot to a concrete resource managed by a broker.

The *contention index* of one resource is ``psi = r_req / r_avail``
(paper eq. 2); the weight of a QRG edge is the max contention index over
the edge's resources (eq. 3).  Footnote 2 of the paper notes other
definitions of psi are possible, so the definition is pluggable here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.core.errors import IncomparableError, ModelError

#: A contention-index definition: (required, available) -> index in [0, inf).
#: Must be monotonically increasing in ``required`` and decreasing in
#: ``available`` so that "larger index == harder to reserve" holds.
ContentionIndex = Callable[[float, float], float]


def ratio_contention_index(required: float, available: float) -> float:
    """The paper's psi = r_req / r_avail (eq. 2)."""
    if available <= 0:
        return math.inf
    return required / available


def headroom_contention_index(required: float, available: float) -> float:
    """Alternative psi = r_req / (r_avail - r_req): explodes near exhaustion.

    Exhibits the same monotonicity as eq. 2 but penalises plans that leave
    little headroom much more sharply.  Used by the ablation benchmarks.
    """
    headroom = available - required
    if headroom <= 0:
        return math.inf
    return required / headroom


def log_contention_index(required: float, available: float) -> float:
    """Alternative psi = -log(1 - r_req / r_avail) (softly convex)."""
    if available <= 0 or required >= available:
        return math.inf
    return -math.log1p(-required / available)


#: The psi definitions a config or CLI flag can name.
CONTENTION_INDICES: Dict[str, ContentionIndex] = {
    "ratio": ratio_contention_index,
    "headroom": headroom_contention_index,
    "log": log_contention_index,
}


class ResourceVector(Mapping[str, float]):
    """An immutable vector of per-resource amounts.

    Comparison follows the paper: two vectors must cover the same set of
    resources; ``R_a <= R_b`` iff each component of ``R_a`` is no larger.
    """

    __slots__ = ("_amounts", "_hash")

    def __init__(
        self,
        amounts: Mapping[str, float] | Iterable[Tuple[str, float]] = (),
        **kw: float,
    ):
        data: Dict[str, float] = {k: float(v) for k, v in dict(amounts, **kw).items()}
        if not data:
            raise ModelError("a resource vector must cover at least one resource")
        for name, amount in data.items():
            if not isinstance(name, str) or not name:
                raise ModelError(f"invalid resource name: {name!r}")
            if not math.isfinite(amount) or amount < 0:
                raise ModelError(f"invalid amount for resource {name!r}: {amount!r}")
        self._amounts = dict(sorted(data.items()))
        self._hash = hash(tuple(self._amounts.items()))

    # -- Mapping interface --------------------------------------------------

    def __getitem__(self, key: str) -> float:
        return self._amounts[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._amounts)

    def __len__(self) -> int:
        return len(self._amounts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return self._amounts == other._amounts

    # -- ordering -------------------------------------------------------------

    def _check_comparable(self, other: "ResourceVector") -> None:
        if set(self._amounts) != set(other._amounts):
            raise IncomparableError(
                f"resource vectors cover different resources: "
                f"{sorted(self._amounts)} vs {sorted(other._amounts)}"
            )

    def __le__(self, other: "ResourceVector") -> bool:
        self._check_comparable(other)
        return all(self._amounts[k] <= other._amounts[k] for k in self._amounts)

    def __ge__(self, other: "ResourceVector") -> bool:
        return other.__le__(self)

    def __lt__(self, other: "ResourceVector") -> bool:
        return self.__le__(other) and self != other

    def __gt__(self, other: "ResourceVector") -> bool:
        return other.__lt__(self)

    # -- arithmetic -------------------------------------------------------------

    def scaled(self, factor: float) -> "ResourceVector":
        """Element-wise scaling (models the evaluation's "fat" sessions)."""
        if factor <= 0 or not math.isfinite(factor):
            raise ModelError(f"invalid scale factor: {factor!r}")
        return ResourceVector({k: v * factor for k, v in self._amounts.items()})

    def merged_sum(self, other: "ResourceVector") -> "ResourceVector":
        """Union of resources, summing amounts on overlaps."""
        merged = dict(self._amounts)
        for name, amount in other.items():
            merged[name] = merged.get(name, 0.0) + amount
        return ResourceVector(merged)

    # -- contention --------------------------------------------------------------

    def satisfiable_under(self, availability: Mapping[str, float]) -> bool:
        """True iff each required amount fits the corresponding availability."""
        for name, required in self._amounts.items():
            if name not in availability:
                raise ModelError(f"no availability reported for resource {name!r}")
            if required > availability[name]:
                return False
        return True

    def contention(
        self,
        availability: Mapping[str, float],
        index: ContentionIndex = ratio_contention_index,
    ) -> "ContentionReport":
        """Per-resource contention indices and the bottleneck (eq. 2-3)."""
        per_resource: Dict[str, float] = {}
        for name, required in self._amounts.items():
            if name not in availability:
                raise ModelError(f"no availability reported for resource {name!r}")
            per_resource[name] = index(required, availability[name])
        bottleneck = max(per_resource, key=lambda n: (per_resource[n], n))
        return ContentionReport(
            per_resource=per_resource,
            bottleneck_resource=bottleneck,
            psi=per_resource[bottleneck],
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self._amounts.items())
        return f"ResourceVector({inner})"


@dataclass(frozen=True)
class ContentionReport:
    """Outcome of evaluating a requirement vector against availability."""

    per_resource: Mapping[str, float]
    bottleneck_resource: str
    psi: float

    @property
    def feasible(self) -> bool:
        """Feasible under the paper's eq. 2 semantics: psi <= 1 everywhere."""
        return self.psi <= 1.0


class ResourceObservation(
    namedtuple("ResourceObservation", ("available", "alpha", "observed_at"))
):
    """What a Resource Broker reports for one resource (paper §3, §4.3.1).

    ``available``  -- current availability ``r_avail``;
    ``alpha``      -- Availability Change Index ``r_avail / r_avg_avail``
                      over the broker's averaging window (eq. 5); 1.0 when
                      the broker does not track trends.
    ``observed_at``-- simulated time of the snapshot (used by the
                      observation-inaccuracy experiments, paper §5.2.4).

    A tuple underneath: every admission reads one per resource.  Both
    values must be ``>= 0``, which refuses NaN as well as a negative.
    """

    __slots__ = ()

    def __new__(
        cls, available: float, alpha: float = 1.0, observed_at: Optional[float] = None
    ) -> "ResourceObservation":
        if not available >= 0:
            raise ModelError(f"negative availability: {available!r}")
        if not alpha >= 0:
            raise ModelError(f"negative availability change index: {alpha!r}")
        return tuple.__new__(cls, (available, alpha, observed_at))


class AvailabilitySnapshot(Mapping[str, ResourceObservation]):
    """An immutable set of per-resource observations used to build one QRG."""

    __slots__ = ("_observations",)

    def __init__(self, observations: Mapping[str, ResourceObservation]):
        for name, obs in observations.items():
            if not isinstance(obs, ResourceObservation):
                raise ModelError(f"observation for {name!r} is not a ResourceObservation")
        self._observations = dict(observations)

    def __getitem__(self, key: str) -> ResourceObservation:
        return self._observations[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._observations)

    def __len__(self) -> int:
        return len(self._observations)

    def availability(self) -> Dict[str, float]:
        """Plain resource -> available mapping."""
        return {name: obs.available for name, obs in self._observations.items()}

    @classmethod
    def from_amounts(cls, amounts: Mapping[str, float]) -> "AvailabilitySnapshot":
        """Build a trend-less snapshot from plain availabilities."""
        return cls({name: ResourceObservation(available=value) for name, value in amounts.items()})
