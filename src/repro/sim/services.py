"""The evaluation's service definitions (paper §5.1, figure 10).

Each service ``S_i`` is a chain of three components ``cS -> cP -> cC``:
the server component (consuming the server host's local resource slot
``hS``), the proxy component (consuming the proxy host's local resource
``hP`` and the server-proxy network resource ``lPS``), and the client
component (consuming the proxy-client network resource ``lCP``).

The paper gives two requirement tables: figure 10(a) for services S1 and
S4 ("family A") and figure 10(b) for S2 and S3 ("family B").  The
figure's numeric values are not recoverable from the text, so the tables
below are hand-authored to preserve everything the text *does* pin down:

* the exact level/edge structure implied by Tables 1-2 (all 11 family-A
  and 12 family-B enumerated reservation paths exist, sinks ranked
  Qp>Qq>Qr resp. Ql>Qm>Qn);
* the trade-off shape: reaching a given output from a *lower* input
  costs more host CPU (the hypothetical image-intrapolation upscaling of
  figure 4's caption) but less upstream network bandwidth;
* calibration: per-resource-class utilisation is balanced (hosts carry
  2 of 4 component placements per session, core links 1 of 6, access
  links 1 of 8 -- hence ``lPS``/``lCP`` values are proportionally
  larger), and a "fat" x10 session still fits the smallest possible
  pool (1000 units).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.component import ServiceComponent
from repro.core.errors import ModelError
from repro.core.qos import QoSLevel, QoSRanking, QoSVector
from repro.core.service import DependencyGraph, DistributedService
from repro.core.translation import TabularTranslation

#: Resource slot names (paper §5.1).
SLOT_SERVER = "hS"
SLOT_PROXY = "hP"
SLOT_NET_SP = "lPS"
SLOT_NET_PC = "lCP"

#: Per-slot calibration factors applied when instantiating services.
#:
#: The authored tables below are in *relative* units chosen for readable
#: trade-off structure.  These factors bring the typical contention
#: index psi = req/avail of the four resource classes to a comparable
#: magnitude at mid-range load, given their very different per-pool load
#: shares in figure 9 (a session places 2 of its 4 slot demands on the 4
#: host CPU pools, but only 1 on the 6 core links and 1 on the 8 access
#: links).  Comparable psi is what makes the bottleneck identity switch
#: between resource classes -- the behaviour §5.2.2 reports ("every
#: resource ... becomes the bottleneck resource ... at least once").
SLOT_CALIBRATION: Dict[str, float] = {
    SLOT_SERVER: 0.85,
    SLOT_PROXY: 0.85,
    SLOT_NET_SP: 0.62,
    SLOT_NET_PC: 0.55,
}


def calibrate_table(
    table: Mapping[Tuple[str, str], Mapping[str, float]],
    scales: Mapping[str, float] = SLOT_CALIBRATION,
) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Apply per-slot calibration factors to a requirement table."""
    return {
        key: {slot: amount * scales.get(slot, 1.0) for slot, amount in requirement.items()}
        for key, requirement in table.items()
    }


@dataclass(frozen=True)
class ServiceFamily:
    """One of the two figure-10 definitions, reusable across services."""

    key: str  # "A" or "B"
    source_label: str
    server_table: Mapping[Tuple[str, str], Mapping[str, float]]
    proxy_table: Mapping[Tuple[str, str], Mapping[str, float]]
    client_table: Mapping[Tuple[str, str], Mapping[str, float]]
    # label -> quality vector, per node column of the figure
    source_levels: Mapping[str, Mapping[str, float]]
    server_out_levels: Mapping[str, Mapping[str, float]]
    proxy_in_levels: Mapping[str, Mapping[str, float]]
    proxy_out_levels: Mapping[str, Mapping[str, float]]
    client_in_levels: Mapping[str, Mapping[str, float]]
    client_out_levels: Mapping[str, Mapping[str, float]]
    ranking: Tuple[str, ...]  # end-to-end labels, best first

    def build_service(self, name: str) -> DistributedService:
        """Instantiate the family as a named three-component chain."""

        def levels(defs: Mapping[str, Mapping[str, float]]) -> Tuple[QoSLevel, ...]:
            """Materialise label->vector definitions as QoSLevel tuples."""
            return tuple(QoSLevel(label, QoSVector(vec)) for label, vec in defs.items())

        server = ServiceComponent(
            "cS",
            input_levels=levels(self.source_levels),
            output_levels=levels(self.server_out_levels),
            translation=TabularTranslation(calibrate_table(self.server_table)),
        )
        proxy = ServiceComponent(
            "cP",
            input_levels=levels(self.proxy_in_levels),
            output_levels=levels(self.proxy_out_levels),
            translation=TabularTranslation(calibrate_table(self.proxy_table)),
        )
        client = ServiceComponent(
            "cC",
            input_levels=levels(self.client_in_levels),
            output_levels=levels(self.client_out_levels),
            translation=TabularTranslation(calibrate_table(self.client_table)),
        )
        return DistributedService(
            name,
            [server, proxy, client],
            DependencyGraph.chain(["cS", "cP", "cC"]),
            QoSRanking(list(self.ranking)),
        )


# --------------------------------------------------------------------------
# Family A -- figure 10(a), services S1 and S4.
#
# Level structure (Table 1):  Qa -> {Qb,Qc,Qd} == {Qe,Qf,Qg} ->
# {Qh,Qi,Qj,Qk} == {Ql,Qm,Qn,Qo} -> {Qp,Qq,Qr}; ranking Qp > Qq > Qr.
# --------------------------------------------------------------------------

#: Quality vectors: (frame_rate fps, image_size height-lines); proxy
#: output adds trackable objects; end-to-end adds buffering delay (ms,
#: encoded negatively so that "less delay" sorts as "higher QoS").
_A_Q3 = {"frame_rate": 30, "image_size": 480}
_A_Q2 = {"frame_rate": 30, "image_size": 240}
_A_Q1 = {"frame_rate": 15, "image_size": 240}

_A_P4 = {"frame_rate": 30, "image_size": 480, "objects": 4}
_A_P3 = {"frame_rate": 30, "image_size": 480, "objects": 2}
_A_P2 = {"frame_rate": 30, "image_size": 240, "objects": 2}
_A_P1 = {"frame_rate": 15, "image_size": 240, "objects": 1}

_A_E3 = {"frame_rate": 30, "image_size": 480, "objects": 4, "neg_delay": -100}
_A_E2 = {"frame_rate": 30, "image_size": 240, "objects": 2, "neg_delay": -150}
_A_E1 = {"frame_rate": 15, "image_size": 240, "objects": 1, "neg_delay": -250}

FAMILY_A = ServiceFamily(
    key="A",
    source_label="Qa",
    source_levels={"Qa": {"frame_rate": 30, "image_size": 480}},
    server_out_levels={"Qb": _A_Q3, "Qc": _A_Q2, "Qd": _A_Q1},
    proxy_in_levels={"Qe": _A_Q3, "Qf": _A_Q2, "Qg": _A_Q1},
    proxy_out_levels={"Qh": _A_P4, "Qi": _A_P3, "Qj": _A_P2, "Qk": _A_P1},
    client_in_levels={"Ql": _A_P4, "Qm": _A_P3, "Qn": _A_P2, "Qo": _A_P1},
    client_out_levels={"Qp": _A_E3, "Qq": _A_E2, "Qr": _A_E1},
    ranking=("Qp", "Qq", "Qr"),
    server_table={
        ("Qa", "Qb"): {SLOT_SERVER: 7.5},
        ("Qa", "Qc"): {SLOT_SERVER: 5.5},
        ("Qa", "Qd"): {SLOT_SERVER: 4.0},
    },
    proxy_table={
        # High-quality input: cheap tracking, expensive upstream shipping.
        ("Qe", "Qh"): {SLOT_PROXY: 6.5, SLOT_NET_SP: 22.0},
        ("Qe", "Qi"): {SLOT_PROXY: 5.0, SLOT_NET_SP: 20.0},
        # Mid input: reaching higher outputs needs intrapolation (steep
        # CPU cost), at reduced upstream bandwidth.
        ("Qf", "Qh"): {SLOT_PROXY: 13.0, SLOT_NET_SP: 16.0},
        ("Qf", "Qi"): {SLOT_PROXY: 8.0, SLOT_NET_SP: 15.0},
        ("Qf", "Qj"): {SLOT_PROXY: 7.0, SLOT_NET_SP: 14.0},
        ("Qf", "Qk"): {SLOT_PROXY: 5.0, SLOT_NET_SP: 13.0},
        # Low input: cheapest network, priciest upscaling.
        ("Qg", "Qj"): {SLOT_PROXY: 11.0, SLOT_NET_SP: 10.5},
        ("Qg", "Qk"): {SLOT_PROXY: 8.0, SLOT_NET_SP: 9.5},
    },
    # Recovering a given end-to-end level from a *lower*-quality
    # intermediate costs extra delivery bandwidth (the player fetches
    # auxiliary detail/redundancy streams), so within one sink the lCP
    # requirement rises as the input level falls.  This keeps every
    # level-3 path non-dominated -- the resource trade-offs §5.2.5 calls
    # "options".
    client_table={
        ("Ql", "Qp"): {SLOT_NET_PC: 24.0},
        ("Qm", "Qp"): {SLOT_NET_PC: 27.0},
        ("Qn", "Qp"): {SLOT_NET_PC: 30.0},
        ("Qm", "Qq"): {SLOT_NET_PC: 17.0},
        ("Qn", "Qq"): {SLOT_NET_PC: 19.5},
        ("Qo", "Qq"): {SLOT_NET_PC: 22.0},
        ("Qn", "Qr"): {SLOT_NET_PC: 11.0},
        ("Qo", "Qr"): {SLOT_NET_PC: 13.0},
    },
)

# --------------------------------------------------------------------------
# Family B -- figure 10(b), services S2 and S3.
#
# Level structure (Table 2):  Qa -> {Qb,Qc} == {Qd,Qe} -> {Qf,Qg,Qh} ==
# {Qi,Qj,Qk} -> {Ql,Qm,Qn}; ranking Ql > Qm > Qn.
# --------------------------------------------------------------------------

_B_Q2 = {"resolution": 1024, "precision": 2}
_B_Q1 = {"resolution": 512, "precision": 2}

_B_P3 = {"resolution": 1024, "precision": 2, "features": 8}
_B_P2 = {"resolution": 1024, "precision": 1, "features": 4}
_B_P1 = {"resolution": 512, "precision": 1, "features": 4}

_B_E3 = {"resolution": 1024, "precision": 2, "features": 8, "neg_delay": -80}
_B_E2 = {"resolution": 1024, "precision": 1, "features": 4, "neg_delay": -120}
_B_E1 = {"resolution": 512, "precision": 1, "features": 4, "neg_delay": -200}

FAMILY_B = ServiceFamily(
    key="B",
    source_label="Qa",
    source_levels={"Qa": {"resolution": 1024, "precision": 2}},
    server_out_levels={"Qb": _B_Q2, "Qc": _B_Q1},
    proxy_in_levels={"Qd": _B_Q2, "Qe": _B_Q1},
    proxy_out_levels={"Qf": _B_P3, "Qg": _B_P2, "Qh": _B_P1},
    client_in_levels={"Qi": _B_P3, "Qj": _B_P2, "Qk": _B_P1},
    client_out_levels={"Ql": _B_E3, "Qm": _B_E2, "Qn": _B_E1},
    ranking=("Ql", "Qm", "Qn"),
    server_table={
        ("Qa", "Qb"): {SLOT_SERVER: 7.0},
        ("Qa", "Qc"): {SLOT_SERVER: 4.8},
    },
    proxy_table={
        ("Qd", "Qf"): {SLOT_PROXY: 5.5, SLOT_NET_SP: 21.0},
        ("Qe", "Qf"): {SLOT_PROXY: 11.0, SLOT_NET_SP: 14.0},
        ("Qd", "Qg"): {SLOT_PROXY: 4.5, SLOT_NET_SP: 19.5},
        ("Qe", "Qg"): {SLOT_PROXY: 8.0, SLOT_NET_SP: 13.5},
        ("Qd", "Qh"): {SLOT_PROXY: 3.5, SLOT_NET_SP: 18.5},
        ("Qe", "Qh"): {SLOT_PROXY: 6.0, SLOT_NET_SP: 12.5},
    },
    # Same rationale as family A: lower intermediates cost extra
    # delivery bandwidth to recover a given end-to-end level.
    client_table={
        ("Qi", "Ql"): {SLOT_NET_PC: 22.5},
        ("Qj", "Ql"): {SLOT_NET_PC: 25.0},
        ("Qk", "Ql"): {SLOT_NET_PC: 28.0},
        ("Qi", "Qm"): {SLOT_NET_PC: 16.0},
        ("Qj", "Qm"): {SLOT_NET_PC: 18.5},
        ("Qk", "Qm"): {SLOT_NET_PC: 20.5},
        ("Qj", "Qn"): {SLOT_NET_PC: 11.0},
        ("Qk", "Qn"): {SLOT_NET_PC: 13.0},
    },
)

#: Service name -> family, per §5.1: (a) is for S1 and S4, (b) for S2, S3.
SERVICE_FAMILIES: Dict[str, ServiceFamily] = {
    "S1": FAMILY_A,
    "S2": FAMILY_B,
    "S3": FAMILY_B,
    "S4": FAMILY_A,
}


def family_of_service(name: str) -> ServiceFamily:
    """The figure-10 family an evaluation service belongs to."""
    try:
        return SERVICE_FAMILIES[name]
    except KeyError:
        raise ModelError(f"unknown evaluation service {name!r}") from None


@lru_cache(maxsize=None)
def _default_services_cached() -> Mapping[str, DistributedService]:
    """The S1-S4 definitions, built once per process.

    Service definitions are immutable (frozen components, tabular
    translations), so every run with default parameters can share one
    instance instead of re-deriving levels and calibrated tables per
    sweep point.
    """
    return MappingProxyType(
        {name: family.build_service(name) for name, family in SERVICE_FAMILIES.items()}
    )


def build_evaluation_services(
    families: Optional[Mapping[str, ServiceFamily]] = None,
) -> Dict[str, DistributedService]:
    """All four S1-S4 service definitions (optionally substituted).

    The default (no ``families``) is memoized: callers get a fresh dict,
    but the (immutable) service objects inside are shared process-wide.
    """
    if families is None or families is SERVICE_FAMILIES:
        return dict(_default_services_cached())
    return {name: family.build_service(name) for name, family in families.items()}


@lru_cache(maxsize=None)
def _compressed_services_cached(ratio: float) -> Mapping[str, DistributedService]:
    return MappingProxyType(
        {
            name: family.build_service(name)
            for name, family in compressed_service_families(ratio).items()
        }
    )


def evaluation_services_for(
    diversity_ratio: Optional[float] = None,
) -> Dict[str, DistributedService]:
    """Memoized service set for one simulation configuration.

    ``diversity_ratio=None`` is the paper's base table; a ratio applies
    the §5.2.5 compression.  Both variants are cached, so repeated sweep
    runs with identical service parameters share the definitions.
    """
    if diversity_ratio is None:
        return build_evaluation_services()
    return dict(_compressed_services_cached(float(diversity_ratio)))


# --------------------------------------------------------------------------
# Requirement-diversity compression (paper §5.2.5, figure 13).
# --------------------------------------------------------------------------


def _compress_values(values: Sequence[float], ratio: float) -> List[float]:
    """Map values to an evenly spaced set with max/min == ratio, same mean.

    The paper: "for each resource, the requirement values on different
    edges have the same average ..., however, the ratio between the
    highest and lowest values is limited to 3:1, and the other values are
    evenly distributed between them."  Even spacing around the mean with
    endpoints (l, r*l) preserves the mean exactly when l = 2*m/(1+r).
    """
    if ratio < 1.0:
        raise ModelError(f"compression ratio must be >= 1, got {ratio!r}")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return [mean]
    low = 2.0 * mean / (1.0 + ratio)
    high = ratio * low
    step = (high - low) / (n - 1)
    order = sorted(range(n), key=lambda i: (values[i], i))
    result = [0.0] * n
    for position, original_index in enumerate(order):
        result[original_index] = low + position * step
    return result


def compress_diversity(family: ServiceFamily, ratio: float = 3.0) -> ServiceFamily:
    """A family with per-resource requirement spread limited to ``ratio``.

    Applied independently per component and per resource slot, preserving
    each slot's mean requirement and the rank order of edge costs.
    """
    def compress_table(
        table: Mapping[Tuple[str, str], Mapping[str, float]]
    ) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Apply per-slot compression to one requirement table."""
        keys = sorted(table)
        slots = sorted({slot for requirement in table.values() for slot in requirement})
        new_table: Dict[Tuple[str, str], Dict[str, float]] = {key: {} for key in keys}
        for slot in slots:
            originals = [table[key][slot] for key in keys]
            compressed = _compress_values(originals, ratio)
            for key, value in zip(keys, compressed):
                new_table[key][slot] = value
        return new_table

    return ServiceFamily(
        key=f"{family.key}/compressed{ratio:g}",
        source_label=family.source_label,
        source_levels=family.source_levels,
        server_out_levels=family.server_out_levels,
        proxy_in_levels=family.proxy_in_levels,
        proxy_out_levels=family.proxy_out_levels,
        client_in_levels=family.client_in_levels,
        client_out_levels=family.client_out_levels,
        ranking=family.ranking,
        server_table=compress_table(family.server_table),
        proxy_table=compress_table(family.proxy_table),
        client_table=compress_table(family.client_table),
    )


def compressed_service_families(ratio: float = 3.0) -> Dict[str, ServiceFamily]:
    """The §5.2.5 variant of all four services."""
    return {name: compress_diversity(family, ratio) for name, family in SERVICE_FAMILIES.items()}


@lru_cache(maxsize=None)
def evaluation_family_keys() -> Mapping[str, str]:
    """Service name -> base family key ("S1" -> "A", ...), memoized.

    Compression suffixes ("A/compressed3") are stripped so the path
    census always groups by the figure-10 family identity.
    """
    return MappingProxyType(
        {name: family.key.split("/")[0] for name, family in SERVICE_FAMILIES.items()}
    )
