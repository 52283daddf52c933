"""Capacity-conservation invariant of the fault-tolerant protocol.

The brokers and the QoSProxies keep *independent* books: a broker knows
how much of its capacity is reserved and by which reservation handles;
a proxy knows which reservations it holds per live session (plus, under
faults, the coordinator knows which of those are uncommitted leases
awaiting the reaper).  The conservation invariant says the two views
must always agree:

    for every stateful resource,
        broker.reserved == sum of amounts of the reservations the
                           proxies hold for it (live sessions + pending
                           leases)

A violation in either direction is a leak: capacity held by a broker
that no proxy will ever release (an orphan the reaper cannot see), or a
proxy believing it holds capacity the broker already freed (double
release / double teardown).  The checker is pure inspection -- safe to
run at any instant of a simulation, including mid-fault.

Two-level network resources: a :class:`~repro.brokers.path.PathBroker`
keeps no books of its own -- its reservations live entirely in the
per-link brokers (which the registry also lists, and which several
paths share).  The checker therefore skips path brokers on the broker
side and *expands* each proxy-held reservation into its ``parts`` (the
constituent link reservations of a path's; a pool's reservation is its
own only part), so both sides are compared in the same
(stateful-broker) coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Mapping, Tuple, Union

from repro.brokers.path import PathBroker
from repro.brokers.registry import BrokerRegistry
from repro.core.errors import ReproError

__all__ = [
    "CapacityConservationError",
    "ConservationReport",
    "ReconcileReport",
    "capacity_conservation",
    "assert_capacity_conserved",
    "cross_tier_violations",
    "reconcile_shard_events",
]

#: Absolute slack for float accumulation over many reserve/release pairs.
_TOLERANCE = 1e-6


class CapacityConservationError(ReproError):
    """Raised by :func:`assert_capacity_conserved` on a broken invariant."""


@dataclass
class ConservationReport:
    """The two books side by side, plus every per-resource mismatch."""

    broker_reserved: Dict[str, float] = field(default_factory=dict)
    proxy_held: Dict[str, float] = field(default_factory=dict)
    broker_outstanding: int = 0
    proxy_outstanding: int = 0
    mismatches: List[Tuple[str, float, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every broker's book matches the proxies' book."""
        return not self.mismatches and self.broker_outstanding == self.proxy_outstanding

    def describe(self) -> str:
        """Human-readable one-paragraph verdict (test failure messages)."""
        if self.ok:
            return (
                f"capacity conserved: {self.broker_outstanding} reservations, "
                f"{sum(self.broker_reserved.values()):g} units held"
            )
        lines = [
            f"capacity NOT conserved: brokers hold {self.broker_outstanding} "
            f"reservations, proxies track {self.proxy_outstanding}"
        ]
        for resource, broker_amount, proxy_amount in self.mismatches:
            lines.append(
                f"  {resource}: broker reserved {broker_amount:g} vs "
                f"proxy-held {proxy_amount:g}"
            )
        return "\n".join(lines)


def capacity_conservation(
    registry: BrokerRegistry, proxies: Union[Mapping[str, object], Iterable[object]]
) -> ConservationReport:
    """Compare broker-side and proxy-side reservation books.

    ``proxies`` accepts either the coordinator's host->proxy mapping or
    any iterable of :class:`~repro.runtime.proxy.QoSProxy` instances.
    Pending (orphaned) leases need no special casing: their reservations
    still sit in the owning proxy's per-session table until the reaper
    or a teardown releases them, so they are counted on both sides.
    """
    report = ConservationReport()
    for broker in registry.brokers():
        if isinstance(broker, PathBroker):
            continue  # stateless composite; its links are listed separately
        report.broker_reserved[broker.resource_id] = broker.reserved
        report.broker_outstanding += broker.outstanding()

    proxy_iter = proxies.values() if isinstance(proxies, Mapping) else proxies
    for proxy in proxy_iter:
        for session_id in proxy.held_sessions():
            for held in proxy.held_for(session_id):
                for reservation in held.parts or (held,):
                    report.proxy_held[reservation.resource_id] = (
                        report.proxy_held.get(reservation.resource_id, 0.0)
                        + reservation.amount
                    )
                    report.proxy_outstanding += 1

    for resource_id in sorted(set(report.broker_reserved) | set(report.proxy_held)):
        broker_amount = report.broker_reserved.get(resource_id, 0.0)
        proxy_amount = report.proxy_held.get(resource_id, 0.0)
        if abs(broker_amount - proxy_amount) > _TOLERANCE:
            report.mismatches.append((resource_id, broker_amount, proxy_amount))
    return report


def assert_capacity_conserved(
    registry: BrokerRegistry, proxies: Union[Mapping[str, object], Iterable[object]]
) -> ConservationReport:
    """Run the checker and raise on any leak; returns the report."""
    report = capacity_conservation(registry, proxies)
    if not report.ok:
        raise CapacityConservationError(report.describe())
    return report


# -- offline cross-shard reconciliation ---------------------------------------
#
# The live checker above needs the broker and proxy objects in hand; a
# cluster spreads them over N processes.  What every shard *does* export
# is its causal event log (``repro-serve --flight-dir`` + SIGQUIT, or a
# trace document), and the lifecycle events carry enough arithmetic to
# re-derive each shard's books offline:
#
#     broker.grant     requested / available / capacity
#     broker.release   amount
#     lease.committed / lease.aborted / lease.expired
#
# :func:`reconcile_shard_events` merges the per-shard logs and verifies
# the *global* conservation story of the two-phase protocol: no shard
# released more than it granted, no resource was granted by two shards
# (ownership is exclusive by construction of the shard map), no grant
# exceeded the availability the broker reported at that instant, and
# every 2PC round that ended in an abort or an expired lease left zero
# net capacity behind on that shard.  Positive net balances are *not*
# violations -- they are the sessions still live when the log was
# dumped -- but they are reported so a leak that survives teardown has
# somewhere to show up.


@dataclass
class ReconcileReport:
    """The merged cross-shard ledger and every global-invariant breach."""

    #: Shard labels, in the order given.
    shards: List[str] = field(default_factory=list)
    #: label -> number of broker.grant / broker.release events seen.
    grants: Dict[str, int] = field(default_factory=dict)
    releases: Dict[str, int] = field(default_factory=dict)
    #: label -> resource -> net granted-minus-released units still out.
    outstanding: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Shards whose logs are tails of a bounded ring (checks are partial).
    truncated: List[str] = field(default_factory=list)
    #: Sessions whose events span more than one shard (trace-id joined).
    cross_shard_sessions: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no global invariant is broken."""
        return not self.violations

    def describe(self) -> str:
        """Human-readable verdict (CI gate output, test messages)."""
        total_grants = sum(self.grants.values())
        total_releases = sum(self.releases.values())
        still_out = sum(
            amount for per in self.outstanding.values() for amount in per.values()
        )
        lines = [
            f"reconciled {len(self.shards)} shard log(s): "
            f"{total_grants} grants, {total_releases} releases, "
            f"{still_out:g} units outstanding, "
            f"{self.cross_shard_sessions} cross-shard session(s)"
        ]
        for label in self.truncated:
            lines.append(
                f"  note: {label} log is truncated; its balances are partial"
            )
        if self.ok:
            lines.append("  conservation holds across shards")
        else:
            lines.append(f"  {len(self.violations)} violation(s):")
            for violation in self.violations:
                lines.append(f"    {violation}")
        return "\n".join(lines)


def _event_field(event: object, name: str, default: object = None) -> object:
    """Read a field off a ReservationEvent or its to_dict() form."""
    if isinstance(event, Mapping):
        return event.get(name, default)
    return getattr(event, name, default)


def reconcile_shard_events(
    shard_events: Mapping[str, Iterable[object]],
    *,
    partial: Collection[str] = (),
) -> ReconcileReport:
    """Verify global conservation over merged per-shard event logs.

    ``shard_events`` maps a shard label to that shard's causally ordered
    events -- :class:`~repro.obs.events.ReservationEvent` instances or
    their ``to_dict()`` form (flight dumps, trace documents); the two
    may be mixed freely.  ``partial`` names the shards whose logs are
    tails -- a bounded log that evicted its oldest events
    (``EventLog.dropped``, a document's ``events_dropped``): a release
    there may pair with a grant no longer held, so neither a negative
    balance nor a rolled-back lease's remainder is a violation on them.
    Pure inspection: nothing is mutated.
    """
    report = ReconcileReport(shards=list(shard_events))
    #: resource -> set of shard labels that granted on it.
    granting_shards: Dict[str, set] = {}
    #: (label, session) -> net units; (label, session) -> lease outcomes.
    session_net: Dict[Tuple[str, str], float] = {}
    session_leases: Dict[Tuple[str, str], set] = {}
    #: session -> set of shard labels it touched (cross-shard count).
    session_shards: Dict[str, set] = {}

    for label, events in shard_events.items():
        report.grants[label] = 0
        report.releases[label] = 0
        balances: Dict[str, float] = {}
        truncated = label in partial
        for event in events:
            kind = _event_field(event, "kind")
            session = _event_field(event, "session")
            resource = _event_field(event, "resource")
            attributes = _event_field(event, "attributes", {}) or {}
            if session:
                session_shards.setdefault(str(session), set()).add(label)
            if kind == "broker.grant":
                requested = float(attributes.get("requested", 0.0))
                available = attributes.get("available")
                report.grants[label] += 1
                balances[resource] = balances.get(resource, 0.0) + requested
                granting_shards.setdefault(resource, set()).add(label)
                if session:
                    key = (label, str(session))
                    session_net[key] = session_net.get(key, 0.0) + requested
                if available is not None and requested > float(available) + _TOLERANCE:
                    report.violations.append(
                        f"{label}: {resource} granted {requested:g} with only "
                        f"{float(available):g} available (over-grant)"
                    )
            elif kind == "broker.release":
                amount = float(attributes.get("amount", 0.0))
                report.releases[label] += 1
                balances[resource] = balances.get(resource, 0.0) - amount
                if session:
                    key = (label, str(session))
                    session_net[key] = session_net.get(key, 0.0) - amount
            elif kind in ("lease.aborted", "lease.expired"):
                if session:
                    session_leases.setdefault((label, str(session)), set()).add(
                        "rolled_back"
                    )
            elif kind == "lease.committed":
                if session:
                    session_leases.setdefault((label, str(session)), set()).add(
                        "committed"
                    )
        if truncated:
            report.truncated.append(label)
        per_resource: Dict[str, float] = {}
        for resource in sorted(balances):
            net = balances[resource]
            if net < -_TOLERANCE and not truncated:
                report.violations.append(
                    f"{label}: {resource} released {-net:g} more than was "
                    "granted (double release)"
                )
            elif net > _TOLERANCE:
                per_resource[resource] = net
        report.outstanding[label] = per_resource

    for resource in sorted(granting_shards):
        owners = granting_shards[resource]
        if len(owners) > 1:
            report.violations.append(
                f"{resource}: granted by {len(owners)} shards "
                f"({', '.join(sorted(owners))}); shard ownership is exclusive"
            )

    # A 2PC round that ended in an abort or a reaped lease (and was
    # never committed on that shard) must have returned every unit it
    # held there -- a positive remainder is a leaked lease, a negative
    # one a double rollback.
    for (label, session), outcomes in sorted(session_leases.items()):
        if "committed" in outcomes or label in report.truncated:
            continue
        net = session_net.get((label, session), 0.0)
        if abs(net) > _TOLERANCE:
            report.violations.append(
                f"{label}: session {session} was rolled back but nets "
                f"{net:g} units (lease leak)"
            )

    report.cross_shard_sessions = sum(
        1 for labels in session_shards.values() if len(labels) > 1
    )
    return report


def cross_tier_violations(
    router_sessions: Mapping[str, Mapping[str, object]],
    pending_teardowns: Mapping[str, Collection[int]],
    shard_sessions: Mapping[int, Mapping[str, Mapping[str, object]]],
) -> List[str]:
    """Committed shard slices the cluster router will never tear down.

    ``shard_sessions`` maps a shard index to that shard's session table;
    a record with ``cluster: true`` is a slice a 2PC commit made
    permanent.  Each must belong to a session the router still holds
    (``router_sessions``, the shard listed under ``"shards"``) or owes a
    teardown (``pending_teardowns``, the shard listed): anything else is
    capacity no one will release -- the leak per-shard reconciliation
    cannot see, since each shard's books balance on their own.  Pure
    inspection; an empty list means the tiers agree.
    """
    return [
        f"shard {shard_index}: session {session_id} is committed but neither "
        "held nor owed a teardown by the router"
        for shard_index, sessions in sorted(shard_sessions.items())
        for session_id, record in sorted(sessions.items())
        if record.get("cluster")
        and shard_index not in router_sessions.get(session_id, {}).get("shards", ())
        and shard_index not in pending_teardowns.get(session_id, ())
    ]
