"""The one hold -> commit | release | expire engine (paper §4.2, phase 3).

The paper's promise is *atomic* multi-resource reservation: either every
participating QoSProxy applies its plan segment or none does.  Every
reserving path of the library -- the plain three-phase coordinator, the
fault boundary's reserve/ack exchange, the daemon's cross-shard
``/v1/reserve`` -- goes through :meth:`LeaseTable.hold`, the only
cross-proxy all-or-nothing loop there is, and ends a lease in exactly
one of four ways::

    held --commit--> committed   (the reservations now belong to the session)
         --release-> released    (the reservations are freed)
         --orphan--> orphaned --reap, at expires_at--> expired (freed)

An *orphaned* lease is one whose holder may never come back for it (a
lost release order, a remote router that died); ``commit`` and
``release`` still win if they arrive before the reaper does.  The
proxies stay the reservation book -- a lease only names the exact
handles one hold created, so ending a lease can never touch a
reservation some other hold (or an earlier commit) of the same session
made.  The table reads time only through the ``clock`` it is given.
"""

from __future__ import annotations

import itertools
from math import inf
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.brokers.base import Reservation
from repro.core.errors import BrokerError
from repro.runtime.messages import PlanSegment
from repro.runtime.proxy import QoSProxy

__all__ = ["Lease", "LeaseTable"]


class Lease(NamedTuple):
    """The reservations of one hold, between reserve and commit.

    Holds the *exact* reservation handles the hold created (not "all
    reservations of the session"), so reaping an orphaned lease can
    never release a later, committed reservation of the same session.
    """

    lease_id: str
    session_id: str
    #: Who answers for the lease: a proxy host, or a shard label.
    host: str
    reservations: Tuple[Reservation, ...]
    reserved_at: float
    ttl: float
    #: The proxy hosts whose books list ``reservations``.
    hosts: Tuple[str, ...] = ()

    @property
    def expires_at(self) -> float:
        """Instant from which the reaper reclaims the lease once orphaned."""
        return self.reserved_at + self.ttl


class LeaseTable:
    """Live (held or orphaned) leases over a set of QoSProxies."""

    def __init__(
        self,
        proxies: Mapping[str, QoSProxy],
        clock: Callable[[], float],
        ttl: float,
    ) -> None:
        self._proxies = proxies
        self._clock = clock
        self._ttl = ttl
        self._leases: Dict[str, Lease] = {}
        self._orphaned: Set[str] = set()
        self._lease_seq = itertools.count(1)

    def hold(
        self,
        session_id: str,
        demands_by_host: Mapping[str, Mapping[str, float]],
        holder: Optional[str] = None,
    ) -> Lease:
        """Reserve every host's demands, or nothing.

        Every amount is validated (owned, finite, positive) before the
        first broker is touched; the segments are then applied in
        sorted-host order.  Any exception -- an
        :class:`~repro.core.errors.AdmissionError` refusal or anything
        else -- undoes the segments already applied and propagates
        unchanged.  ``holder`` names who answers for the lease
        (default: the hosts themselves).
        """
        hosts = tuple(sorted(demands_by_host))
        for host in hosts:
            proxy = self._proxies.get(host)
            if proxy is None:
                raise BrokerError(f"no QoSProxy for host {host!r}")
            for resource_id, amount in demands_by_host[host].items():
                if not proxy.owns(resource_id):
                    raise BrokerError(
                        f"proxy {host!r} does not own resource {resource_id!r}"
                    )
                if not 0 < amount < inf:  # also refuses nan
                    raise BrokerError(
                        f"demand for {resource_id!r} must be finite and "
                        f"positive, got {amount!r}"
                    )
        made: List[Reservation] = []
        try:
            for host in hosts:
                made += self._proxies[host].apply_segment(
                    PlanSegment(session_id, host, demands_by_host[host])
                )
        except BaseException:
            self._free(session_id, hosts, made)
            raise
        holder = holder or "+".join(hosts)
        lease = Lease(
            f"{session_id}@{holder}#{next(self._lease_seq)}",
            session_id,
            holder,
            tuple(made),
            self._clock(),
            self._ttl,
            hosts,
        )
        self._leases[lease.lease_id] = lease
        return lease

    def commit(self, lease: Lease) -> bool:
        """Hand the lease's reservations to its session; False if not live."""
        self._orphaned.discard(lease.lease_id)
        return self._leases.pop(lease.lease_id, None) is not None

    def release(self, lease: Lease) -> int:
        """Free a live lease's reservations; returns the count released.

        Idempotent: a lease already committed, released or reaped is not
        live any more, and releasing it again frees nothing.
        """
        if not self.commit(lease):
            return 0
        return self._free(lease.session_id, lease.hosts, lease.reservations)

    def orphan(self, lease: Lease) -> None:
        """Leave a live lease to the reaper (its holder may be gone)."""
        if lease.lease_id in self._leases:
            self._orphaned.add(lease.lease_id)

    def reap(
        self, now: Optional[float] = None, force: bool = False
    ) -> List[Tuple[Lease, int]]:
        """Expire orphans whose TTL has passed (all of them with ``force``).

        Returns ``(lease, reservations released)`` per expired lease, in
        lease-id order.
        """
        instant = self._clock() if now is None else now
        expired = [
            self._leases[lease_id]
            for lease_id in sorted(self._orphaned)
            if force or instant >= self._leases[lease_id].expires_at
        ]
        return [(lease, self.release(lease)) for lease in expired]

    def drop_session(self, session_id: str) -> int:
        """Forget the session's live leases ahead of its teardown.

        Their reservations still sit on the proxies' books, so the
        teardown releases them; a reaper arriving later finds nothing.
        """
        dropped = [
            lease for lease in self._leases.values() if lease.session_id == session_id
        ]
        for lease in dropped:
            self.commit(lease)
        return len(dropped)

    def get(self, lease_id: str) -> Optional[Lease]:
        """The live lease with this id, if any."""
        return self._leases.get(lease_id)

    def pending(self) -> Tuple[Lease, ...]:
        """Live leases (held or orphaned), in lease-id order."""
        return tuple(self._leases[key] for key in sorted(self._leases))

    def _free(self, session_id: str, hosts, reservations) -> int:
        return sum(
            self._proxies[host].release_reservations(session_id, reservations)
            for host in hosts
        )
