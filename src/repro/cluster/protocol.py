"""The cluster admission protocol, written once: two sans-I/O cores.

:class:`ShardCore` is a shard's half: its fence and session records,
and the order of a reserve, commit, abort and teardown.
:class:`RouterCore` is the router's protocol state -- each session's shard
list, the teardown debts and one generation per shard -- and the three
operations on it decide every consequence of every shard answer:

* :class:`Admission` -- one round of reserves, one per involved shard,
  each carrying its commit (the fold).  If any fails, one round tears
  the committed slices down.
* :class:`Teardown` -- one round: the session's shards, or every shard
  for a session the router does not know.
* :class:`Flush` -- the anti-entropy pass: one round per owed session,
  in id order.

No asyncio, no sockets, no clock.  An operation is a sequence of rounds
of :class:`Exchange`\\ s.  :meth:`~_Operation.ready` is the round it
waits on; the driver sends every exchange in it, in any order or at
once, and hands each outcome to :meth:`~_Operation.deliver`.  An outcome
is a ``(value, failure)`` pair: ``failure`` is None when the reply was
read (``value`` is what was read), ``shard_draining`` or ``shard_error``
when the shard refused and applied nothing, and :data:`UNKNOWN` when the
shard may have applied the call -- every consequence below assumes it
did.  An empty ready round means the operation is over.

:class:`~repro.cluster.router.ClusterCoordinator`, a :class:`RouterCore`
with the I/O, drives the router core over the wire, and each
:class:`~repro.service.daemon.ReservationService` serves a shard core.
``tests/protocol_model.py`` drives both cores through every
interleaving, a shard's capacity being a one-unit fake.  So that the
model can copy a state, an operation's fields hold immutable values,
which it replaces and never changes in place.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["UNKNOWN", "Admission", "Exchange", "Flush", "RouterCore", "ShardCore",
           "Teardown"]

#: The failure of an exchange whose outcome the router cannot know.
UNKNOWN = "shard_unreachable"

#: The fields of a commit's session record a shard keeps.
_RECORD_FIELDS = ("service", "domain", "demand_scale", "duration", "level")


class Exchange(NamedTuple):
    """One request to one shard: a ``reserve``, which carries its commit,
    or a ``teardown``, each with the shard's ``generation``."""

    kind: str
    shard: int
    session: str
    generation: int


class ShardCore:
    """A shard's protocol state: its fence and its session records.

    Capacity is in ``leases``, a :class:`~repro.runtime.leases.LeaseTable`
    (whose ``hold`` raises a refusal), and ``teardown(session)`` frees
    all a session holds, its live leases first.
    """

    def __init__(self, leases, teardown, holder: Optional[str] = None) -> None:
        self.leases, self._teardown, self.holder = leases, teardown, holder
        #: The highest router generation a reserve or teardown carried.
        self.fence = 0
        #: session id -> its record; a cluster session's is its commit's.
        self.sessions: Dict[str, dict] = {}

    def stale(self, generation: Optional[int]) -> bool:
        """The fence test: a reserve below it may be one the router gave
        up on and settled; a reserve with no generation is not fenced."""
        return generation is not None and generation < self.fence

    def reserve(self, session: str, generation: Optional[int], demands, record):
        """Hold ``demands``, committed too given ``record`` (the fold):
        the lease, or None below the fence, holding nothing."""
        if self.stale(generation):
            return None
        self.fence = max(self.fence, generation or 0)
        lease = self.leases.hold(session, demands, self.holder)
        if record is not None:
            self._commit(lease, record)
        return lease

    def commit(self, lease_id: str, record=None):
        """Commit a live lease: it, or None once gone (expired, aborted or
        torn down), so a late commit re-creates nothing."""
        lease = self.leases.get(lease_id)
        if lease is not None:
            self._commit(lease, record)
        return lease

    def _commit(self, lease, meta) -> None:
        self.leases.commit(lease)
        meta = meta if isinstance(meta, dict) else {}
        record = {key: meta[key] for key in _RECORD_FIELDS if key in meta}
        self.sessions.setdefault(lease.session_id, {"cluster": True, **record})

    def abort(self, lease_id: str):
        """``(lease, released)``; ``(None, 0)`` once the lease is gone."""
        lease = self.leases.get(lease_id)
        return lease, 0 if lease is None else self.leases.release(lease)

    def teardown(self, session: str, generation: Optional[int]) -> Tuple[bool, int]:
        """Raise the fence, drop the record, free what the session holds:
        ``(known, released)``."""
        self.fence = max(self.fence, generation or 0)
        known = self.sessions.pop(session, None) is not None
        return known, self._teardown(session)


class RouterCore:
    """The router's protocol state; every operation reads and writes it."""

    def __init__(self, shard_count: int, generation: int) -> None:
        #: session id -> its record; ``shards`` routes its teardown.
        self.sessions: Dict[str, dict] = {}
        #: session id -> the shards that may still hold it (sorted).
        self.pending_teardowns: Dict[str, List[int]] = {}
        #: shard index -> the generation sent on reserves and teardowns.
        self.generations = [generation] * shard_count

    def heard(self, shard: int, failure: Optional[str]) -> None:
        """Every unknown outcome bumps the shard's generation: a shard
        refuses a reserve below the highest generation it has seen, so
        every reserve sent to it before is fenced off."""
        if failure == UNKNOWN:
            self.generations[shard] += 1

    def teardown_round(self, session: str, shards: Sequence[int]) -> Tuple[Exchange, ...]:
        """Teardowns of ``session`` on ``shards``, sent at once.

        Each carries the shard's generation, which fences off a reserve
        the router gave up on before.  A shard that answers with an
        error holds nothing to release (a 404: it never held the
        session, or forgot it in a restart).
        """
        return tuple(Exchange("teardown", i, session, self.generations[i]) for i in shards)

    def owe(self, session: str, shards: Sequence[int]) -> None:
        """Record that ``shards`` may still hold ``session``."""
        if shards:
            owed = set(self.pending_teardowns.get(session, ())) | set(shards)
            self.pending_teardowns[session] = sorted(owed)


class _Operation:
    """A sequence of rounds on ``core``; ``owed`` collects the shards that
    may still hold ``session`` and ``released`` what teardowns freed."""

    __slots__ = ("core", "session", "round", "released", "owed")

    def ready(self) -> Tuple[Exchange, ...]:
        """The round to send, less what was delivered; empty once over."""
        return self.round

    def deliver(self, exchange: Exchange, outcome: Tuple[object, Optional[str]]) -> None:
        """Take ``exchange``'s ``(value, failure)``; once the round is
        delivered, decide the next one."""
        value, failure = outcome
        self.round = tuple(other for other in self.round if other != exchange)
        if exchange.kind == "teardown":
            # An unknown teardown may have left the session on its shard.
            self.released += value or 0
            if failure == UNKNOWN:
                self.owed += (exchange.shard,)
        else:
            self._read(exchange, value, failure)
        if not self.round:
            self.round = self._next()


class Admission(_Operation):
    """One session's admission on the shards in ``order``.

    Over, it has ``refusal`` None and the session recorded with
    ``record``'s fields (a dict, or pairs), or ``refusal`` the ``(shard,
    reason, failed_resource)`` of the first failing shard in shard order
    and every shard that may hold the session owed a teardown.
    """

    __slots__ = ("order", "record", "committed", "refusal")

    def __init__(self, core: RouterCore, session: str, order: Sequence[int], record) -> None:
        self.core, self.session, self.order, self.record = core, session, tuple(order), record
        self.released, self.owed, self.committed, self.refusal = 0, (), (), None
        #: Every reserve carries its commit, so they go out in one round.
        self.round = tuple(
            Exchange("reserve", shard, session, core.generations[shard]) for shard in self.order
        )

    def _read(self, exchange: Exchange, value, failure: Optional[str]) -> None:
        """A reserve answered: its slice committed, or a refusal kept."""
        shard, failed_resource = exchange.shard, None
        if failure is None:
            lease, failed_resource = value
            if lease is not None:
                self.committed += (shard,)
                return
            failure = "admission_failed"
        elif failure == UNKNOWN:
            # An unknown reserve may have committed, which only a teardown
            # undoes; its shard may be silent, so it is owed one.
            self.owed += (shard,)
        if self.refusal is None or shard < self.refusal[0]:
            self.refusal = (shard, failure, failed_resource)

    def _next(self) -> Tuple[Exchange, ...]:
        if self.refusal is not None and self.committed:
            # A refused round: tear its committed slices down, at once.
            committed, self.committed = self.committed, ()
            return self.core.teardown_round(self.session, committed)
        if self.refusal is None:
            self.core.sessions[self.session] = dict(self.record, shards=list(self.order))
        self.core.owe(self.session, self.owed)
        return ()


class Teardown(_Operation):
    """Tears ``session`` down where it is, or everywhere when unknown.

    Starting it takes the session out of the router's sessions.
    Over, ``known`` says whether the router held the session and
    ``released`` sums what the shards freed.  The session is gone from
    the router's view, but a shard whose teardown was unknown may still
    hold its capacity (a partition, not a crash-restart): it is owed a
    teardown, which the anti-entropy pass settles once it is reachable.
    """

    __slots__ = ("known",)

    def __init__(self, core: RouterCore, session: str) -> None:
        record = core.sessions.pop(session, None)
        self.core, self.session, self.known = core, session, record is not None
        self.released, self.owed = 0, ()
        shards = record["shards"] if self.known else range(len(core.generations))
        self.round = core.teardown_round(session, shards)

    def _next(self) -> Tuple[Exchange, ...]:
        if self.known:
            self.core.owe(self.session, self.owed)
        return ()


class Flush(_Operation):
    """The anti-entropy pass: every debt's teardown, one session at a time.

    An answered teardown settles the debt -- a 404 too: the shard holds
    nothing -- and an unknown one stays owed.  Over, ``released`` sums
    what the shards freed.
    """

    __slots__ = ("queue",)

    def __init__(self, core: RouterCore) -> None:
        self.core, self.session, self.released, self.owed = core, None, 0, ()
        self.queue = tuple(sorted(core.pending_teardowns))
        self.round = self._next()

    def _next(self) -> Tuple[Exchange, ...]:
        debts = self.core.pending_teardowns
        # Settle the round just delivered (there is none before the first).
        debts.pop(self.session, None)
        self.core.owe(self.session, self.owed)
        if not self.queue:
            return ()
        self.session, self.queue, self.owed = self.queue[0], self.queue[1:], ()
        return self.core.teardown_round(self.session, debts[self.session])
