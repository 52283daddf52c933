"""An explicit-state model of the cluster's admission protocol.

The router admits a session across shards with one round of reserves,
each of which commits its shard's slice (the fold); a failure tears the
committed slices down in one more round, and books a *teardown debt*
for every shard whose outcome it cannot know, which the anti-entropy
pass settles.
Both halves of that protocol are :mod:`repro.cluster.protocol`: the
router core :class:`~repro.cluster.router.ClusterCoordinator` drives
over the wire, and the shard core each daemon serves.  This module holds
no protocol logic of its own: it drives the router core's operations
against a shard core per shard, whose capacity is a one-unit fake of
the daemon's lease table, and explores every interleaving
breadth-first, hashing states, for bounded instances: one router,
``shards`` shards of one unit of capacity each, ``sessions`` admissions,
and at most ``faults`` faults.  Two variants:

``fold_fenced``
    the protocol that ships: every reserve carries its commit (the
    fold), and a shard refuses a reserve whose generation is below the
    highest it has seen (the fence).
``fold_unfenced``
    the same cores, but the shards' fence test never refuses.

Every session involves every shard, in index order.  A router exchange
is one atomic step, and the exchanges of one round (an admission's
reserves, a round of teardowns) are delivered in any order.  The model
chooses each one's outcome: answered, or one of the faults -- *reply
lost* (the shard applied the request; the router reads an unknown
outcome), *late* (the request is still in flight when the router gives
up: unknown, and it lands at any later point), *lost before the shard*
(it never arrives: unknown, the shard unchanged), *reserve refused* (a
reserve answered with a refusal, nothing applied) -- and *shard restart*
(the shard forgets its leases, sessions and fence, and the requests in
flight to it die with their connections) may happen at any point.  Every
reserve commits as it holds, so no shard ever holds a lease its reaper
could expire.

Properties (Coti, Evangelista & Klai's, for this protocol):

* *capacity conserved* -- in every state a shard's free count and the
  units its books hold add up to its capacity; and at quiescence (the
  router idle, nothing in flight), after the reaper frees every lease,
  a fault-free anti-entropy pass settles every debt and the router
  tears its own sessions down, every shard is wholly free;
* *nothing granted twice* -- in every state, no shard holds one
  session twice;
* *no phantom session* -- at quiescence, after the reap and the pass,
  every session a shard holds committed is one the router established.

Run ``PYTHONPATH=src python -m tests.protocol_model`` for the state
count of every variant and instance and the shortest counterexample of
each variant that has one.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.cluster.protocol import (UNKNOWN, Admission, Flush, RouterCore,
                                    ShardCore, Teardown)
from repro.core.errors import AdmissionError

VARIANTS = ("fold_unfenced", "fold_fenced")

LEASE, COMMITTED = "lease", "committed"


#: Units of capacity per shard: one, so the sessions contend for it.
CAPACITY = 1

# -- states ------------------------------------------------------------------
#
# A shard is ``(free, held, kept, in_flight)``: ``free`` its broker's
# count of free units, ``held`` the sorted ``(session, LEASE |
# COMMITTED)`` units its books hold, ``kept`` what its shard core keeps
# (its fence and sorted session ids), ``in_flight`` the sorted late
# exchanges still travelling to it.
#
# The router is ``(core, operation, admitted, faults)``: ``core`` the
# core's state as sorted tuples (its sessions and their shards, its debts,
# its generations), ``operation`` the class and fields of the core's
# operation in progress (None when idle), ``admitted`` how many
# admissions it started, ``faults`` how many faults happened.

_FRESH_SHARD = (CAPACITY, (), (0, ()), ())

#: Each operation's fields but its core, in a fixed order.
_FIELDS = {
    cls: [name for klass in reversed(cls.__mro__)
          for name in getattr(klass, "__slots__", ()) if name != "core"]
    for cls in (Admission, Teardown, Flush)
}


def _freeze(core, operation, admitted: int, faults: int):
    """The router state of ``core`` and ``operation`` (over: None)."""
    sessions = core.sessions.items()
    debts = core.pending_teardowns.items()
    frozen = (
        tuple(sorted((s, tuple(record["shards"])) for s, record in sessions)),
        tuple(sorted((s, tuple(shards)) for s, shards in debts)),
        tuple(core.generations),
    )
    if operation is not None and operation.ready():
        cls = type(operation)
        operation = cls, tuple(getattr(operation, name) for name in _FIELDS[cls])
    else:
        operation = None
    return frozen, operation, admitted, faults


def _thaw(router):
    """A live core and operation with the router state's contents."""
    (sessions, debts, generations), frozen, _, _ = router
    core = RouterCore(0, 0)
    core.sessions = {s: {"shards": list(shards)} for s, shards in sessions}
    core.pending_teardowns = {s: list(shards) for s, shards in debts}
    core.generations = list(generations)
    if frozen is None:
        return core, None
    cls, values = frozen
    operation = cls.__new__(cls)
    operation.core = core
    for name, value in zip(_FIELDS[cls], values):
        setattr(operation, name, value)
    return core, operation


@dataclass(frozen=True)
class Instance:
    variant: str
    shards: int
    sessions: int = 3
    faults: int = 2


def initial_state(instance: Instance):
    router = _freeze(RouterCore(instance.shards, 1), None, 0, 0)
    return router, (_FRESH_SHARD,) * instance.shards


#: A unit of capacity a shard's book holds, and a lease's handle.
Unit = NamedTuple("Unit", [("session_id", str), ("kind", str)])


class _Book:
    """A shard's capacity: a fake of the daemon's lease table and teardown.

    A refused hold raises, as the table's does.
    """

    def __init__(self, free: int, held: tuple) -> None:
        self.free, self.held = free, held

    def hold(self, session, demands, holder):
        if self.free < 1:
            raise AdmissionError("no free unit")
        lease = Unit(session, LEASE)
        self.free, self.held = self.free - 1, tuple(sorted(self.held + (lease,)))
        return lease

    def commit(self, lease) -> None:
        rest = tuple(unit for unit in self.held if unit != lease)
        self.held = tuple(sorted(rest + (lease._replace(kind=COMMITTED),)))

    def teardown(self, session) -> int:
        rest = tuple(unit for unit in self.held if unit[0] != session)
        released = len(self.held) - len(rest)
        self.free, self.held = self.free + released, rest
        return released


class _UnfencedShard(ShardCore):
    """``fold_unfenced``'s shard core: its fence test never refuses."""

    def stale(self, generation) -> bool:
        return False


def _serve(shard, exchange, shard_class):
    """``(shard, answered)``: ``shard`` after a ``shard_class`` core of its
    state and its book serve ``exchange``."""
    free, held, (fence, sessions), in_flight = shard
    book = _Book(free, held)
    shard_core = shard_class(book, book.teardown)
    shard_core.fence, shard_core.sessions = fence, dict.fromkeys(sessions, {})
    session, generation = exchange.session, exchange.generation
    try:
        if exchange.kind == "reserve":
            reply = shard_core.reserve(session, generation, None, {})
        else:
            reply = shard_core.teardown(session, generation)
    except AdmissionError:
        reply = None
    kept = (shard_core.fence, tuple(sorted(shard_core.sessions)))
    return (book.free, book.held, kept, in_flight), reply is not None


class Model:
    """The transition relation of one :class:`Instance`."""

    def __init__(self, instance: Instance) -> None:
        if instance.variant not in VARIANTS:
            raise ValueError(f"unknown variant {instance.variant!r}")
        self.instance = instance
        fenced = instance.variant == "fold_fenced"
        self.shard_class = ShardCore if fenced else _UnfencedShard

    def _router_starts(self, state) -> Iterator[Tuple[str, tuple]]:
        """What an idle router may start: an admission, a teardown, a flush."""
        router, shards = state
        (sessions, debts, _), _, admitted, faults = router

        def start(label, operation, started=admitted):
            core, _ = _thaw(router)
            return label, (_freeze(core, operation(core), started, faults), shards)

        if admitted < self.instance.sessions:
            session, every = f"s{admitted + 1}", range(self.instance.shards)
            yield start(f"admit {session}",
                        lambda core: Admission(core, session, every, ()), admitted + 1)
        for session, _ in sessions:
            yield start(f"tear down {session}", lambda core: Teardown(core, session))
        if debts:
            yield start("anti-entropy pass", Flush)

    def _deliveries(self, state) -> Iterator[Tuple[str, tuple]]:
        """Each exchange of the router's round, under every outcome the
        faults allow."""
        router, shards = state
        admitted, faults = router[2], router[3]
        unknown, refused = (None, UNKNOWN), (None, "shard_error")
        for exchange in _thaw(router)[1].ready():
            shard = exchange.shard
            label = f"{exchange.kind} {exchange.session}@{shard}"
            target = shards[shard]
            applied, ok = _serve(target, exchange, self.shard_class)
            # A reserve's reply reads as its lease id, here the session's.
            value = (exchange.session, None) if exchange.kind == "reserve" else None
            answered = (value, None) if ok else refused
            outcomes = [(label, applied, answered, faults)]
            if faults < self.instance.faults:
                free, held, kept, in_flight = target
                late = (free, held, kept, tuple(sorted(in_flight + (exchange,))))
                outcomes += [
                    (f"{label}, reply lost", applied, unknown, faults + 1),
                    (f"{label}, still in flight when the router gives up", late,
                     unknown, faults + 1),
                ]
                if exchange.kind == "reserve":
                    outcomes.append((f"{label}, refused", target, refused, faults + 1))
                outcomes.append(
                    (f"{label}, lost before the shard", target, unknown, faults + 1)
                )
            for label, new_shard, outcome, faulted in outcomes:
                core, operation = _thaw(router)
                core.heard(shard, outcome[1])
                operation.deliver(exchange, outcome)
                yield label, (
                    _freeze(core, operation, admitted, faulted),
                    shards[:shard] + (new_shard,) + shards[shard + 1:],
                )

    def _environment(self, state) -> Iterator[Tuple[str, tuple]]:
        """Late deliveries and shard restarts."""
        router, shards = state
        for index, shard in enumerate(shards):
            free, held, kept, in_flight = shard

            def put(new_shard, index=index):
                return shards[:index] + (new_shard,) + shards[index + 1:]

            for position, request in enumerate(in_flight):
                rest = in_flight[:position] + in_flight[position + 1:]
                landed, _ = _serve((free, held, kept, rest), request, self.shard_class)
                # Two late requests may differ only in their generation.
                sent = f"{request.kind} {request.session}@{index} of generation"
                yield f"the late {sent} {request.generation} lands", (router, put(landed))
            if router[3] < self.instance.faults and shard != _FRESH_SHARD:
                restarted = router[:3] + (router[3] + 1,)
                yield f"shard {index} restarts", (restarted, put(_FRESH_SHARD))

    def successors(self, state) -> Iterator[Tuple[str, tuple]]:
        if state[0][1] is None:
            yield from self._router_starts(state)
        else:
            yield from self._deliveries(state)
        yield from self._environment(state)

    # -- properties --------------------------------------------------------

    def violations(self, state) -> List[str]:
        """The properties ``state`` breaks (the quiescent ones at quiescence)."""
        router, shards = state
        found = []
        for index, (free, held, _, _) in enumerate(shards):
            if free < 0 or free + len(held) != CAPACITY:
                found.append(
                    f"capacity not conserved on shard {index}: "
                    f"{free} free beside {held}"
                )
            owners = [session for session, _ in held]
            if len(set(owners)) != len(owners):
                found.append(f"granted twice on shard {index}: {held}")
        if router[1] is not None or any(shard[3] for shard in shards):
            return found
        # Quiescent: the reaper frees every lease, a fault-free
        # anti-entropy pass settles every debt, and then the router
        # tears down its own sessions.
        sessions = {session for session, _ in router[0][0]}
        debts = {(session, i) for session, owed in router[0][1] for i in owed}
        for index, (free, held, _, _) in enumerate(shards):
            settled = [
                unit for unit in held
                if unit[1] == COMMITTED and (unit[0], index) not in debts
            ]
            for session, _ in settled:
                if session not in sessions:
                    found.append(
                        f"phantom session: shard {index} holds {session}, "
                        "which the router never established"
                    )
            left = tuple(unit for unit in settled if unit[0] not in sessions)
            if free + len(held) - len(left) != CAPACITY:
                found.append(f"capacity lost on shard {index}: {left}")
        return found


@dataclass
class Result:
    instance: Instance
    states: int
    transitions: int
    seconds: float
    #: Reachable states that break a property.
    violating: int = 0
    #: The shortest path to a violating state (action labels), and what
    #: that state breaks.
    counterexample: Optional[List[str]] = None
    violations: Tuple[str, ...] = ()


def explore(instance: Instance) -> Result:
    """Breadth-first search of every reachable state of ``instance``.

    States are hashed, so each is expanded once; the first violating
    state met is the end of a shortest counterexample.
    """
    model = Model(instance)
    started = time.perf_counter()
    initial = initial_state(instance)
    parents: Dict[tuple, Optional[Tuple[tuple, str]]] = {initial: None}
    queue = deque([initial])
    result = Result(instance, 0, 0, 0.0)
    while queue:
        state = queue.popleft()
        broken = model.violations(state)
        if broken:
            result.violating += 1
            if result.counterexample is None:
                path = []
                cursor = state
                while parents[cursor] is not None:
                    cursor, label = parents[cursor]
                    path.append(label)
                result.counterexample = path[::-1]
                result.violations = tuple(broken)
        for label, successor in model.successors(state):
            result.transitions += 1
            if successor not in parents:
                parents[successor] = (state, label)
                queue.append(successor)
    result.states = len(parents)
    result.seconds = time.perf_counter() - started
    return result


def explore_all(max_shards: int = 3, faults: int = 2) -> List[Result]:
    """Every variant at 1..``max_shards`` shards and ``faults`` faults."""
    return [
        explore(Instance(variant, shards, faults=faults))
        for variant in VARIANTS
        for shards in range(1, max_shards + 1)
    ]


def main() -> int:
    """Print every instance's state count; 1 unless exactly the unfenced
    fold breaks a property."""
    results = explore_all()
    for result in results:
        instance = result.instance
        verdict = f"{result.violating} violating" if result.violating else "ok"
        print(
            f"{instance.variant:14} shards={instance.shards} "
            f"sessions={instance.sessions} faults<={instance.faults}: "
            f"{result.states} states, {result.transitions} transitions, "
            f"{result.seconds:.2f}s, {verdict}"
        )
    for variant in VARIANTS:
        for result in results:
            if result.instance.variant == variant and result.counterexample:
                print(f"\n{variant}, shards={result.instance.shards}: "
                      + "; ".join(result.violations))
                for step, label in enumerate(result.counterexample, 1):
                    print(f"  {step}. {label}")
                break
    broken = {result.instance.variant for result in results if result.violating}
    return 0 if broken == {"fold_unfenced"} else 1


if __name__ == "__main__":
    raise SystemExit(main())
