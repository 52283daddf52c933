"""An explicit-state model of the cluster's lease / two-phase-commit protocol.

The router (:mod:`repro.cluster.router`) admits a session across shards
by holding a lease on every involved shard and committing them; a
failure aborts the held leases, tears the committed slices down, and
books a *teardown debt* for every shard whose outcome it cannot know,
which the anti-entropy pass (``flush_pending_teardowns``) settles.  This
module writes that protocol as a small state machine and explores every
interleaving of it breadth-first, hashing states, for bounded instances:
one router, ``shards`` shards of one unit of capacity each, ``sessions``
admissions, and at most ``faults`` faults.  Three variants:

``two_phase``
    reserve every involved shard, then commit every lease.
``fold_unfenced``
    the last shard's reserve carries its commit (one exchange fewer).
``fold_fenced``
    the fold, plus the fence: the router keeps one generation per shard,
    bumps it on every unknown outcome and sends it on reserves and
    teardowns; a shard refuses a reserve below the highest it has seen.

Every session involves every shard, in index order.  A router exchange
is one atomic step whose outcome is chosen by the model: answered, or
one of the faults -- *reply lost* (the shard applied the request; the
router reads an unknown outcome), *late* (the request is still in
flight when the router gives up: unknown, and it lands at any later
point), *reserve refused* (a reserve answered with a refusal, nothing
applied) -- and *shard restart* (the shard forgets its leases, sessions
and fence, and the requests in flight to it die with their connections)
may happen at any point.  A lease may expire at any point (its TTL is
shorter than the router's exchange bound), which costs no fault.

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
from typing import Dict, Iterator, List, Optional, Tuple

VARIANTS = ("two_phase", "fold_unfenced", "fold_fenced")

#: Reply kinds the router reads off an exchange.
OK, REFUSED, UNKNOWN = "ok", "refused", "unknown"

LEASE, COMMITTED = "lease", "committed"


#: Units of capacity per shard: one, so the sessions contend for it.
CAPACITY = 1

# -- states ------------------------------------------------------------------
#
# A shard is ``(free, held, fence, in_flight)``: ``free`` its broker's
# count of free units, ``held`` the sorted ``(session, LEASE |
# COMMITTED)`` units its books hold, ``fence`` the highest generation it
# has seen, ``in_flight`` the sorted late requests still travelling to it.
#
# The router is ``(op, sessions, debts, admitted, generations, faults)``:
# ``op`` the operation it is in the middle of (None when idle),
# ``sessions`` the sessions it established, ``debts`` the sorted
# ``(session, shard)`` teardowns it owes, ``admitted`` how many
# admissions it started, ``generations`` one per shard, ``faults`` how
# many faults happened.
#
# Operations, each a sequence of exchanges:
#   ("reserve", s, shard, leases)          reserve ``shard``; ``leases`` held
#   ("commit", s, pending, committed)      commit ``pending[0]``
#   ("undo", s, exchanges, owed)           aborts / teardowns, then owe ``owed``
#   ("flush", to_visit)                    tear down the debt ``to_visit[0]``
#
# Requests: ("reserve", s, generation, folded), ("commit", s),
# ("abort", s), ("teardown", s, generation).

_FRESH_SHARD = (CAPACITY, (), 0, ())


@dataclass(frozen=True)
class Instance:
    variant: str
    shards: int
    sessions: int = 3
    faults: int = 2


def initial_state(instance: Instance):
    router = (None, (), (), 0, (1,) * instance.shards, 0)
    return router, (_FRESH_SHARD,) * instance.shards


def _release(shard, keep):
    """``shard`` without the units ``keep`` rejects, their capacity freed."""
    free, held, fence, in_flight = shard
    rest = tuple(unit for unit in held if keep(unit))
    return free + len(held) - len(rest), rest, fence, in_flight


def _apply(shard, request, fenced: bool):
    """The shard's handling of one request: ``(shard, reply)``."""
    free, held, fence, in_flight = shard
    kind, session = request[0], request[1]
    if kind == "reserve":
        generation, folded = request[2], request[3]
        if fenced and generation < fence:
            return shard, REFUSED
        if fenced:
            fence = max(fence, generation)
        if free < 1:
            return (free, held, fence, in_flight), REFUSED
        unit = (session, COMMITTED if folded else LEASE)
        return (free - 1, tuple(sorted(held + (unit,))), fence, in_flight), OK
    if kind == "commit":
        if (session, LEASE) not in held:
            return shard, REFUSED  # the lease expired, was aborted or torn down
        rest = tuple(unit for unit in held if unit != (session, LEASE))
        held = tuple(sorted(rest + ((session, COMMITTED),)))
        return (free, held, fence, in_flight), OK
    if kind == "abort":
        return _release(shard, lambda unit: unit != (session, LEASE)), OK
    # teardown: the session's leases and commits; a 404 settles the debt too
    if fenced:
        shard = (free, held, max(fence, request[2]), in_flight)
    return _release(shard, lambda unit: unit[0] != session), OK


class Model:
    """The transition relation of one :class:`Instance`."""

    def __init__(self, instance: Instance) -> None:
        if instance.variant not in VARIANTS:
            raise ValueError(f"unknown variant {instance.variant!r}")
        self.instance = instance
        self.last = instance.shards - 1
        self.fold = instance.variant != "two_phase"
        self.fenced = instance.variant == "fold_fenced"

    # -- the router --------------------------------------------------------

    def _request(self, router) -> Tuple[int, tuple]:
        """The shard and request of the router's next exchange."""
        op, generations = router[0], router[4]
        kind = op[0]
        if kind == "reserve":
            shard = op[2]
            folded = self.fold and shard == self.last
            return shard, ("reserve", op[1], generations[shard], folded)
        if kind == "commit":
            return op[2][0], ("commit", op[1])
        if kind == "undo":
            action, shard = op[2][0]
            if action == "abort":
                return shard, ("abort", op[1])
            return shard, ("teardown", op[1], generations[shard])
        session, shard = op[1][0]
        return shard, ("teardown", session, generations[shard])

    def _after(self, router, shard: int, reply: str, faulted: bool):
        """The router once it read ``reply`` from ``shard``."""
        op, sessions, debts, admitted, generations, faults = router
        faults += faulted
        if reply == UNKNOWN and self.fenced:
            generations = tuple(
                g + (index == shard) for index, g in enumerate(generations)
            )
        kind, session = op[0], op[1]
        if kind == "reserve":
            leases = op[3]
            folded = self.fold and shard == self.last
            if reply == OK and folded:
                op = ("commit", session, leases, (shard,))
            elif reply == OK:
                leases += (shard,)
                if shard == self.last:
                    op = ("commit", session, leases, ())
                else:
                    op = ("reserve", session, shard + 1, leases)
            else:
                # An unknown folded reserve may have committed.
                owed = (shard,) if reply == UNKNOWN and folded else ()
                op = ("undo", session, tuple(("abort", i) for i in leases), owed)
        elif kind == "commit":
            pending, committed = op[2], op[3]
            if reply == OK:
                op = ("commit", session, pending[1:], committed + (shard,))
            else:
                # An unanswered shard may have committed: it is owed a
                # teardown and sent no abort.
                unanswered = reply == UNKNOWN
                aborts = pending[1:] if unanswered else pending
                op = (
                    "undo",
                    session,
                    tuple(("abort", i) for i in aborts)
                    + tuple(("teardown", i) for i in committed),
                    (shard,) if unanswered else (),
                )
        elif kind == "undo":
            exchanges, owed = op[2], op[3]
            if exchanges[0][0] == "teardown" and reply == UNKNOWN:
                owed += (shard,)
            op = ("undo", session, exchanges[1:], owed)
        else:  # flush: an answered teardown settles the debt, 404 or not
            to_visit = op[1]
            if reply != UNKNOWN:
                debts = tuple(debt for debt in debts if debt != to_visit[0])
            op = ("flush", to_visit[1:])
        # Finish what is finished.
        if op[0] == "commit" and not op[2]:
            sessions = tuple(sorted(sessions + (op[1],)))
            op = None
        elif op[0] == "undo" and not op[2]:
            debts = tuple(sorted(set(debts) | {(op[1], i) for i in op[3]}))
            op = None
        elif op[0] == "flush" and not op[1]:
            op = None
        return op, sessions, debts, admitted, generations, faults

    def _exchanges(self, state) -> Iterator[Tuple[str, tuple]]:
        """The router's next exchange, under every outcome the faults allow."""
        router, shards = state
        shard, request = self._request(router)
        label = f"{request[0]} {request[1]}@{shard}"
        target = shards[shard]
        applied, reply = _apply(target, request, self.fenced)

        def put(new_shard):
            return shards[:shard] + (new_shard,) + shards[shard + 1:]

        yield label, (self._after(router, shard, reply, False), put(applied))
        if router[5] >= self.instance.faults:
            return
        yield f"{label}, reply lost", (
            self._after(router, shard, UNKNOWN, True), put(applied)
        )
        free, held, fence, in_flight = target
        late = (free, held, fence, tuple(sorted(in_flight + (request,))))
        yield f"{label}, still in flight when the router gives up", (
            self._after(router, shard, UNKNOWN, True), put(late)
        )
        if request[0] == "reserve":
            yield f"{label}, refused", (
                self._after(router, shard, REFUSED, True), put(target)
            )

    def _router_starts(self, state) -> Iterator[Tuple[str, tuple]]:
        """What an idle router may start: an admission, a teardown, a flush."""
        router, shards = state
        _, sessions, debts, admitted, generations, faults = router
        if admitted < self.instance.sessions:
            session = f"s{admitted + 1}"
            op = ("reserve", session, 0, ())
            yield f"admit {session}", (
                (op, sessions, debts, admitted + 1, generations, faults), shards
            )
        for session in sessions:
            rest = tuple(s for s in sessions if s != session)
            every = tuple(("teardown", i) for i in range(self.instance.shards))
            yield f"tear down {session}", (
                (("undo", session, every, ()), rest, debts, admitted, generations,
                 faults),
                shards,
            )
        if debts:
            yield "anti-entropy pass", (
                (("flush", debts), sessions, debts, admitted, generations, faults),
                shards,
            )

    def _environment(self, state) -> Iterator[Tuple[str, tuple]]:
        """Late deliveries, lease expiries and shard restarts."""
        router, shards = state
        for index, shard in enumerate(shards):
            free, held, fence, in_flight = shard

            def put(new_shard, index=index):
                return shards[:index] + (new_shard,) + shards[index + 1:]

            for position, request in enumerate(in_flight):
                rest = in_flight[:position] + in_flight[position + 1:]
                landed, _ = _apply((free, held, fence, rest), request, self.fenced)
                yield f"the late {request[0]} {request[1]}@{index} lands", (
                    router, put(landed)
                )
            for unit in held:
                if unit[1] == LEASE:
                    expired = _release(shard, lambda other, unit=unit: other != unit)
                    yield f"lease {unit[0]}@{index} expires", (router, put(expired))
            if router[5] < self.instance.faults and shard != _FRESH_SHARD:
                restarted = router[:5] + (router[5] + 1,)
                yield f"shard {index} restarts", (restarted, put(_FRESH_SHARD))

    def successors(self, state) -> Iterator[Tuple[str, tuple]]:
        if state[0][0] is None:
            yield from self._router_starts(state)
        else:
            yield from self._exchanges(state)
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
        if router[0] is not None or any(shard[3] for shard in shards):
            return found
        # Quiescent: the reaper frees every lease, a fault-free
        # anti-entropy pass settles every debt, and then the router
        # tears down its own sessions.
        sessions, debts = router[1], router[2]
        for index, shard in enumerate(shards):
            settled = _release(
                shard,
                lambda unit: unit[1] == COMMITTED and (unit[0], index) not in debts,
            )
            for session, _ in settled[1]:
                if session not in sessions:
                    found.append(
                        f"phantom session: shard {index} holds {session}, "
                        "which the router never established"
                    )
            emptied = _release(settled, lambda unit: unit[0] not in sessions)
            if emptied[0] != CAPACITY:
                found.append(f"capacity lost on shard {index}: {emptied[1]}")
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
