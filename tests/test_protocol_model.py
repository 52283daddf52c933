"""The cluster admission protocol, checked exhaustively.

:mod:`tests.protocol_model` drives both protocol cores
(:mod:`repro.cluster.protocol`) through every interleaving of one router
and up to three shards with at most two faults.  The fenced fold, the
protocol that ships, must hold every property in every instance; the
same cores with a fence test that never refuses must not: a folded
reserve that lands after the anti-entropy pass settled its debt commits
a session no router owns.  Because the model runs the cores, a mutant of
either core that breaks a property is caught here; a mutant of what the
model never sends (a plain commit) is caught by a daemon test instead.
"""

import inspect
import time

import pytest

from repro.cluster import protocol
from tests.test_cluster import commit_after_teardown
from tests.protocol_model import (
    VARIANTS,
    Instance,
    Model,
    explore,
    explore_all,
    initial_state,
)

#: The budget for exploring every bounded instance of every variant.
BUDGET_SECONDS = 30.0

#: (variant, shards) -> (states, transitions) the search reaches.
EXPLORED = {
    ("fold_unfenced", 1): (2138, 5006),
    ("fold_unfenced", 2): (12940, 31644),
    ("fold_unfenced", 3): (57290, 154686),
    ("fold_fenced", 1): (1984, 4763),
    ("fold_fenced", 2): (11294, 28816),
    ("fold_fenced", 3): (48836, 137703),
}


@pytest.fixture(scope="module")
def results():
    started = time.perf_counter()
    found = explore_all(max_shards=3, faults=2)
    elapsed = time.perf_counter() - started
    assert elapsed < BUDGET_SECONDS, elapsed
    return {(r.instance.variant, r.instance.shards): r for r in found}


def test_every_bounded_instance_is_explored(results):
    assert set(results) == {
        (variant, shards) for variant in VARIANTS for shards in (1, 2, 3)
    }
    explored = {
        key: (result.states, result.transitions) for key, result in results.items()
    }
    assert explored == EXPLORED


@pytest.mark.parametrize("variant", ["fold_fenced"])
def test_the_protocol_holds_every_property(results, variant):
    for shards in (1, 2, 3):
        result = results[(variant, shards)]
        assert result.violating == 0, (result.counterexample, result.violations)


def test_the_unfenced_fold_leaves_a_phantom_session(results):
    for shards in (1, 2, 3):
        result = results[("fold_unfenced", shards)]
        assert result.violating > 0
        assert any("phantom session" in v for v in result.violations)
    shortest = results[("fold_unfenced", 1)].counterexample
    assert shortest == [
        "admit s1",
        "reserve s1@0, still in flight when the router gives up",
        "anti-entropy pass",
        "teardown s1@0",
        "the late reserve s1@0 of generation 1 lands",
    ]


def _moves(model, state):
    """label -> the successors of ``state`` it names."""
    moves = {}
    for label, successor in model.successors(state):
        moves.setdefault(label, set()).add(successor)
    return moves


def _replay(instance, labels):
    """Follow ``labels`` through ``instance``'s transitions: the end state.

    A label that names two successors is refused: a replay would follow
    whichever came last.
    """
    model = Model(instance)
    state = initial_state(instance)
    for label in labels:
        moves = _moves(model, state)
        assert label in moves, (label, sorted(moves))
        assert len(moves[label]) == 1, (label, "names two successors")
        (state,) = moves[label]
    return model, state


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shards", [1, 2])
def test_every_label_names_one_successor(variant, shards):
    """Walk every reachable state: no state has two successors under one
    label (two late exchanges that differ only in their generation once
    shared one), so every counterexample replays as it was found."""
    instance = Instance(variant, shards)
    model = Model(instance)
    initial = initial_state(instance)
    seen, stack, ambiguous = {initial}, [initial], []
    while stack:
        state = stack.pop()
        for label, successors in _moves(model, state).items():
            if len(successors) > 1:
                ambiguous.append(label)
            stack.extend(successors - seen)
            seen |= successors
    assert len(seen) == EXPLORED[(variant, shards)][0]
    assert ambiguous == []


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_the_fence_refuses_the_late_folded_reserve(results, shards):
    """The unfenced counterexample, step for step, under the fence: the
    same late reserve lands and is refused, so nothing is held."""
    labels = results[("fold_unfenced", shards)].counterexample
    model, state = _replay(Instance("fold_unfenced", shards), labels)
    assert any("phantom session" in v for v in model.violations(state))
    model, state = _replay(Instance("fold_fenced", shards), labels)
    assert model.violations(state) == []
    _, shards_state = state
    assert all(not held for _, held, _, _ in shards_state)


def test_an_unknown_variant_is_refused():
    with pytest.raises(ValueError):
        explore(Instance("three_phase", 1))


#: name -> (source of :mod:`repro.cluster.protocol`, what the mutant has
#: instead).  Each must leave a violating state at 2 shards.  The last
#: two are of the shard core.
MUTANTS = {
    "no generation bump on an unknown outcome": (
        "            self.generations[shard] += 1\n",
        "            pass\n",
    ),
    "an unknown folded reserve owes no teardown": (
        "            self.owed += (shard,)\n",
        "            pass\n",
    ),
    "a failed round keeps its committed slices": (
        "        if self.refusal is not None and self.committed:\n",
        "        if False:\n",
    ),
    "an unknown teardown owes no debt": (
        "        if self.known:\n"
        "            self.core.owe(self.session, self.owed)\n",
        "",
    ),
    "the anti-entropy pass settles a debt whose teardown was unknown": (
        "        debts.pop(self.session, None)\n"
        "        self.core.owe(self.session, self.owed)\n",
        "        debts.pop(self.session, None)\n",
    ),
    "the reserve skips the fence test": (
        "        if self.stale(generation):\n"
        "            return None\n",
        "",
    ),
    "the teardown does not raise the fence": (
        "        self.fence = max(self.fence, generation or 0)\n"
        "        known = ",
        "        known = ",
    ),
}

#: Mutants of the shard core's plain ``/v1/commit``, which no router
#: sends: the daemon test of a commit after its session's teardown must
#: catch each.
DAEMON_MUTANTS = {
    "a commit of a lease that is no longer live is accepted": (
        "        if lease is not None:\n"
        "            self._commit(lease, record)\n",
        "        lease = lease or self.leases.hold(lease_id.partition('@')[0], {}, self.holder)\n"
        "        self._commit(lease, record)\n",
    ),
}


def _patch_core(monkeypatch, original, mutated):
    """Patch :mod:`repro.cluster.protocol`'s cores with ``original``'s
    source replaced by ``mutated``."""
    source = inspect.getsource(protocol)
    assert source.count(original) == 1, original
    namespace = {"__name__": protocol.__name__}
    mutant = compile(source.replace(original, mutated), protocol.__file__, "exec")
    exec(mutant, namespace)
    for cls in (protocol.RouterCore, protocol._Operation, protocol.Admission,
                protocol.Teardown, protocol.Flush, protocol.ShardCore):
        for attribute, value in vars(namespace[cls.__name__]).items():
            if inspect.isfunction(value):
                monkeypatch.setattr(cls, attribute, value)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_model_catches_a_mutant_core(monkeypatch, name):
    """The model explores the core that ships: each mutant of the core's
    decisions, patched in, leaves a state that breaks a property."""
    _patch_core(monkeypatch, *MUTANTS[name])
    result = explore(Instance("fold_fenced", 2))
    assert result.violating > 0, name


@pytest.mark.parametrize("name", sorted(DAEMON_MUTANTS))
def test_the_daemon_test_catches_a_mutant_commit(monkeypatch, name):
    """The router sends no plain commit, so the model cannot reach the
    shard core's ``commit``; the daemon's own test does."""
    assert commit_after_teardown() == (404, False)
    _patch_core(monkeypatch, *DAEMON_MUTANTS[name])
    assert commit_after_teardown() != (404, False), name
