"""The lease / two-phase-commit protocol, checked exhaustively.

:mod:`tests.protocol_model` explores every interleaving of one router
and up to three shards with at most two faults.  The protocol before the
fold and the fenced fold must hold every property in every instance; the
fold without the fence must not: a folded reserve that lands after the
anti-entropy pass settled its debt commits a session no router owns.
"""

import time

import pytest

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
    for result in results.values():
        assert result.states > 100, result
        assert result.transitions > result.states, result
    # More shards, more states: the bound is not cut short.
    for variant in VARIANTS:
        counts = [results[(variant, shards)].states for shards in (1, 2, 3)]
        assert counts == sorted(counts) and len(set(counts)) == 3, counts


@pytest.mark.parametrize("variant", ["two_phase", "fold_fenced"])
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
        "the late reserve s1@0 lands",
    ]


def _replay(instance, labels):
    """Follow ``labels`` through ``instance``'s transitions: the end state."""
    model = Model(instance)
    state = initial_state(instance)
    for label in labels:
        moves = dict(model.successors(state))
        assert label in moves, (label, sorted(moves))
        state = moves[label]
    return model, state


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
