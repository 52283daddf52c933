"""Tests for named random streams: determinism and independence."""

import random
import zlib

import numpy as np
import pytest

from repro.des import RandomStreams


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42)
        b = RandomStreams(42)
        assert [a.uniform("x", 0, 1) for _ in range(5)] == [
            b.uniform("x", 0, 1) for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        a = RandomStreams(1)
        b = RandomStreams(2)
        assert a.uniform("x", 0, 1) != b.uniform("x", 0, 1)

    def test_streams_are_independent_of_creation_order(self):
        a = RandomStreams(7)
        _ = a.uniform("first", 0, 1)
        value_a = a.uniform("second", 0, 1)
        b = RandomStreams(7)
        value_b = b.uniform("second", 0, 1)
        assert value_a == value_b

    def test_consuming_one_stream_does_not_shift_another(self):
        a = RandomStreams(7)
        for _ in range(100):
            a.uniform("noise", 0, 1)
        value_a = a.exponential("arrivals", 1.0)
        b = RandomStreams(7)
        value_b = b.exponential("arrivals", 1.0)
        assert value_a == value_b


class TestValidationAndHelpers:
    def test_seed_must_be_int(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")

    def test_exponential_mean_positive(self):
        with pytest.raises(ValueError):
            RandomStreams(0).exponential("x", 0)

    def test_uniform_range_validated(self):
        with pytest.raises(ValueError):
            RandomStreams(0).uniform("x", 2, 1)

    def test_exponential_statistics(self):
        streams = RandomStreams(123)
        draws = [streams.exponential("e", 2.0) for _ in range(4000)]
        assert abs(np.mean(draws) - 2.0) < 0.15


def _numpy_stream(seed: int, name: str) -> np.random.Generator:
    """The numpy generator the pure-Python stream reimplements."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


_SEED_RNG = random.Random(2026)
_SEEDS = [0, 1, 7, 11, 13, 2**31 - 1, 2**32, 2**64 - 1] + [
    _SEED_RNG.getrandbits(_SEED_RNG.randint(8, 64)) for _ in range(200)
]
_NAMES = ["capacities", "arrivals", "random-planner", "x", "été"]
_RANGES = [(0.0, 1.0), (1000.0, 4000.0), (-3.5, 2.25), (5.0, 5.0)]


class TestPCG64Stream:
    """``RandomStreams.pcg64`` is numpy's uniform stream, bit for bit."""

    @pytest.mark.parametrize("name", _NAMES)
    def test_uniform_draws_equal_numpys(self, name):
        mismatches = []
        for seed in _SEEDS:
            ours = RandomStreams(seed).pcg64(name)
            oracle = _numpy_stream(seed, name)
            for low, high in _RANGES:
                for _ in range(50):
                    mine, theirs = ours.uniform(low, high), float(oracle.uniform(low, high))
                    if mine != theirs:
                        mismatches.append((seed, low, high, mine, theirs))
        assert mismatches == []

    def test_raw_outputs_equal_numpys(self):
        ours = RandomStreams(7).pcg64("capacities")
        oracle = _numpy_stream(7, "capacities").bit_generator
        assert [ours.next64() for _ in range(100)] == [
            int(value) for value in oracle.random_raw(100)
        ]

    def test_stream_is_memoised_per_name(self):
        streams = RandomStreams(7)
        assert streams.pcg64("a") is streams.pcg64("a")
        assert streams.pcg64("a") is not streams.pcg64("b")

    def test_pcg64_and_stream_are_separate_families(self):
        streams = RandomStreams(7)
        streams.pcg64("a").uniform(0, 1)
        assert streams.uniform("a", 0, 1) == RandomStreams(7).uniform("a", 0, 1)

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_grid_capacities_equal_the_numpy_draw(self, seed):
        from repro.des.engine import Environment
        from repro.sim.environment import GridEnvironment

        grid = GridEnvironment(Environment(), RandomStreams(seed))
        oracle = _numpy_stream(seed, "capacities")
        pools = [grid.cpu_brokers[h] for h in sorted(grid.cpu_brokers)] + [
            grid.link_brokers[link] for link in sorted(grid.link_brokers)
        ]
        assert [broker.capacity for broker in pools] == [
            float(oracle.uniform(1000.0, 4000.0)) for _ in pools
        ]

    def test_numpy_integer_seed_is_accepted(self):
        streams = RandomStreams(np.int64(7))
        assert streams.seed == 7 and type(streams.seed) is int
        assert streams.pcg64("x").uniform(0, 1) == RandomStreams(7).pcg64("x").uniform(0, 1)

    def test_negative_seed_is_refused_like_numpy(self):
        with pytest.raises(ValueError):
            RandomStreams(-1).pcg64("x")
