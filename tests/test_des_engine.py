"""Tests for the DES engine: clock, scheduling, run modes."""

import pytest

from repro.des import Environment


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_time_advances_with_timeouts(self):
        env = Environment()
        env.timeout(3.0)
        env.run()
        assert env.now == 3.0

    def test_run_until_number_advances_clock_even_when_idle(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self):
        env = Environment()
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)


class TestEvents:
    def test_value_before_trigger_raises(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)

        with pytest.raises(RuntimeError, match="pending"):
            env.process(proc(env)).value

    def test_failed_event_raises_on_value(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise ValueError("boom")

        process = env.process(bad(env))
        with pytest.raises(ValueError):
            env.run()
        with pytest.raises(ValueError, match="boom"):
            process.value

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)


class TestOrdering:
    def test_events_fire_in_time_order(self):
        env = Environment()
        order = []
        for delay in (5.0, 1.0, 3.0):
            env.timeout(delay).callbacks.append(lambda _e, d=delay: order.append(d))
        env.run()
        assert order == [1.0, 3.0, 5.0]

    def test_same_time_events_fire_in_insertion_order(self):
        env = Environment()
        order = []
        for tag in "abc":
            env.timeout(1.0).callbacks.append(lambda _e, t=tag: order.append(t))
        env.run()
        assert order == ["a", "b", "c"]

    def test_process_started_at_t_runs_before_an_earlier_timeout_due_at_t(self):
        """The contract the simulator's digests rest on: an arrival at t
        starts its session before a departure due at t is processed,
        though the departure was scheduled first."""
        env = Environment()
        order = []

        def session(env):
            order.append(("session", env.now))
            yield env.timeout(0)

        def arrivals(env):
            yield env.timeout(5)
            env.process(session(env))

        env.process(arrivals(env))
        env.run(until=1)  # arrivals now waits on its timeout due at 5
        env.timeout(4).callbacks.append(lambda _e: order.append(("departure", env.now)))
        env.run()
        assert order == [("session", 5.0), ("departure", 5.0)]

    def test_run_until_number_excludes_later_events(self):
        env = Environment()
        fired = []
        env.timeout(1.0).callbacks.append(lambda _e: fired.append(1))
        env.timeout(9.0).callbacks.append(lambda _e: fired.append(9))
        env.run(until=5.0)
        assert fired == [1]

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(2.5)
        assert env.peek() == 2.5
