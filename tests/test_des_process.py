"""Tests for generator-based processes: resumption and failure."""

import pytest

from repro.des import Environment


class TestBasics:
    def test_requires_generator(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_returns_generator_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2)
            return 99

        process = env.process(proc(env))
        env.run()
        assert process.value == 99

    def test_processes_can_wait_on_each_other(self):
        env = Environment()

        def child(env):
            yield env.timeout(5)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return f"got {result} at {env.now}"

        parent_process = env.process(parent(env))
        env.run()
        assert parent_process.value == "got child-result at 5.0"

    def test_waiting_on_already_finished_process(self):
        env = Environment()

        def quick(env):
            return 7
            yield  # pragma: no cover - makes this a generator

        def waiter(env, target):
            yield env.timeout(10)
            value = yield target
            return value

        target = env.process(quick(env))
        waiter_process = env.process(waiter(env, target))
        env.run()
        assert waiter_process.value == 7

    def test_yielding_non_event_fails_the_process(self):
        env = Environment()

        def bad(env):
            yield 42

        process = env.process(bad(env))
        with pytest.raises(RuntimeError, match="non-event"):
            env.run()
        with pytest.raises(RuntimeError, match="non-event"):
            process.value

    def test_exception_in_process_propagates_if_unwaited(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise ValueError("kaput")

        env.process(bad(env))
        with pytest.raises(ValueError, match="kaput"):
            env.run()

    def test_exception_can_be_caught_by_waiter(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise ValueError("kaput")

        def waiter(env, target):
            try:
                yield target
            except ValueError as exc:
                return f"caught {exc}"

        waiter_process = env.process(waiter(env, env.process(bad(env))))
        env.run()
        assert waiter_process.value == "caught kaput"
