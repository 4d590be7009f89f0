"""Edge-case coverage for the DES kernel beyond the basic suite."""

import pytest

from repro.sim import (
    Environment,
    Interrupt,
    SimulationError,
)


class TestInterruptInteractions:
    def test_double_interrupt_second_after_death_is_error(self):
        env = Environment()

        def victim(env):
            try:
                yield env.timeout(10.0)
            except Interrupt:
                return "dead"

        p = env.process(victim(env))

        def killer(env):
            yield env.timeout(1.0)
            p.interrupt()
            yield env.timeout(1.0)
            try:
                p.interrupt()
            except SimulationError:
                return "second interrupt rejected"

        k = env.process(killer(env))
        assert env.run(until=k) == "second interrupt rejected"


class TestEventReuse:
    def test_many_waiters_one_event(self):
        env = Environment()
        gate = env.event()
        results = []

        def waiter(env, tag):
            value = yield gate
            results.append((tag, value, env.now))

        for tag in range(5):
            env.process(waiter(env, tag))

        def opener(env):
            yield env.timeout(3.0)
            gate.succeed("go")

        env.process(opener(env))
        env.run()
        assert results == [(tag, "go", 3.0) for tag in range(5)]

    def test_condition_over_processes_and_timeouts(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1.0)
            return "quick"

        def proc(env):
            both = yield env.all_of(
                [env.process(quick(env)), env.timeout(10.0, value="slow")]
            )
            return sorted(both.values())

        assert env.run(until=env.process(proc(env))) == ["quick", "slow"]
        assert env.now == 10.0  # repro: noqa[RPR005] exact: determinism contract


class TestClockDiscipline:
    def test_no_event_fires_after_until(self):
        env = Environment()
        fired = []

        def late(env):
            yield env.timeout(100.0)
            fired.append(env.now)

        env.process(late(env))
        env.run(until=50.0)
        assert fired == []
        assert env.now == 50.0  # repro: noqa[RPR005] exact: determinism contract
        env.run()  # resume to exhaustion
        assert fired == [100.0]

    def test_simulation_is_deterministic_across_runs(self):
        def build_and_run():
            env = Environment()
            log = []

            def chatty(env, tag, period):
                while env.now < 10.0:
                    yield env.timeout(period)
                    log.append((round(env.now, 6), tag))

            env.process(chatty(env, "a", 0.7))
            env.process(chatty(env, "b", 1.1))
            env.process(chatty(env, "c", 0.3))
            env.run(until=10.0)
            return log

        assert build_and_run() == build_and_run()
