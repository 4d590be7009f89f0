"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc(env))
    assert env.run(until=p) == 5.0
    assert env.now == 5.0  # repro: noqa[RPR005] exact: determinism contract


def test_timeout_value_passthrough():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="hello")
        return got

    assert env.run(until=env.process(proc(env))) == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_zero_delay_events_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(0.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_same_time_ordering_is_schedule_order():
    env = Environment()
    seen = []

    def proc(env, tag, delay):
        yield env.timeout(delay)
        seen.append(tag)

    env.process(proc(env, "a", 3.0))
    env.process(proc(env, "b", 3.0))
    env.process(proc(env, "c", 1.0))
    env.run()
    assert seen == ["c", "a", "b"]


def test_process_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return result + 1

    assert env.run(until=env.process(parent(env))) == 43


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(until=env.process(parent(env))) == "caught boom"


def test_uncaught_process_exception_surfaces():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()

    def opener(env):
        yield env.timeout(3.0)
        gate.succeed("open sesame")

    def waiter(env):
        value = yield gate
        return (env.now, value)

    env.process(opener(env))
    assert env.run(until=env.process(waiter(env))) == (3.0, "open sesame")


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(ValueError())


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(KeyError("nope"))

    def waiter(env):
        try:
            yield gate
        except KeyError:
            return "failed as expected"

    env.process(failer(env))
    assert env.run(until=env.process(waiter(env))) == "failed as expected"


def test_wait_on_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run()  # process the event fully

    def late(env):
        value = yield ev
        return value

    assert env.run(until=env.process(late(env))) == "early"


def test_interrupt_raises_interrupt_with_cause():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            return ("interrupted", intr.cause, env.now)

    p = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(4.0)
        p.interrupt("wake up")

    env.process(interrupter(env))
    assert env.run(until=p) == ("interrupted", "wake up", 4.0)


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_keep_running():
    env = Environment()

    def resilient(env):
        total = 0.0
        try:
            yield env.timeout(50.0)
            total += 50.0
        except Interrupt:
            pass
        yield env.timeout(2.0)
        return env.now

    p = env.process(resilient(env))

    def interrupter(env):
        yield env.timeout(10.0)
        p.interrupt()

    env.process(interrupter(env))
    assert env.run(until=p) == 12.0


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        events = [env.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
        fired = yield env.all_of(events)
        return (env.now, sorted(fired.values()))

    assert env.run(until=env.process(proc(env))) == (3.0, [1.0, 2.0, 3.0])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        result = yield env.all_of([])
        return result

    assert env.run(until=env.process(proc(env))) == {}


def test_run_until_time_stops_and_sets_clock():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=7.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert env.now == 7.5  # repro: noqa[RPR005] exact: determinism contract


def test_run_until_event_deadlock_detection():
    env = Environment()
    never = env.event()

    def waiter(env):
        yield never

    p = env.process(waiter(env))
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=p)


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="expected an Event"):
        env.run()


def test_peek_and_step():
    env = Environment()
    env.timeout(3.0)
    env.timeout(1.0)
    assert env.peek() == 0.0 or env.peek() <= 3.0  # timeouts scheduled at delays
    env.run()
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_condition_propagates_failure():
    env = Environment()
    good = env.timeout(5.0)
    bad = env.event()

    def failer(env):
        yield env.timeout(1.0)
        bad.fail(ValueError("broken"))

    def waiter(env):
        try:
            yield env.all_of([good, bad])
        except ValueError:
            return "failed"

    env.process(failer(env))
    assert env.run(until=env.process(waiter(env))) == "failed"


def test_nested_processes_three_deep():
    env = Environment()

    def grandchild(env):
        yield env.timeout(1.0)
        return 1

    def child(env):
        value = yield env.process(grandchild(env))
        yield env.timeout(1.0)
        return value + 1

    def parent(env):
        value = yield env.process(child(env))
        yield env.timeout(1.0)
        return value + 1

    assert env.run(until=env.process(parent(env))) == 3
    assert env.now == 3.0  # repro: noqa[RPR005] exact: determinism contract


def test_environment_initial_time():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0  # repro: noqa[RPR005] exact: determinism contract

    def proc(env):
        yield env.timeout(5.0)
        return env.now

    assert env.run(until=env.process(proc(env))) == 105.0
