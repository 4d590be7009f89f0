"""Kernel fast paths and the interrupt/condition fixes.

Covers the same-time FIFO lane (zero-delay events and process resumes
that skip the heap), the no-allocation resume on already-processed
targets, the interrupt callback-leak fix, and the AllOf
same-timestamp double-fire guards — on both the plain environment and
the instrumented (heap-only) sanitized one.
"""

import pytest

from repro.lint.sanitizer import SanitizedEnvironment
from repro.sim.engine import (
    Environment,
    Interrupt,
    SimulationError,
)

ENVS = [Environment, SanitizedEnvironment]


def _ids(cls):
    return cls.__name__


class TestSameTimeLane:
    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_zero_delay_chain_preserves_fifo_order(self, env_cls):
        env = env_cls()
        fired = []

        def proc(env, tag):
            for i in range(5):
                event = env.event()
                event.succeed((tag, i))
                got = yield event
                fired.append(got)

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        # Scheduling order is firing order: the two processes interleave
        # deterministically, one yield per loop turn each.
        assert fired == [
            value for i in range(5) for value in (("a", i), ("b", i))
        ]
        assert env.now == 0.0  # repro: noqa[RPR005] exact: determinism contract

    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_lane_and_heap_interleave_by_sequence(self, env_cls):
        env = env_cls()
        fired = []

        def late(env):
            yield env.timeout(1.0)
            fired.append("timeout")

        def immediate(env):
            event = env.event()
            event.succeed()
            yield event
            fired.append("immediate")
            yield env.timeout(2.0)
            fired.append("late-immediate")

        env.process(late(env))
        env.process(immediate(env))
        env.run()
        assert fired == ["immediate", "timeout", "late-immediate"]

    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_yield_already_processed_event_delivers_value(self, env_cls):
        env = env_cls()
        done = env.event()
        done.succeed("payload")
        env.run()
        assert done.processed

        def proc(env):
            got = yield done
            return got

        assert env.run(env.process(proc(env))) == "payload"

    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_yield_already_failed_event_raises(self, env_cls):
        env = env_cls()
        boom = env.event()
        boom.fail(RuntimeError("stale failure"))
        env.run()  # nobody waiting: the failure is parked on the event
        assert boom.processed and not boom.ok

        def proc(env):
            with pytest.raises(RuntimeError, match="stale failure"):
                yield boom
            return "survived"

        assert env.run(env.process(proc(env))) == "survived"

    def test_plain_and_sanitized_reach_identical_state(self):
        def workload(env, log):
            def worker(env, k):
                for i in range(3):
                    yield env.timeout(0.5 * k + 0.1)
                    gate = env.event()
                    gate.succeed(i)
                    got = yield gate
                    log.append((k, got, env.now))

            for k in range(4):
                env.process(worker(env, k))
            env.run()

        plain_log, sanitized_log = [], []
        plain = Environment()
        workload(plain, plain_log)
        sanitized = SanitizedEnvironment()
        workload(sanitized, sanitized_log)
        assert plain_log == sanitized_log
        assert plain.now == sanitized.now  # repro: noqa[RPR005] exact: determinism contract


class TestInterruptDetach:
    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_interrupt_detaches_stale_callback(self, env_cls):
        """Retry loops used to leak one dead callback per interrupt."""
        env = env_cls()
        gate = env.event()
        caught = []

        def waiter(env):
            while True:
                try:
                    yield gate
                except Interrupt:
                    caught.append(env.now)

        proc = env.process(waiter(env))

        def interrupter(env):
            for _ in range(50):
                yield env.timeout(1.0)
                proc.interrupt()

        env.process(interrupter(env))
        env.run(until=60.0)
        assert len(caught) == 50
        # Only the current wait's callback is attached; the 49 abandoned
        # waits were detached by interrupt().
        assert len(gate.callbacks) == 1

    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_interrupted_wait_still_fires_for_other_waiters(self, env_cls):
        env = env_cls()
        gate = env.event()
        log = []

        def patient(env):
            got = yield gate
            log.append(("patient", got))

        def impatient(env):
            try:
                yield gate
            except Interrupt:
                log.append(("impatient", "interrupted"))

        env.process(patient(env))
        proc = env.process(impatient(env))

        def driver(env):
            yield env.timeout(1.0)
            proc.interrupt()
            yield env.timeout(1.0)
            gate.succeed("value")

        env.process(driver(env))
        env.run()
        assert log == [("impatient", "interrupted"), ("patient", "value")]

    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_interrupt_after_pending_delivery_keeps_value(self, env_cls):
        """A resume already in flight (processed-target delivery) is not
        cancelled by an interrupt scheduled after it — matching the
        pre-fast-path ordering, the value lands first and the Interrupt
        is thrown at the following yield."""
        env = env_cls()
        done = env.event()
        done.succeed("first")
        env.run()
        log = []

        def victim(env):
            got = yield done  # already processed: delivery is in flight
            log.append(got)
            try:
                yield env.timeout(10.0)
            except Interrupt as intr:
                log.append(f"interrupted:{intr.cause}")

        proc = env.process(victim(env))

        def driver(env):
            if False:  # pragma: no cover - make this a generator
                yield
            proc.interrupt("late")
            return
            yield

        # Interrupt at t=0, scheduled after the bootstrap but before the
        # delivery has run.
        env.process(driver(env))
        env.run()
        assert log == ["first", "interrupted:late"]

    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_interrupt_finished_process_is_error(self, env_cls):
        env = env_cls()

        def quick(env):
            yield env.timeout(1.0)

        proc = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            proc.interrupt()


class TestConditionSameTimestamp:
    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_allof_two_failures_same_timestamp(self, env_cls):
        """Regression: the second same-time failure used to call fail()
        on the already-failed condition."""
        env = env_cls()
        first, second = env.event(), env.event()
        outcome = []

        def waiter(env):
            try:
                yield env.all_of([first, second])
            except RuntimeError as exc:
                outcome.append(str(exc))

        env.process(waiter(env))

        def failer(env):
            yield env.timeout(1.0)
            first.fail(RuntimeError("first failure"))
            second.fail(RuntimeError("second failure"))

        env.process(failer(env))
        env.run()
        assert outcome == ["first failure"]

    @pytest.mark.parametrize("env_cls", ENVS, ids=_ids)
    def test_allof_failure_and_success_same_timestamp(self, env_cls):
        env = env_cls()
        ok, bad = env.event(), env.event()
        outcome = []

        def waiter(env):
            try:
                yield env.all_of([bad, ok])
            except RuntimeError as exc:
                outcome.append(str(exc))

        env.process(waiter(env))

        def driver(env):
            yield env.timeout(1.0)
            bad.fail(RuntimeError("boom"))
            ok.succeed("fine")

        env.process(driver(env))
        env.run()
        assert outcome == ["boom"]
