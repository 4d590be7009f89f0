"""Tests for the runtime simulation sanitizer (repro.lint.sanitizer)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cloud.queue import MessageQueue
from repro.lint import threadsan
from repro.lint.pytest_plugin import pytest_report_header
from repro.lint.sanitizer import (
    SanitizedEnvironment,
    SanitizerError,
)
from repro.lint.threadsan import MonitoredLock
from repro.sim.engine import (
    Environment,
    IdleWait,
    make_environment,
    monitor_lock,
    sanitize_requested,
)


def make_queue(env, **kwargs):
    defaults = dict(
        rng=np.random.default_rng(11),
        visibility_timeout_s=10.0,
        request_latency_s=0.010,
        latency_sigma=0.0,
        propagation_delay_s=0.0,
        miss_probability=0.0,
    )
    defaults.update(kwargs)
    return MessageQueue(env, "tasks", **defaults)


def drive(env, gen):
    return env.run(until=env.process(gen))


class TestFactory:
    def test_default_is_plain_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        env = make_environment()
        assert type(env) is Environment

    # Every REPRO_SANITIZE token: (DES sanitizer, thread sanitizer).
    @pytest.mark.parametrize(
        "raw, des, threads",
        [
            ("", False, False),
            ("threads", False, True),
            ("1", True, False),
            ("sim,threads", True, True),
            ("all", True, True),
            ("off", False, False),
            ("true", True, False),
            ("sim", True, False),
            ("0", False, False),
            ("false", False, False),
            ("ALL", True, True),
            ("1 threads", True, True),
            ("off,threads", False, True),
        ],
        ids=[
            "empty", "threads", "1", "sim,threads", "all", "off", "true",
            "sim", "0", "false", "ALL", "1 threads", "off,threads",
        ],
    )
    def test_env_var_tokens(self, monkeypatch, raw, des, threads):
        # The event loop, the threaded runtimes' hooks and the pytest
        # header all read REPRO_SANITIZE through sanitize_requested.
        monkeypatch.setenv("REPRO_SANITIZE", raw)
        monkeypatch.setattr(threadsan, "_active", None)
        kinds = {"sim": des, "threads": threads}
        assert sanitize_requested() == {k for k, on in kinds.items() if on}
        assert isinstance(make_environment(), SanitizedEnvironment) is des
        assert isinstance(monitor_lock("x"), MonitoredLock) is threads
        assert pytest_report_header(None) == (
            f"repro sanitizer: {'on' if des else 'off'} "
            f"(threads: {'on' if threads else 'off'})"
        )

    @pytest.mark.parametrize("raw", ["none", "no", "thread", "bogus", "1,x"])
    def test_unknown_tokens_are_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SANITIZE", raw)
        monkeypatch.setattr(threadsan, "_active", None)
        token = repr(raw.split(",")[-1])
        for read in (
            make_environment,
            lambda: monitor_lock("x"),
            lambda: pytest_report_header(None),
        ):
            with pytest.raises(ValueError, match=re.escape(token)):
                read()

    def test_cli_run_rejects_unknown_token_on_a_cache_hit(self, tmp_path):
        # The first run fills the cache, so the second would build no
        # event loop: the token must still be read, and rejected.
        argv = ["run", "--app", "cap3", "--files", "2", "--instances", "1"]
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).parent.parent / "src"),
            REPRO_CACHE_DIR=str(tmp_path),
        )
        env.pop("REPRO_NO_CACHE", None)
        env.pop("REPRO_SANITIZE", None)
        first = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True,
        )
        assert first.returncode == 0, first.stderr
        env["REPRO_SANITIZE"] = "bogus"
        second = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True,
        )
        assert second.returncode == 2
        (line,) = second.stdout.splitlines()  # before the cache lookup
        assert line.startswith("error:") and "'bogus'" in line

    def test_explicit_flag_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert type(make_environment(sanitize=False)) is Environment
        monkeypatch.delenv("REPRO_SANITIZE")
        assert isinstance(
            make_environment(sanitize=True), SanitizedEnvironment
        )


class TestTrace:
    def test_trace_records_every_fired_event(self):
        env = SanitizedEnvironment()

        def ticker(env):
            for _ in range(3):
                yield env.timeout(1.0)

        env.process(ticker(env), name="ticker")
        env.run()
        assert env.trace
        assert any("ticker" in line for line in env.trace)
        report = env.sanitizer_report()
        assert report.events_fired == len(env.trace)

    def test_trace_is_deterministic_across_runs(self):
        def play():
            env = SanitizedEnvironment()
            q = make_queue(env)

            def producer(env):
                for i in range(5):
                    yield env.process(q.send(i))

            def consumer(env):
                got = 0
                while got < 5:
                    msg = yield env.process(q.receive())
                    if msg is None:
                        yield env.timeout(0.1)
                        continue
                    yield env.process(q.delete(msg))
                    got += 1

            env.process(producer(env), name="producer")
            done = env.process(consumer(env), name="consumer")
            env.run(until=done)
            return env.trace_text()

        assert play() == play()

    def test_same_time_ties_counted(self):
        env = SanitizedEnvironment()

        def twin(env):
            yield env.timeout(1.0)

        env.process(twin(env), name="a")
        env.process(twin(env), name="b")
        env.run()
        assert env.same_time_ties > 0


class TestViolations:
    def test_reenqueue_of_processed_event_raises(self):
        env = SanitizedEnvironment(strict=True)
        event = env.event()
        event.succeed("x")
        env.run()
        assert event.processed
        with pytest.raises(SanitizerError):
            env._enqueue(event, 0.0)

    def test_poll_entry_armed_twice_for_one_cycle_raises(self):
        # A poll entry is re-armed in place and never marked processed,
        # so only the sanitizer's in-heap tracking can see a second arm.
        env = SanitizedEnvironment(strict=True)
        q = make_queue(env)
        env.process(q.poll(lambda: True, 1.0), name="poller")
        env.step()  # the bootstrap parks the poller; its entry is armed
        (entry,) = [item[2] for item in env._heap]
        assert entry.name == "queue.poll"
        assert not entry.processed
        with pytest.raises(SanitizerError, match="enqueued again"):
            entry._request()

    def test_non_strict_mode_records_instead(self):
        env = SanitizedEnvironment(strict=False)
        event = env.event()
        event.succeed("x")
        env.run()
        env._enqueue(event, 0.0)
        env.run()
        report = env.sanitizer_report()
        assert report.double_triggers
        assert report.issues

    def test_pending_process_reported(self):
        env = SanitizedEnvironment()

        def waiter(env):
            yield env.event()  # nobody will ever trigger this

        env.process(waiter(env), name="stuck")
        env.run()
        report = env.sanitizer_report()
        assert any("stuck" in finding for finding in report.pending_processes)

    def test_idle_waits_counted_apart_from_stuck_processes(self):
        env = SanitizedEnvironment()

        def idler(env):
            yield IdleWait(env)  # a poller or slot with no work

        def waiter(env):
            yield env.event()  # hand-made: nobody will trigger it

        env.process(idler(env), name="idler")
        env.process(waiter(env), name="stuck")
        env.run()
        report = env.sanitizer_report()
        assert report.idle_processes == 1
        assert len(report.pending_processes) == 1
        assert "stuck" in report.pending_processes[0]

    def test_waits_on_triggered_events_counted_apart(self):
        env = SanitizedEnvironment()
        done = env.event()

        def loser(env):
            yield env.timeout(10.0)  # still in the heap when the run ends

        def winner(env):
            yield env.timeout(1.0)
            done.succeed()

        env.process(loser(env), name="loser")
        env.process(winner(env), name="winner")
        env.run(until=done)
        report = env.sanitizer_report()
        assert report.scheduled_processes == 1
        assert report.pending_processes == []
        assert "(losing attempts): 1" in report.summary()

    def test_finished_processes_not_reported(self):
        env = SanitizedEnvironment()

        def quick(env):
            yield env.timeout(1.0)

        env.process(quick(env), name="quick")
        env.run()
        assert env.sanitizer_report().pending_processes == []


class TestQueueLeakDetection:
    def test_queue_self_registers_on_sanitized_env(self):
        env = SanitizedEnvironment()
        q = make_queue(env)
        assert q in env._queues

    def test_stale_receipt_without_reaccounting_is_a_leak(self):
        env = SanitizedEnvironment()
        q = make_queue(env, visibility_timeout_s=5.0)
        drive(env, q.send("t"))
        msg = drive(env, q.receive())
        assert msg is not None
        # Let the visibility timeout lapse with no further receives:
        # nobody runs the reappearance accounting, the message is lost
        # to consumers — the at-least-once story is broken.
        env.run(until=env.now + 60.0)
        report = env.sanitizer_report()
        assert len(report.queue_leaks) == 1
        assert "went stale" in report.queue_leaks[0]

    def test_reappearance_accounting_clears_the_leak(self):
        env = SanitizedEnvironment()
        q = make_queue(env, visibility_timeout_s=5.0)
        drive(env, q.send("t"))
        drive(env, q.receive())
        env.run(until=env.now + 60.0)
        msg = drive(env, q.receive())  # promotes the reappeared message
        assert msg is not None
        drive(env, q.delete(msg))
        assert env.sanitizer_report().queue_leaks == []

    def test_clean_consume_has_no_leaks(self):
        env = SanitizedEnvironment()
        q = make_queue(env)
        drive(env, q.send("t"))
        msg = drive(env, q.receive())
        drive(env, q.delete(msg))
        report = env.sanitizer_report()
        assert report.queue_leaks == []
        assert report.issues == []


class TestPytestIntegration:
    def test_sanitized_env_fixture(self, sanitized_env):
        assert isinstance(sanitized_env, SanitizedEnvironment)

        def proc(env):
            yield env.timeout(1.0)

        sanitized_env.process(proc(sanitized_env), name="p")
        sanitized_env.run()
        assert sanitized_env.now == pytest.approx(1.0)

    def test_report_summary_mentions_counts(self):
        env = SanitizedEnvironment()

        def proc(env):
            yield env.timeout(1.0)

        env.process(proc(env), name="p")
        env.run()
        summary = env.sanitizer_report().summary()
        assert "events fired" in summary
        assert "same-time ties" in summary
