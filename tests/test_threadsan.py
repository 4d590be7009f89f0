"""Tests for the runtime thread sanitizer (repro.lint.threadsan).

The centrepiece is the regression pair the sanitizer exists for: a
fixture runtime with a *deliberate* lock-order inversion and a
*deliberate* unsynchronized shared-dict write must produce exactly
those two findings — and the shipped threaded runtimes must stay
silent under the same instrumentation.
"""

import threading

import pytest

from repro.lint import threadsan
from repro.lint.threadsan import (
    LOCK_ORDER_CODE,
    RACE_CODE,
    MonitoredLock,
    ThreadSanitizer,
)
from repro.sim.engine import monitor, monitor_lock


@pytest.fixture
def sanitizer():
    san = threadsan.install(ThreadSanitizer())
    yield san
    threadsan.uninstall()


class BuggyRuntime:
    """A fixture runtime seeded with the two classic concurrency bugs.

    * ``run_inversion`` acquires its two locks in opposite orders on two
      paths (serialized by a join so the test itself cannot deadlock);
    * ``run_race`` lets two workers write one shared dict with no lock.
    """

    def __init__(self) -> None:
        self.lock_a = monitor_lock("BuggyRuntime.lock_a")
        self.lock_b = monitor_lock("BuggyRuntime.lock_b")
        self.shared = monitor({}, "BuggyRuntime.shared")

    def run_inversion(self) -> None:
        def forward():
            with self.lock_a:
                with self.lock_b:  # repro: noqa[RPR102] seeded on purpose
                    pass

        def backward():
            with self.lock_b:
                with self.lock_a:
                    pass

        first = threading.Thread(target=forward)
        first.start()
        first.join()
        second = threading.Thread(target=backward)
        second.start()
        second.join()

    def run_race(self) -> None:
        # Barrier: both writers must be alive at once, else the OS may
        # reuse the first thread's ident for the second and the writes
        # would look single-threaded to the sanitizer.
        ready = threading.Barrier(2)

        def writer(worker: int) -> None:
            ready.wait()
            for i in range(100):
                self.shared[f"{worker}-{i}"] = i

        workers = [
            threading.Thread(target=writer, args=(n,)) for n in range(2)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()


class TestSeededBugs:
    def test_seeded_lock_inversion_is_reported(self, sanitizer):
        BuggyRuntime().run_inversion()
        report = sanitizer.report()
        assert len(report.lock_inversions) == 1
        (finding,) = report.lock_inversions
        assert finding.code == LOCK_ORDER_CODE
        assert "BuggyRuntime.lock_a" in finding.message
        assert "BuggyRuntime.lock_b" in finding.message

    def test_seeded_unsynchronized_write_is_reported(self, sanitizer):
        BuggyRuntime().run_race()
        report = sanitizer.report()
        assert len(report.races) == 1
        (finding,) = report.races
        assert finding.code == RACE_CODE
        assert "BuggyRuntime.shared" in finding.message

    def test_both_bugs_in_one_run(self, sanitizer):
        runtime = BuggyRuntime()
        runtime.run_inversion()
        runtime.run_race()
        report = sanitizer.report()
        assert len(report.lock_inversions) == 1
        assert len(report.races) == 1
        assert len(report.issues) == 2

    def test_findings_flow_through_report_machinery(self, sanitizer):
        from repro.lint import format_human, format_json
        import json

        BuggyRuntime().run_race()
        result = sanitizer.report().to_lint_result()
        assert RACE_CODE in format_human(result)
        payload = json.loads(format_json(result))
        assert payload["ok"] is False
        assert payload["violations"][0]["code"] == RACE_CODE


class TestShippedRuntimesStaySilent:
    def test_local_classiccloud_is_clean(self, sanitizer, tmp_path):
        from repro.apps.executables import Cap3Executable
        from repro.classiccloud.local import LocalClassicCloud
        from repro.workloads.genome import write_cap3_workload

        tasks = write_cap3_workload(tmp_path, n_files=6, reads_per_file=4)
        result = LocalClassicCloud(n_workers=3).run(Cap3Executable(), tasks)
        assert result.n_tasks == 6
        report = sanitizer.report()
        assert report.issues == [], report.summary()
        # The instrumentation actually saw the run, not a no-op pass.
        assert report.locks_tracked >= 2
        assert report.writes_observed > 0

    def test_local_blob_store_is_clean(self, sanitizer, tmp_path):
        from repro.classiccloud.localstore import LocalBlobStore

        store = LocalBlobStore(tmp_path / "store")

        def uploader(worker: int) -> None:
            for i in range(5):
                store.put_bytes(f"w{worker}/obj{i}", b"payload")

        workers = [
            threading.Thread(target=uploader, args=(n,)) for n in range(3)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert store.stats["puts"] == 15
        report = sanitizer.report()
        assert report.issues == [], report.summary()


class TestActivation:
    def test_monitor_is_passthrough_when_inactive(self):
        if threadsan.active() is not None:
            pytest.skip("--repro-sanitize-threads keeps a sanitizer installed")
        assert threadsan.active() is None
        payload = {"a": 1}
        assert monitor(payload, "x") is payload
        lock = monitor_lock("x")
        assert isinstance(lock, type(threading.Lock()))

    def test_env_token_activates_ambient_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "threads")
        try:
            assert threadsan.active() is not None
            assert isinstance(monitor_lock("x"), MonitoredLock)
        finally:
            threadsan.uninstall()

    def test_threads_token_does_not_enable_des_sanitizer(self, monkeypatch):
        from repro.lint.sanitizer import SanitizedEnvironment
        from repro.sim.engine import make_environment

        monkeypatch.setenv("REPRO_SANITIZE", "threads")
        env = make_environment()
        assert not isinstance(env, SanitizedEnvironment)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert isinstance(make_environment(), SanitizedEnvironment)
        monkeypatch.setenv("REPRO_SANITIZE", "all")
        assert isinstance(make_environment(), SanitizedEnvironment)

    def test_monitored_lock_supports_lock_protocol(self, sanitizer):
        lock = monitor_lock("proto")
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()
        with lock:
            assert lock.locked()

    def test_reentrant_same_lock_is_not_an_inversion(self, sanitizer):
        lock = monitor_lock("outer")
        other = monitor_lock("inner")
        with lock:
            with other:
                pass
        with lock:
            with other:
                pass
        assert sanitizer.report().lock_inversions == []

    def test_exclusive_phase_setup_is_amnestied(self, sanitizer):
        # Unlocked single-threaded setup, then locked multi-thread use:
        # the classic init pattern must not be flagged.
        guard = monitor_lock("guard")
        shared = monitor({}, "state")
        for i in range(10):
            shared[i] = i  # main thread, no lock: exclusive phase

        def worker(base: int) -> None:
            for i in range(10):
                with guard:
                    shared[base + i] = i

        workers = [
            threading.Thread(target=worker, args=(100 * (n + 1),))
            for n in range(2)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert sanitizer.report().races == []
