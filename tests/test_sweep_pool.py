"""Persistent sweep pool: lifecycle, reuse, chunking, and parity.

The pool exists so repeated ``run_points`` calls stop paying a fresh
``ProcessPoolExecutor`` spawn per call; the tests here pin down that it
is (a) lazy, (b) actually reused, (c) chunked deterministically, and
(d) byte-for-byte identical to the serial and pre-pool paths.
"""

import pytest

from repro.cloud.failures import FaultPlan
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.obs import observe
from repro.sweep.points import point_for, run_point
from repro.sweep.pool import SweepPool, shared_pool, shutdown_shared_pool
from repro.sweep.runner import _chunk_pending, run_points
from repro.workloads.genome import cap3_task_specs

_SHAPES = [("L", 8, 2), ("XL", 4, 4), ("HCXL", 2, 8), ("HM4XL", 2, 8)]


def _points(count=4):
    app = get_application("cap3")
    tasks = cap3_task_specs(24, reads_per_file=200)
    backends = [
        make_backend(
            "ec2",
            instance_type=itype,
            n_instances=n,
            workers_per_instance=w,
            fault_plan=FaultPlan.none(),
            seed=17,
        )
        for itype, n, w in _SHAPES[:count]
    ]
    return [point_for(app, b, tasks) for b in backends]


class TestLifecycle:
    def test_pool_is_lazy(self):
        pool = SweepPool(2)
        assert not pool.started
        assert pool.spawns == 0
        pool.close()  # closing a never-started pool is a no-op
        assert pool.spawns == 0

    def test_context_manager_closes(self):
        with SweepPool(2) as pool:
            future = pool.submit_chunk(_points(1))
            assert len(future.result()) == 1
            assert pool.started
        assert not pool.started

    def test_pool_restarts_after_close(self):
        pool = SweepPool(2)
        first = pool.submit_chunk(_points(1)).result()
        pool.close()
        second = pool.submit_chunk(_points(1)).result()
        pool.close()
        assert repr(first) == repr(second)
        assert pool.spawns == 2

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            SweepPool(0)
        with pytest.raises(TypeError):
            SweepPool(2.5)
        with pytest.raises(TypeError):
            SweepPool(True)


class TestReuse:
    def test_submissions_reuse_warm_executor(self):
        with SweepPool(2) as pool:
            pool.submit_chunk(_points(1)).result()
            pool.submit_chunk(_points(1)).result()
            pool.submit_chunk(_points(1)).result()
            stats = pool.stats()
        assert stats["spawns"] == 1
        assert stats["submissions"] == 3
        assert stats["reuses"] == 2

    def test_shared_pool_is_a_singleton_per_worker_count(self):
        shutdown_shared_pool()
        try:
            a = shared_pool(2)
            b = shared_pool(2)
            assert a is b
            c = shared_pool(3)
            assert c is not a
            assert c.workers == 3
        finally:
            shutdown_shared_pool()

    def test_run_points_reuses_shared_pool_across_calls(self):
        shutdown_shared_pool()
        try:
            points = _points(4)
            run_points(points, jobs=2)
            pool = shared_pool(2)
            spawns_after_first = pool.spawns
            run_points(points, jobs=2)
            assert shared_pool(2) is pool
            assert pool.spawns == spawns_after_first  # warm, not respawned
            assert pool.reuses > 0
        finally:
            shutdown_shared_pool()


class TestChunking:
    def test_chunks_are_contiguous_and_cover_input(self):
        pending = [(i, f"p{i}") for i in range(10)]
        chunks = _chunk_pending(pending, 3)
        flat = [item for chunk in chunks for item in chunk]
        assert flat == pending  # order preserved, nothing lost
        assert all(chunk for chunk in chunks)
        assert len(chunks) <= 6  # workers * chunks-per-worker

    def test_chunk_sizes_balanced(self):
        pending = [(i, f"p{i}") for i in range(11)]
        sizes = [len(c) for c in _chunk_pending(pending, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_points_than_workers(self):
        pending = [(0, "p0"), (1, "p1")]
        chunks = _chunk_pending(pending, 8)
        assert [len(c) for c in chunks] == [1, 1]


class TestParity:
    def test_pool_results_match_serial_and_direct(self):
        points = _points(4)
        direct = [run_point(p) for p in points]
        serial = run_points(points, jobs=1)
        with SweepPool(4) as pool:
            pooled = run_points(points, jobs=4, pool=pool)
        assert repr(serial) == repr(direct)
        assert repr(pooled) == repr(direct)

    def test_explicit_pool_is_not_closed_by_run_points(self):
        points = _points(2)
        with SweepPool(2) as pool:
            run_points(points, jobs=2, pool=pool)
            assert pool.started  # caller owns the lifecycle
            run_points(points, jobs=2, pool=pool)
            assert pool.stats()["submissions"] >= 2

    def test_pool_warmed_before_sanitize_runs_points_sanitized(
        self, monkeypatch
    ):
        def kernel_captures(obs):
            return [
                any(i.track == "kernel" for i in capture.instants)
                for capture in obs.workers
            ]

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        points = _points(2)
        with observe(label="plain") as plain:
            plain_results = run_points(points, jobs=2)
        pool = shared_pool(2)
        assert pool.started  # warmed without the sanitizer
        spawns = pool.spawns
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with observe(label="sanitized") as sanitized:
            sanitized_results = run_points(points, jobs=2)
        assert shared_pool(2) is pool
        assert pool.spawns == spawns + 1  # recycled on the new setting
        assert kernel_captures(plain) == [False, False]
        assert kernel_captures(sanitized) == [True, True]
        assert repr(sanitized_results) == repr(plain_results)