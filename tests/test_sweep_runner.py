"""Sweep runner: parallel/serial identity, ordering, fallbacks, policy.

The load-bearing property is satellite-grade: the Fig 3/4 Cap3 instance
study must return *identical* rows at ``jobs=4`` and ``jobs=1``, and
both must match the pre-sweep sequential path byte-for-byte.
"""

import dataclasses

import pytest

from repro.chaos import chaos_point
from repro.cloud.failures import FaultPlan
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.core.experiment import InstanceStudyRow, instance_type_study
from repro.core.metrics import average_time_per_file_per_core
from repro.sweep.cache import ResultCache
from repro.sweep.points import InlinePoint, PointSpec, point_for
from repro.sweep.runner import resolve_jobs, run_points
from repro.workloads.genome import cap3_task_specs

# Fig 3/4 shapes, scaled down to keep the study fast.
_SHAPES = [("L", 8, 2), ("XL", 4, 4), ("HCXL", 2, 8), ("HM4XL", 2, 8)]


def _backends():
    return [
        make_backend(
            "ec2",
            instance_type=itype,
            n_instances=n,
            workers_per_instance=w,
            fault_plan=FaultPlan.none(),
            seed=17,
        )
        for itype, n, w in _SHAPES
    ]


def _tasks():
    return cap3_task_specs(24, reads_per_file=200)


def _pre_pr_rows(app, backends, tasks):
    """The seed repo's sequential instance_type_study, verbatim."""
    rows = []
    for backend in backends:
        result = backend.run(app, tasks)
        billing = result.billing
        label = getattr(
            getattr(backend, "config", None), "label", backend.name
        )
        rows.append(
            InstanceStudyRow(
                label=label,
                compute_time_s=result.makespan_seconds,
                compute_cost=billing.compute_cost if billing else 0.0,
                amortized_cost=(
                    billing.total_amortized_cost if billing else 0.0
                ),
                total_cost=billing.total_cost if billing else 0.0,
                per_core_time_s=average_time_per_file_per_core(
                    result.makespan_seconds, backend.total_cores, len(tasks)
                ),
            )
        )
    return rows


class TestParallelSerialIdentity:
    def test_fig3_4_study_identical_at_any_job_count(self):
        app = get_application("cap3")
        tasks = _tasks()
        serial = instance_type_study(app, _backends(), tasks, jobs=1)
        parallel = instance_type_study(app, _backends(), tasks, jobs=4)
        reference = _pre_pr_rows(app, _backends(), tasks)
        assert serial == parallel
        assert serial == reference
        # Byte-for-byte, not merely approximately equal.
        assert repr(serial) == repr(reference)

    def test_scalability_study_identical_at_any_job_count(self):
        from repro.core.experiment import scalability_study

        app = get_application("cap3")

        def factory(cores):
            return make_backend(
                "ec2",
                n_instances=cores // 8,
                fault_plan=FaultPlan.none(),
                seed=17,
            )

        def tasks_for(cores):
            return cap3_task_specs(cores, reads_per_file=200)

        serial = scalability_study(app, factory, [16, 32], tasks_for, jobs=1)
        parallel = scalability_study(
            app, factory, [16, 32], tasks_for, jobs=4
        )
        assert serial == parallel


class TestRunPoints:
    def test_results_come_back_in_input_order(self):
        app = get_application("cap3")
        tasks = _tasks()
        points = [point_for(app, b, tasks) for b in _backends()]
        results = run_points(points, jobs=4)
        assert [r.label for r in results] == [
            getattr(b.config, "label") for b in _backends()
        ]

    def test_cache_hits_skip_execution(self, tmp_path):
        app = get_application("cap3")
        tasks = _tasks()
        points = [point_for(app, b, tasks) for b in _backends()]
        cache = ResultCache(tmp_path)
        cold = run_points(points, jobs=1, cache=cache)
        warm = run_points(points, jobs=1, cache=cache)
        assert cold == warm
        stats = cache.stats()
        assert stats.stores == len(points)
        assert stats.hits == len(points)

    def test_mixed_hits_and_misses_keep_order(self, tmp_path):
        app = get_application("cap3")
        tasks = _tasks()
        points = [point_for(app, b, tasks) for b in _backends()]
        cache = ResultCache(tmp_path)
        # Pre-warm only the middle two points.
        run_points(points[1:3], jobs=1, cache=cache)
        results = run_points(points, jobs=4, cache=cache)
        assert [r.label for r in results] == [p.label for p in points]

    @pytest.mark.parametrize("kind", ["chaos-retry-speculation", "hadoop"])
    def test_sanitized_miss_stores_the_plain_entry(
        self, kind, tmp_path, monkeypatch
    ):
        if kind == "hadoop":
            spec = point_for(
                get_application("cap3"), make_backend("hadoop"), _tasks()
            )
        else:
            spec = chaos_point(
                "cap3", 1.0, "retry+speculation", n_files=16,
                n_instances=2, workers_per_instance=8, seed=13,
                horizon_s=90.0,
            )
        entries = {}
        for mode in ("plain", "sanitized"):
            if mode == "plain":
                monkeypatch.delenv("REPRO_SANITIZE", raising=False)
            else:
                monkeypatch.setenv("REPRO_SANITIZE", "1")
            cache = ResultCache(tmp_path / mode)
            run_points([spec], jobs=1, cache=cache)
            run_points([spec], jobs=1, cache=cache)
            stats = cache.stats()
            assert (stats.misses, stats.stores, stats.hits) == (1, 1, 1)
            entries[mode] = {
                path.relative_to(cache.root): path.read_bytes()
                for path in cache.root.glob("*/*/MANIFEST.json")
            }
        assert len(entries["plain"]) == 1
        assert entries["sanitized"] == entries["plain"]


class _StubBackend:
    """A backend the spec registry cannot describe."""

    name = "stub"
    total_cores = 3

    def run(self, app, tasks):
        from repro.core.task import RunResult

        return RunResult(
            backend=self.name,
            app_name=app.name,
            n_tasks=len(tasks),
            makespan_seconds=42.0,
        )

    def estimate_sequential_time(self, app, tasks):
        return 126.0


class TestInlineFallback:
    def test_unknown_backend_goes_inline(self):
        app = get_application("cap3")
        point = point_for(app, _StubBackend(), _tasks())
        assert isinstance(point, InlinePoint)

    def test_inline_points_run_uncached(self, tmp_path):
        app = get_application("cap3")
        point = point_for(app, _StubBackend(), _tasks())
        cache = ResultCache(tmp_path)
        results = run_points([point], jobs=4, cache=cache)
        assert results[0].makespan_s == 42.0
        assert results[0].cores == 3
        assert results[0].billed is False
        assert cache.stats().stores == 0

    def test_simulated_backends_are_specable(self):
        app = get_application("cap3")
        tasks = _tasks()
        for name, kwargs in (
            ("ec2", {"fault_plan": FaultPlan.none()}),
            ("azure", {"fault_plan": FaultPlan.none()}),
            ("hadoop", {}),
            ("dryadlinq", {}),
        ):
            backend = make_backend(name, **kwargs)
            assert isinstance(point_for(app, backend, tasks), PointSpec), name


class TestProgress:
    def _points(self, count=2):
        app = get_application("cap3")
        tasks = _tasks()
        return [point_for(app, b, tasks) for b in _backends()[:count]]

    def test_serial_emits_start_then_done_per_point(self):
        events = []
        run_points(self._points(), jobs=1, progress=events.append)
        assert [(e.index, e.status) for e in events] == [
            (0, "start"), (0, "done"), (1, "start"), (1, "done"),
        ]
        assert all(e.total == 2 for e in events)
        assert events[0].label == events[1].label

    def test_pool_run_notifies_every_point(self):
        events = []
        run_points(self._points(), jobs=2, progress=events.append)
        assert sorted(
            (e.index, e.status) for e in events
        ) == [(0, "done"), (0, "start"), (1, "done"), (1, "start")]

    def test_cache_hit_emits_single_event(self, tmp_path):
        points = self._points(1)
        cache = ResultCache(tmp_path)
        run_points(points, jobs=1, cache=cache)
        events = []
        run_points(points, jobs=1, cache=cache, progress=events.append)
        assert [(e.index, e.status, e.total) for e in events] == [
            (0, "cache-hit", 1)
        ]

    def test_chunked_dispatch_with_mixed_cache_hits_orders_events(
        self, tmp_path
    ):
        """Cache hits and pool-executed points interleave deterministically.

        With points 1 and 2 pre-cached out of 4, a ``jobs=2`` run must:
        emit exactly one ``cache-hit`` per cached point, before any
        ``start`` (hits resolve during the scan, dispatch comes after);
        emit ``start`` then ``done`` for each executed point; and stream
        the ``done`` events in input order, because chunk futures are
        collected in submission order, never completion order.
        """
        points = self._points(4)
        cache = ResultCache(tmp_path)
        serial = run_points([points[1], points[2]], jobs=1, cache=cache)
        events = []
        results = run_points(
            points, jobs=2, cache=cache, progress=events.append
        )
        assert [results[1], results[2]] == serial  # served from cache
        by_status = {}
        for position, event in enumerate(events):
            by_status.setdefault(event.status, []).append(
                (position, event.index)
            )
        assert [idx for _, idx in by_status["cache-hit"]] == [1, 2]
        assert [idx for _, idx in by_status["done"]] == [0, 3]
        first_start = min(pos for pos, _ in by_status["start"])
        assert all(pos < first_start for pos, _ in by_status["cache-hit"])
        for index in (0, 3):
            started = next(
                pos for pos, i in by_status["start"] if i == index
            )
            finished = next(
                pos for pos, i in by_status["done"] if i == index
            )
            assert started < finished
        assert all(e.total == 4 for e in events)
        # Parity: the mixed run returns exactly what a cold serial run does.
        assert results == run_points(points, jobs=1)

    def test_inline_points_report_progress(self):
        app = get_application("cap3")
        point = point_for(app, _StubBackend(), _tasks())
        events = []
        run_points([point], jobs=1, progress=events.append)
        assert [(e.label, e.status) for e in events] == [
            ("stub", "start"), ("stub", "done"),
        ]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(None) == 7

    def test_defaults_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == max(1, os.cpu_count() or 1)

    def test_zero_and_negative_args_raise(self):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_jobs(0)
        with pytest.raises(ValueError, match="positive integer"):
            resolve_jobs(-5)

    def test_non_integer_args_raise(self):
        with pytest.raises(TypeError, match="positive integer"):
            resolve_jobs(2.5)
        with pytest.raises(TypeError, match="positive integer"):
            resolve_jobs("4")
        with pytest.raises(TypeError, match="positive integer"):
            resolve_jobs(True)

    def test_garbage_env_var_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", " "])
    def test_invalid_env_values_raise(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", value)
        if value.strip():
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                resolve_jobs(None)
        else:
            # Pure whitespace degrades to "unset", not an error.
            assert resolve_jobs(None) >= 1
