"""Unit tests for repro.obs: tracer, metrics, ambient context."""

import pickle
import threading

import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    Instant,
    MetricsRegistry,
    Observability,
    Span,
    Tracer,
    current,
    observe,
)
from repro.obs.context import WorkerCapture, worker_payload
from repro.obs.tracer import Records


class TestTracer:
    def test_add_records_sim_span(self):
        tracer = Tracer(label="t")
        tracer.add("task.compute", track="w0", start=1.0, end=3.5, task_id="t1")
        (span,) = tracer.spans
        assert span == Span(
            name="task.compute", track="w0", start=1.0, end=3.5,
            domain="sim", args={"task_id": "t1"},
        )
        assert span.duration == 2.5
        assert len(tracer) == 1

    def test_span_context_manager_uses_wall_domain(self):
        tracer = Tracer()
        with tracer.span("cache.lookup", track="host", label="x"):
            pass
        (span,) = tracer.spans
        assert span.domain == "wall"
        assert span.end >= span.start >= 0.0
        assert span.args == {"label": "x"}

    def test_instant_with_explicit_sim_timestamp(self):
        tracer = Tracer()
        tracer.instant("scheduler.dispatch", track="v0", ts=7.0, node=2)
        (instant,) = tracer.instants
        assert instant == Instant(
            name="scheduler.dispatch", track="v0", ts=7.0,
            domain="sim", args={"node": 2},
        )

    def test_instant_without_timestamp_reads_wall_clock(self):
        tracer = Tracer()
        tracer.instant("tick")
        (instant,) = tracer.instants
        assert instant.domain == "wall"
        assert instant.ts >= 0.0

    def test_totals_aggregates_by_name(self):
        tracer = Tracer()
        tracer.add("task.compute", track="w0", start=0.0, end=2.0)
        tracer.add("task.compute", track="w1", start=1.0, end=4.0)
        tracer.add("task.upload", track="w0", start=2.0, end=2.5)
        assert tracer.totals() == {
            "task.compute": pytest.approx(5.0),
            "task.upload": pytest.approx(0.5),
        }
        assert tracer.totals("task.up") == {"task.upload": pytest.approx(0.5)}

    def test_thread_safe_appends(self):
        tracer = Tracer()

        def record():
            for i in range(200):
                tracer.add("s", track="t", start=float(i), end=float(i) + 1)

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.spans) == 800


class TestColumnStore:
    def test_span_handle_accepts_args_named_like_recorder_keywords(self):
        # The handle records its args as a dict: an arg called
        # ``domain`` or ``start`` no longer collides with add()'s own.
        tracer = Tracer()
        with tracer.span("x", domain="d", start=5):
            pass
        (span,) = tracer.spans
        assert span.domain == "wall"
        assert span.args == {"domain": "d", "start": 5}

    def test_rows_share_interned_names_and_lanes(self):
        tracer = Tracer()
        tracer.add("a", track="w0", start=0.0, end=1.0)
        tracer.instant("a", track="w0", ts=0.5)
        tracer.add("b", track="w0", start=1.0, end=2.0, domain="wall")
        spans, instants = tracer.records()
        assert spans.names == ["a", "b"]
        assert spans.lanes == [("sim", "w0"), ("wall", "w0")]
        assert (spans.name, spans.lane, spans.ts, spans.end) == (
            [0, 1], [0, 1], [0.0, 1.0], [1.0, 2.0]
        )
        assert (instants.name, instants.lane, instants.end) == ([0], [0], None)
        assert len(spans) == 2 and len(instants) == 1
        assert instants[0] == Instant("a", "w0", 0.5)

    def test_records_are_copies(self):
        tracer = Tracer()
        tracer.add("a", track="w0", start=0.0, end=1.0)
        spans, _ = tracer.records()
        tracer.add("a", track="w0", start=1.0, end=2.0)
        assert len(spans) == 1 and len(tracer.spans) == 2

    def test_worker_capture_accepts_record_lists(self):
        spans = [Span("a", "w0", 0.0, 1.0, args={"k": 1}),
                 Span("b", "w1", 1.0, 2.0, domain="wall")]
        instants = [Instant("i", "w0", 0.5)]
        capture = WorkerCapture(os_pid=1, label="p", spans=spans,
                                instants=instants)
        assert isinstance(capture.spans, Records)
        assert list(capture.spans) == spans
        assert list(capture.instants) == instants

    def test_payload_ships_columns_and_round_trips(self):
        worker = Observability.make(label="w")
        worker.tracer.add("a", track="w0", start=0.0, end=1.0, k=1)
        worker.tracer.instant("i", track="w0", ts=0.5)
        payload = pickle.loads(pickle.dumps(worker_payload(worker)))
        assert len(payload["spans"]) == 1
        parent = Observability.make()
        capture = parent.adopt_worker(payload)
        assert capture.spans[0] == Span("a", "w0", 0.0, 1.0, args={"k": 1})
        assert list(capture.instants) == worker.tracer.instants


class TestNullTracer:
    def test_every_operation_is_a_noop(self):
        NULL_TRACER.add("s", track="t", start=0.0, end=1.0)
        NULL_TRACER.instant("i", ts=0.0)
        with NULL_TRACER.span("s"):
            pass
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.instants == []
        assert NULL_TRACER.totals() == {}

    def test_shared_span_handle_is_reentrant(self):
        with NULL_TRACER.span("a"):
            with NULL_TRACER.span("b"):
                pass


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.0)
        registry.gauge("g").set(5.0)
        registry.gauge("g").dec(1.5)
        for value in (1.0, 3.0, 2.0):
            registry.histogram("h").observe(value)
        data = registry.to_dict()
        assert data["c"] == 3.0
        assert data["g"] == 3.5
        hist = data["h"]
        assert hist["count"] == 3
        assert hist["total"] == 6.0
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0
        assert hist["mean"] == 2.0
        # Percentiles are bucket approximations: within 5% of the exact
        # rank values, and always clamped inside [min, max].
        assert abs(hist["p50"] - 2.0) <= 0.1
        assert hist["p95"] == 3.0
        assert hist["p99"] == 3.0
        assert len(registry) == 3

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_empty_histogram_exports_none_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        assert registry.to_dict()["h"] == {
            "count": 0, "total": 0.0, "min": None, "max": None, "mean": 0.0,
            "p50": None, "p95": None, "p99": None,
        }

    def test_null_registry_is_inert(self):
        NULL_METRICS.counter("a").inc()
        NULL_METRICS.gauge("b").set(9.0)
        NULL_METRICS.histogram("c").observe(1.0)
        assert NULL_METRICS.to_dict() == {}
        assert NULL_METRICS.counter("a") is NULL_METRICS.counter("zzz")


class TestContext:
    def test_default_is_the_null_bundle(self):
        obs = current()
        assert not obs.enabled
        assert obs.tracer is NULL_TRACER
        assert obs.metrics is NULL_METRICS

    def test_observe_installs_and_restores(self):
        with observe(label="run") as obs:
            assert current() is obs
            assert obs.enabled
            assert obs.tracer.label == "run"
        assert not current().enabled

    def test_observe_nests(self):
        with observe() as outer:
            with observe() as inner:
                assert current() is inner
            assert current() is outer

    def test_explicit_bundle_is_used_verbatim(self):
        bundle = Observability.make(label="mine")
        with observe(bundle) as obs:
            assert obs is bundle
            current().tracer.add("s", track="t", start=0.0, end=1.0)
        assert len(bundle.tracer.spans) == 1

    def test_context_is_thread_local(self):
        seen = {}

        def probe():
            seen["enabled"] = current().enabled

        with observe():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["enabled"] is False
