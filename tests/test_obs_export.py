"""Chrome-trace export: schema, phase agreement, backend coverage.

The acceptance property for the observability layer: a traced
ClassicCloud Cap3 run exports a valid Chrome ``trace_event`` JSON whose
per-phase totals agree with :func:`repro.core.analysis.phase_breakdown`
computed from the very same run's task records.
"""

import json

import pytest

from repro.cloud.failures import FaultPlan
from repro.core.analysis import phase_breakdown
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.core.task import RunResult
from repro.obs import (
    Observability,
    Tracer,
    chrome_trace,
    observe,
    phase_fractions,
    summarize_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.context import WorkerCapture, worker_payload
from repro.obs.tracer import Instant, Span
from repro.serve import ServeConfig, default_tenants, run_serve
from repro.workloads.genome import cap3_task_specs


def traced_cap3_run():
    app = get_application("cap3")
    tasks = cap3_task_specs(24, reads_per_file=200)
    backend = make_backend(
        "ec2", n_instances=2, fault_plan=FaultPlan.none(), seed=7
    )
    with observe(label="cap3-ec2") as obs:
        result = backend.run(app, tasks)
    return result, obs


@pytest.fixture(scope="module")
def traced_run():
    return traced_cap3_run()


class TestAcceptance:
    def test_export_is_valid_chrome_trace(self, traced_run, tmp_path):
        _, obs = traced_run
        path = tmp_path / "trace.json"
        document = write_chrome_trace(path, obs)
        assert validate_chrome_trace(document) == []
        reloaded = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(reloaded) == []
        assert reloaded == document
        assert document["otherData"]["schema"] == "repro-trace-v1"
        assert document["otherData"]["label"] == "cap3-ec2"

    def test_phase_totals_agree_with_analysis(self, traced_run):
        result, obs = traced_run
        document = chrome_trace(obs.tracer, obs.metrics)
        from_trace = phase_fractions(document)
        from_records = phase_breakdown(result)
        assert set(from_trace) == set(from_records)
        for phase, fraction in from_records.items():
            assert from_trace[phase] == pytest.approx(fraction, abs=1e-9)

    def test_queue_stats_surface_and_round_trip(self, traced_run):
        result, _ = traced_run
        stats = result.queue_stats
        assert stats is not None
        assert stats["requests"] > 0
        assert stats["requests"] >= stats["empty_receives"]
        assert stats["sent"] == 24
        assert stats["reappearances"] == 0  # no faults injected
        restored = RunResult.from_dict(result.to_dict())
        assert restored.queue_stats == stats
        assert restored.trace_ref == result.trace_ref

    def test_trace_ref_round_trips(self):
        result = RunResult(
            backend="x", app_name="a", n_tasks=0, makespan_seconds=1.0,
            trace_ref="traces/run42.json",
        )
        restored = RunResult.from_dict(result.to_dict())
        assert restored.trace_ref == "traces/run42.json"
        untraced = RunResult.from_dict(
            RunResult(
                backend="x", app_name="a", n_tasks=0, makespan_seconds=1.0
            ).to_dict()
        )
        assert untraced.trace_ref is None
        assert untraced.queue_stats is None

    def test_metrics_embedded_in_export(self, traced_run):
        _, obs = traced_run
        document = chrome_trace(obs.tracer, obs.metrics)
        metrics = document["otherData"]["metrics"]
        assert metrics["sim.events"] > 0
        assert metrics["queue.tasks.requests"] > 0
        busy = [v for k, v in metrics.items() if ".busy_fraction" in k]
        assert busy and all(0.0 <= value <= 1.0 for value in busy)

    def test_summary_text(self, traced_run):
        _, obs = traced_run
        document = chrome_trace(obs.tracer, obs.metrics)
        text = summarize_chrome_trace(document)
        assert "trace summary (cap3-ec2)" in text
        assert "task.compute" in text
        assert "phase breakdown" in text
        assert "compute" in text


def _sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


class TestWrittenFile:
    """The file on disk: compact, sorted-key JSON of chrome_trace()."""

    @pytest.fixture(scope="class")
    def serve_bundle(self):
        parent = Observability.make(label="serve-study")
        for n in (1, 2):
            label = f"serve-fleet-{n}"
            child = Observability.make(label=label)
            with observe(child):
                run_serve(
                    ServeConfig(
                        tenants=default_tenants(),
                        n_instances=n,
                        duration_s=60.0,
                        seed=42,
                    )
                )
            parent.adopt_worker(worker_payload(child, label=label))
        return parent

    def test_file_is_the_document_with_sorted_keys(
        self, serve_bundle, tmp_path
    ):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, serve_bundle)
        raw = path.read_bytes()
        expected = chrome_trace(
            serve_bundle.tracer,
            serve_bundle.metrics,
            timeline=serve_bundle.timeline,
            workers=serve_bundle.workers,
        )
        assert json.loads(raw) == expected
        assert validate_chrome_trace(json.loads(raw)) == []
        json.loads(raw, object_pairs_hook=_sorted_object)
        # Compact: the only newline is the trailing one.
        assert raw.count(b"\n") == 1 and raw.endswith(b"\n")

    def test_tracer_only_export(self, traced_run, tmp_path):
        _, obs = traced_run
        path = tmp_path / "trace.json"
        write_chrome_trace(path, obs.tracer, obs.metrics)
        assert json.loads(path.read_bytes()) == chrome_trace(
            obs.tracer, obs.metrics
        )


class TestLayout:
    def test_event_order_pids_and_tids_are_pinned(self):
        # Metadata events appear where a pid or track is first seen;
        # tids are numbered across the whole document; worker tracks
        # and counters carry the point prefix.
        tracer = Tracer(label="layout")
        tracer.add("task.compute", track="w0", start=1.0, end=3.0,
                   task_id="t1")
        tracer.instant("serve.dispatch", track="scheduler", ts=0.5,
                       tenant="a")
        tracer.add("cache.lookup", track="host", start=0.25, end=0.5,
                   domain="wall")
        workers = [
            WorkerCapture(
                os_pid=4242,
                label="p1",
                spans=[
                    Span("task.download", "w0", 0.0, 1.0),
                    Span("sweep.point", "main", 0.0, 2.0, domain="wall"),
                ],
                instants=[Instant("chaos.crash", "chaos", 0.5,
                                  args={"n": 1})],
                timeline={"backlog": [(0.0, 2), (5.0, 1)]},
            ),
            WorkerCapture(
                os_pid=4242,
                label="p2",
                spans=[Span("task.upload", "w0", 1.0, 1.5)],
            ),
        ]
        document = chrome_trace(tracer, workers=workers)

        def meta(name, pid, tid, value):
            return {"name": name, "ph": "M", "pid": pid, "tid": tid,
                    "args": {"name": value}}

        def span(name, ts, dur, pid, tid, args):
            return {"name": name, "cat": name.split(".")[0], "ph": "X",
                    "ts": ts, "dur": dur, "pid": pid, "tid": tid,
                    "args": args}

        def counter(ts, value):
            return {"name": "p1 · backlog", "cat": "timeline", "ph": "C",
                    "ts": ts, "pid": 10, "tid": 0, "args": {"value": value}}

        assert document["traceEvents"] == [
            meta("process_name", 1, 0, "simulated time"),
            meta("process_name", 2, 0, "wall time"),
            meta("thread_name", 1, 1, "w0"),
            span("task.compute", 1e6, 2e6, 1, 1, {"task_id": "t1"}),
            meta("thread_name", 2, 2, "host"),
            span("cache.lookup", 2.5e5, 2.5e5, 2, 2, {}),
            meta("thread_name", 1, 3, "scheduler"),
            {"name": "serve.dispatch", "cat": "serve", "ph": "i", "s": "t",
             "ts": 5e5, "pid": 1, "tid": 3, "args": {"tenant": "a"}},
            meta("process_name", 10, 0, "worker 4242 (simulated time)"),
            meta("thread_name", 10, 4, "p1 · w0"),
            span("task.download", 0.0, 1e6, 10, 4, {"point": "p1"}),
            meta("process_name", 11, 0, "worker 4242 (wall time)"),
            meta("thread_name", 11, 5, "p1 · main"),
            span("sweep.point", 0.0, 2e6, 11, 5, {"point": "p1"}),
            meta("thread_name", 10, 6, "p1 · chaos"),
            {"name": "chaos.crash", "cat": "chaos", "ph": "i", "s": "t",
             "ts": 5e5, "pid": 10, "tid": 6,
             "args": {"n": 1, "point": "p1"}},
            counter(0.0, 2),
            counter(5e6, 1),
            meta("thread_name", 10, 7, "p2 · w0"),
            span("task.upload", 1e6, 5e5, 10, 7, {"point": "p2"}),
        ]
        assert document["otherData"] == {
            "schema": "repro-trace-v1",
            "label": "layout",
            "workers": [
                {"os_pid": 4242, "pids": {"sim": 10, "wall": 11},
                 "points": ["p1", "p2"], "spans": 3, "instants": 1},
            ],
            "counter_events": 2,
        }


class TestBackendCoverage:
    def _trace_for(self, backend_name, **kwargs):
        app = get_application("cap3")
        tasks = cap3_task_specs(8, reads_per_file=150)
        backend = make_backend(backend_name, **kwargs)
        with observe(label=backend_name) as obs:
            backend.run(app, tasks)
        return obs

    def test_hadoop_emits_dispatch_and_phases(self):
        from repro.cluster import get_cluster

        obs = self._trace_for("hadoop", cluster=get_cluster("cap3-baremetal"))
        names = {span.name for span in obs.tracer.spans}
        assert {"task.download", "task.compute", "task.upload"} <= names
        assert any(
            i.name == "scheduler.dispatch" for i in obs.tracer.instants
        )
        assert obs.metrics.to_dict()["scheduler.dispatches"] >= 8

    def test_dryad_emits_dispatch_and_phases(self):
        from repro.cluster import get_cluster

        obs = self._trace_for(
            "dryadlinq", cluster=get_cluster("cap3-baremetal-windows")
        )
        names = {span.name for span in obs.tracer.spans}
        assert {"task.download", "task.compute", "task.upload"} <= names
        assert any(
            i.name == "scheduler.dispatch" for i in obs.tracer.instants
        )

    def test_twister_emits_iteration_spans(self):
        from repro.twister.simulator import (
            TwisterAzureSimulator,
            TwisterSimConfig,
        )

        sim = TwisterAzureSimulator(
            TwisterSimConfig(n_workers=4, n_iterations=3)
        )
        with observe(label="twister") as obs:
            sim.run("twister")
        names = {span.name for span in obs.tracer.spans}
        assert "twister.iteration" in names
        assert "task.compute" in names
        iteration_spans = [
            s for s in obs.tracer.spans if s.name == "twister.iteration"
        ]
        assert len(iteration_spans) == 3

    def test_untraced_run_records_nothing(self):
        app = get_application("cap3")
        tasks = cap3_task_specs(4, reads_per_file=150)
        backend = make_backend(
            "ec2", n_instances=1, fault_plan=FaultPlan.none(), seed=1
        )
        result = backend.run(app, tasks)
        # queue_stats ride on the RunResult even without observe();
        # the obs layer itself stays silent.
        assert result.queue_stats is not None
        from repro.obs import current

        assert len(current().tracer) == 0


class TestSanitizerIntegration:
    def test_kernel_instants_flow_into_ambient_tracer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        app = get_application("cap3")
        tasks = cap3_task_specs(4, reads_per_file=150)
        backend = make_backend(
            "ec2", n_instances=1, fault_plan=FaultPlan.none(), seed=1
        )
        with observe(label="sanitized") as obs:
            backend.run(app, tasks)
        kernel = [i for i in obs.tracer.instants if i.track == "kernel"]
        assert kernel
        assert all(i.domain == "sim" for i in kernel)
        document = chrome_trace(obs.tracer)
        assert validate_chrome_trace(document) == []


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace(None) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({"displayTimeUnit": "ms"}) != []

    def test_rejects_bad_events(self):
        bad = {
            "traceEvents": [
                {"name": 3, "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1},
                {"name": "a", "ph": "Z", "pid": 1, "tid": 1, "ts": 0},
                {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0,
                 "dur": -4},
                {"name": "a", "ph": "X", "pid": "p", "tid": 1, "ts": 0,
                 "dur": 1},
                "not-an-object",
            ]
        }
        errors = validate_chrome_trace(bad)
        assert len(errors) == 5

    def test_accepts_minimal_valid_document(self):
        tracer = Tracer(label="ok")
        tracer.add("s", track="t", start=0.0, end=1.0)
        tracer.instant("i", track="t", ts=0.5)
        assert validate_chrome_trace(chrome_trace(tracer)) == []

    def test_phase_fractions_without_task_spans_is_empty(self):
        tracer = Tracer()
        tracer.add("cache.lookup", track="host", start=0.0, end=1.0)
        assert phase_fractions(chrome_trace(tracer)) == {}

    def test_phase_fractions_empty_trace(self):
        # Regression: an empty trace document used to raise ValueError.
        assert phase_fractions({"traceEvents": []}) == {}

    def test_summarize_metadata_only_trace(self):
        # Regression: a trace holding only process/thread-name metadata
        # (no spans at all) must summarize without crashing.
        trace = chrome_trace(Tracer(label="idle"))
        assert phase_fractions(trace) == {}
        text = summarize_chrome_trace(trace)
        assert "idle" in text
