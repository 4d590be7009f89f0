"""The ``repro report`` reporter: HTML rendering, bench deltas, CLI."""

import io
import json

import pytest

from repro.cli import main
from repro.cloud.failures import FaultPlan
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.obs import chrome_trace, observe
from repro.obs.report import (
    bench_compare,
    format_bench_compare,
    render_report,
    write_report,
)
from repro.workloads.genome import cap3_task_specs


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def traced():
    app = get_application("cap3")
    tasks = cap3_task_specs(8, reads_per_file=150)
    backend = make_backend(
        "ec2", n_instances=2, fault_plan=FaultPlan.none(), seed=7
    )
    with observe(label="report-run") as obs:
        result = backend.run(app, tasks)
    document = chrome_trace(
        obs.tracer, obs.metrics, timeline=obs.timeline
    )
    return document, result


def _bench_doc(events_per_s, serial_s=2.0, parallel_s=1.0):
    return {
        "kernel": {
            "L": {"events_per_s": events_per_s, "best_s": 0.1},
        },
        "sweeps": {
            "cap3": {"serial_s": serial_s, "parallel_s": parallel_s},
        },
    }


class TestBenchCompare:
    def test_regression_and_improvement_flags(self):
        old = _bench_doc(1000.0, serial_s=2.0)
        new = _bench_doc(800.0, serial_s=1.0)  # kernel -20%, serial -50%
        rows = {r["metric"]: r for r in bench_compare(old, new)}
        assert rows["kernel.L.events_per_s"]["status"] == "regression"
        assert rows["sweep.cap3.serial_s"]["status"] == "improved"
        assert rows["sweep.cap3.parallel_s"]["status"] == "ok"

    def test_lower_better_regression(self):
        old = _bench_doc(1000.0, parallel_s=1.0)
        new = _bench_doc(1000.0, parallel_s=1.5)  # 50% slower
        rows = {r["metric"]: r for r in bench_compare(old, new)}
        assert rows["sweep.cap3.parallel_s"]["status"] == "regression"
        assert rows["sweep.cap3.parallel_s"]["delta"] == pytest.approx(0.5)

    def test_only_shared_fields_compared(self):
        old = {"kernel": {"L": {"events_per_s": 10.0}}}
        new = {
            "kernel": {"L": {"events_per_s": 10.0}, "XL": {"events_per_s": 5.0}},
            "sweeps": {"cap3": {"serial_s": 1.0}},
        }
        metrics = [r["metric"] for r in bench_compare(old, new)]
        assert metrics == ["kernel.L.events_per_s"]

    def test_tolerance_gates_flags(self):
        old = _bench_doc(1000.0)
        new = _bench_doc(950.0)  # -5%
        rows = {r["metric"]: r for r in bench_compare(old, new, tolerance=0.10)}
        assert rows["kernel.L.events_per_s"]["status"] == "ok"
        rows = {r["metric"]: r for r in bench_compare(old, new, tolerance=0.01)}
        assert rows["kernel.L.events_per_s"]["status"] == "regression"

    def test_format_marks_regressions(self):
        text = format_bench_compare(
            bench_compare(_bench_doc(1000.0), _bench_doc(500.0)),
            "OLD", "NEW",
        )
        assert "REGRESSION" in text
        assert "kernel.L.events_per_s" in text
        assert "OLD" in text and "NEW" in text

    def test_real_bench_history_compares(self):
        old = json.loads(open("BENCH_2.json").read())
        new = json.loads(open("BENCH_3.json").read())
        rows = bench_compare(old, new)
        assert rows, "BENCH_2 vs BENCH_3 must share metrics"
        assert all(r["status"] in ("ok", "regression", "improved") for r in rows)


class TestRenderReport:
    def test_sections_present(self, traced):
        document, result = traced
        html = render_report(
            document,
            run=result.to_dict(),
            bench_history=[
                ("BENCH_2.json", _bench_doc(1000.0)),
                ("BENCH_3.json", _bench_doc(900.0)),
            ],
            title="cap3 smoke",
        )
        assert "<title>cap3 smoke</title>" in html
        assert "Phase fractions" in html
        assert "Per-worker timeline" in html or "gantt" in html.lower()
        assert "Timeline counters" in html
        assert "Run result" in html
        assert "Bench history" in html
        assert "report-run" in html

    def test_self_contained(self, traced):
        document, _ = traced
        html = render_report(document)
        lowered = html.lower()
        assert "<script" not in lowered
        assert "http://" not in lowered and "https://" not in lowered
        assert 'src="' not in lowered.replace("src=\"data:", "")
        assert "<svg" in lowered  # charts are inline svg

    def test_renders_empty_trace(self):
        html = render_report({"traceEvents": [], "otherData": {}})
        assert "<html" in html

    def test_write_report(self, traced, tmp_path):
        document, _ = traced
        path = tmp_path / "out.html"
        html = write_report(path, document)
        assert path.read_text(encoding="utf-8") == html


class TestReportCli:
    def _trace_file(self, tmp_path, traced):
        document, result = traced
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(document), encoding="utf-8")
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(result.to_dict()), encoding="utf-8")
        return trace_path, run_path

    def test_report_renders_html(self, tmp_path, traced):
        trace_path, run_path = self._trace_file(tmp_path, traced)
        out_path = tmp_path / "report.html"
        code, text = run_cli(
            "report", str(trace_path), "--run", str(run_path),
            "-o", str(out_path), "--bench",
        )
        assert code == 0
        assert out_path.exists()
        assert "report.html" in text

    def test_report_writes_timeline_csv(self, tmp_path, traced):
        trace_path, _ = self._trace_file(tmp_path, traced)
        csv_path = tmp_path / "timeline.csv"
        code, _ = run_cli(
            "report", str(trace_path),
            "-o", str(tmp_path / "r.html"), "--bench",
            "--timeline-csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "series,time_s,value"
        assert len(lines) > 1

    def test_report_missing_trace_exits_2(self, tmp_path):
        code, text = run_cli(
            "report", str(tmp_path / "nope.json"),
            "-o", str(tmp_path / "r.html"),
        )
        assert code == 2

    def test_report_non_json_run_exits_2(self, tmp_path, traced):
        trace_path, _ = self._trace_file(tmp_path, traced)
        bad = tmp_path / "run.json"
        bad.write_text("not json", encoding="utf-8")
        code, text = run_cli(
            "report", str(trace_path), "--run", str(bad),
            "-o", str(tmp_path / "r.html"), "--bench",
        )
        assert code == 2
        assert f"error: {bad} is not JSON" in text
        assert not (tmp_path / "r.html").exists()

    def test_report_invalid_trace_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": "nope"}), encoding="utf-8")
        code, _ = run_cli("report", str(bad), "-o", str(tmp_path / "r.html"))
        assert code == 2

    def test_bench_compare_cli(self, tmp_path):
        old = tmp_path / "OLD.json"
        new = tmp_path / "NEW.json"
        old.write_text(json.dumps(_bench_doc(1000.0)), encoding="utf-8")
        new.write_text(json.dumps(_bench_doc(500.0)), encoding="utf-8")
        code, text = run_cli("bench", "--compare", str(old), str(new))
        assert code == 0
        assert "REGRESSION" in text
        assert "OLD.json" in text and "NEW.json" in text
