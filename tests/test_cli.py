"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCatalog:
    def test_prints_all_catalogs(self):
        code, text = run_cli("catalog")
        assert code == 0
        assert "Table 1: EC2 instance types" in text
        assert "HCXL" in text and "$0.68/h" in text
        assert "Table 2: Azure instance types" in text
        assert "Bare-metal clusters" in text
        assert "internal-tco" in text


class TestRun:
    def test_default_run_cap3_ec2(self):
        code, text = run_cli(
            "run", "--files", "16", "--instances", "2"
        )
        assert code == 0
        assert "cap3 on ec2" in text
        assert "parallel efficiency" in text
        assert "compute cost" in text

    def test_run_gtm_on_hadoop(self):
        code, text = run_cli(
            "run", "--app", "gtm", "--backend", "hadoop",
            "--files", "16", "--nodes", "2", "--cluster", "gtm-hadoop",
        )
        assert code == 0
        assert "gtm on hadoop" in text
        assert "compute cost" not in text  # clusters don't bill

    def test_run_dryadlinq_defaults_to_windows_cluster(self):
        code, text = run_cli(
            "run", "--app", "cap3", "--backend", "dryadlinq",
            "--files", "16", "--nodes", "2",
        )
        assert code == 0
        assert "dryadlinq" in text

    def test_run_azure_with_shape(self):
        code, text = run_cli(
            "run", "--backend", "azure", "--files", "8",
            "--instances", "4", "--instance-type", "Medium",
            "--workers", "2",
        )
        assert code == 0
        assert "cap3 on azure" in text

    def test_inhomogeneous_flag(self):
        code, text = run_cli(
            "run", "--files", "16", "--instances", "2", "--inhomogeneous"
        )
        assert code == 0

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--app", "hmmer")

    def test_jobs_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--jobs", "2"])

    def test_ignores_a_bad_jobs_environment(self, monkeypatch):
        # One point always runs in-process, so REPRO_JOBS is irrelevant.
        monkeypatch.setenv("REPRO_JOBS", "zero")
        code, text = run_cli(
            "run", "--files", "8", "--instances", "1", "--no-cache"
        )
        assert code == 0
        assert ": done" in text

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--backend", "slurm")


class TestCost:
    def test_small_cost_comparison(self):
        code, text = run_cli("cost", "--files", "256")
        assert code == 0
        assert "Cost comparison (256 FASTA files)" in text
        assert "Compute Cost" in text
        assert "80% utilization" in text


class TestFigures:
    def test_lists_available_without_argument(self):
        code, text = run_cli("figures")
        assert code == 0
        assert "fig3_4" in text and "fig14_15" in text

    def test_renders_a_figure(self):
        code, text = run_cli("figures", "fig3_4")
        assert code == 0
        assert "Figures 3+4" in text
        assert "HCXL - 2 x 8" in text

    def test_unknown_figure_fails_cleanly(self):
        code, text = run_cli("figures", "fig99")
        assert code == 2
        assert "unknown figure" in text


class TestAnalyze:
    def test_analyze_exported_trace(self, tmp_path):
        from repro.cloud.failures import FaultPlan
        from repro.core.application import get_application
        from repro.core.backends import make_backend
        from repro.workloads.genome import cap3_task_specs

        app = get_application("cap3")
        tasks = cap3_task_specs(12, reads_per_file=200)
        result = make_backend(
            "ec2", n_instances=2, fault_plan=FaultPlan.none(), seed=2
        ).run(app, tasks)
        trace = tmp_path / "trace.json"
        result.to_json(trace)

        code, text = run_cli("analyze", str(trace))
        assert code == 0
        assert "load balance" in text
        assert "time in compute" in text
        assert "|" in text  # the Gantt chart rendered

    def test_missing_trace_fails_cleanly(self):
        code, text = run_cli("analyze", "/nonexistent/trace.json")
        assert code == 2
        assert "no such trace" in text

    def test_non_json_trace_fails_cleanly(self, tmp_path):
        bad = tmp_path / "trace.json"
        bad.write_text("not json", encoding="utf-8")
        code, text = run_cli("analyze", str(bad))
        assert code == 2
        assert f"error: {bad} is not JSON" in text


class TestTrace:
    def test_run_trace_exports_and_summarizes(self, tmp_path):
        import json

        path = tmp_path / "out.json"
        code, text = run_cli(
            "run", "--files", "8", "--instances", "1", "--trace", str(path)
        )
        assert code == 0
        assert "cap3 on ec2" in text  # metrics table still prints
        assert "trace summary" in text
        assert "phase breakdown" in text
        assert f"trace written to {path}" in text
        document = json.loads(path.read_text(encoding="utf-8"))
        from repro.obs import validate_chrome_trace

        assert validate_chrome_trace(document) == []
        assert document["otherData"]["label"] == "cap3-ec2"

    def test_trace_subcommand_validates_export(self, tmp_path):
        path = tmp_path / "out.json"
        run_cli("run", "--files", "8", "--instances", "1",
                "--trace", str(path))
        code, text = run_cli("trace", str(path))
        assert code == 0
        assert "valid Chrome trace" in text
        assert "task.compute" in text

    def test_trace_subcommand_rejects_invalid(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}', encoding="utf-8")
        code, text = run_cli("trace", str(bad))
        assert code == 2
        assert "invalid Chrome trace" in text

    def test_trace_subcommand_missing_file(self):
        code, text = run_cli("trace", "/nonexistent/out.json")
        assert code == 2
        assert "no such trace" in text

    def test_trace_subcommand_not_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        code, text = run_cli("trace", str(bad))
        assert code == 2
        assert "not JSON" in text

    def test_untraced_run_prints_progress(self):
        code, text = run_cli(
            "run", "--files", "8", "--instances", "1", "--no-cache"
        )
        assert code == 0
        assert "[1/1]" in text
        assert ": done" in text


class TestSweep:
    def test_sweep_prints_shape_table(self):
        code, text = run_cli(
            "sweep", "--app", "cap3", "--files", "8",
            "--jobs", "1", "--no-cache",
        )
        assert code == 0
        assert "cap3 sweep (8 files)" in text
        for shape in ("L - 8 x 2", "XL - 4 x 4", "HCXL - 2 x 8",
                      "HM4XL - 2 x 8"):
            assert shape in text
        assert "[4/4]" in text

    def test_traced_parallel_sweep_merges_workers(self, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        code, text = run_cli(
            "sweep", "--app", "cap3", "--files", "8",
            "--jobs", "2", "--no-cache", "--trace", str(path),
        )
        assert code == 0
        assert "worker process(es) merged" in text
        document = json.loads(path.read_text(encoding="utf-8"))
        from repro.obs import validate_chrome_trace

        assert validate_chrome_trace(document) == []
        workers = document["otherData"]["workers"]  # one entry per process
        assert len({w["os_pid"] for w in workers}) >= 2
        assert sum(len(w["points"]) for w in workers) == 4

    def test_sweep_output_is_pinned(self):
        # SHA-256 of the full stdout (progress lines and table) of
        # ``repro sweep --app cap3 --files 16 --jobs 1 --no-cache``: the
        # sweep's deployments, seeds and table must not drift.
        import hashlib

        code, text = run_cli(
            "sweep", "--app", "cap3", "--files", "16",
            "--jobs", "1", "--no-cache",
        )
        assert code == 0
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "ca119eb4152cbf08fece26c94e962c031d34e5b5b973557359436d9bf9f8b8ce"
        )

    def test_sweep_rejects_bad_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "zero")
        code, text = run_cli("sweep", "--app", "cap3", "--files", "8")
        assert code == 2


class TestGendata:
    def test_writes_cap3_workload(self, tmp_path):
        code, text = run_cli(
            "gendata", str(tmp_path / "w"), "--files", "3", "--size", "6"
        )
        assert code == 0
        assert "wrote 3 cap3 input files" in text
        files = list((tmp_path / "w" / "in").glob("*.fa"))
        assert len(files) == 3

    def test_writes_blast_workload(self, tmp_path):
        code, text = run_cli(
            "gendata", "--app", "blast", str(tmp_path / "b"),
            "--files", "2", "--size", "3",
        )
        assert code == 0
        assert "wrote 2 blast input files" in text
        assert "database" in text

    def test_writes_gtm_workload(self, tmp_path):
        code, text = run_cli(
            "gendata", "--app", "gtm", str(tmp_path / "g"),
            "--files", "2", "--size", "50",
        )
        assert code == 0
        assert "training sample" in text
        files = list((tmp_path / "g" / "in").glob("*.npz"))
        assert len(files) == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "cap3"
        assert args.backend == "ec2"
        assert args.files == 200
