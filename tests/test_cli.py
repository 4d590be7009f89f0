"""Tests for the command-line interface."""

import io
import os

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

    @pytest.mark.parametrize("backend", ["hadoop", "dryadlinq"])
    def test_sanitize_reports_on_cluster_backends(self, backend):
        code, text = run_cli(
            "run", "--app", "cap3", "--backend", backend,
            "--files", "8", "--nodes", "2", "--sanitize",
        )
        assert code == 0
        assert "sanitizer report:" in text
        assert "double triggers: 0" in text

    def test_sanitize_counts_idle_workers_apart(self):
        code, text = run_cli(
            "run", "--app", "cap3", "--files", "8", "--instances", "2",
            "--sanitize",
        )
        assert code == 0
        assert "idle by design at end of run (pollers, sleeping slots): 16" in text
        assert "processes still waiting at end of run: 0" in text
        assert "worker-" not in text

    def test_sanitize_lists_no_hadoop_slot_with_a_losing_attempt(self):
        # Losing speculative attempts still sit in a scheduled timeout
        # when the job ends; they are counted, not listed as stuck.
        code, text = run_cli(
            "run", "--app", "cap3", "--backend", "hadoop",
            "--files", "8", "--nodes", "2", "--sanitize",
        )
        assert code == 0
        assert "processes still waiting at end of run: 0" in text
        assert "(losing attempts): 3" in text
        assert "never finished" not in text

    @pytest.mark.parametrize("before", [None, "0", "1"])
    def test_sanitize_leaves_environment_as_found(self, before, monkeypatch):
        if before is None:
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        else:
            monkeypatch.setenv("REPRO_SANITIZE", before)
        environ = dict(os.environ)
        code, _ = run_cli(
            "run", "--app", "cap3", "--files", "4", "--instances", "1",
            "--sanitize",
        )
        assert code == 0
        assert dict(os.environ) == environ

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


class TestBadInputExits2:
    """Bad input ends in one ``error: ...`` line and exit code 2, never a
    traceback or a silent fallback."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["run", "--files", "0"], "n_files must be >= 1"),
            (["sweep", "--files", "0", "--jobs", "1", "--no-cache"],
             "n_files must be >= 1"),
            (["cost", "--files", "0"], "n_files must be >= 1"),
            (["run", "--instance-type", "Nope"], "Nope"),
            (["run", "--backend", "hadoop", "--nodes", "0"], "n_nodes 0"),
            (["chaos", "--intensities", ",", "--files", "8", "--jobs", "1",
              "--no-cache"], "--intensities must name at least one value"),
            (["serve", "--fleet", ",", "--jobs", "1"],
             "--fleet must name at least one value"),
            (["chaos", "--mitigations", ",", "--jobs", "1", "--no-cache"],
             "--mitigations must name at least one value"),
            (["chaos", "--smoke", "--mitigations", "none,bogus", "--jobs",
              "1", "--no-cache"], "bogus"),
            (["gendata", "{dir}", "--files", "0"], "n_files"),
            (["gendata", "{dir}", "--files", "-2"], "n_files"),
            (["gendata", "{dir}", "--size", "0"], "reads_per_file"),
            (["gendata", "--app", "blast", "{dir}", "--size", "0"],
             "queries_per_file"),
            (["gendata", "--app", "gtm", "{dir}", "--files", "0"],
             "n_files"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_exits_2_with_one_error_line(self, tmp_path, argv, message):
        argv = [arg.format(dir=tmp_path / "w") for arg in argv]
        code, text = run_cli(*argv)
        assert code == 2
        assert text.startswith("error: ") and text.count("\n") == 1
        assert message in text

    def test_gendata_leaves_no_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        code, _ = run_cli("gendata", str(tmp_path / "w"), "--files", "-1")
        assert code == 2
        assert not list(tmp_path.rglob("MANIFEST.json"))


class TestElasticFlags:
    """``--spot-fraction``, ``--max-instances``, ``--min-instances``,
    ``--bid-multiplier`` and ``--billing`` need ``--autoscale``, and the
    spot fraction must lie in [0, 1]."""

    @pytest.mark.parametrize(
        ("argv", "flag"),
        [
            (["run", "--files", "8", "--spot-fraction", "0.7"],
             "--spot-fraction"),
            (["run", "--backend", "hadoop", "--files", "8",
              "--max-instances", "4"], "--max-instances"),
            (["run", "--files", "8", "--min-instances", "2"],
             "--min-instances"),
            (["run", "--files", "8", "--bid-multiplier", "0.9"],
             "--bid-multiplier"),
            (["run", "--files", "8", "--billing", "per-second"], "--billing"),
            (["serve", "--duration", "60", "--fleet", "1",
              "--spot-fraction", "0.5"], "--spot-fraction"),
            (["serve", "--duration", "60", "--fleet", "1",
              "--max-instances", "4"], "--max-instances"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_elastic_flag_without_autoscale_exits_2(self, argv, flag):
        code, text = run_cli(*argv)
        assert code == 2
        assert text == f"error: {flag} requires --autoscale\n"

    def test_defaults_without_autoscale_are_fine(self):
        # Restating a default is not an elastic request.
        code, text = run_cli(
            "run", "--files", "4", "--instances", "1", "--no-cache",
            "--spot-fraction", "0", "--max-instances", "16",
        )
        assert code == 0, text

    @pytest.mark.parametrize("fraction", ["7", "-2"])
    def test_spot_fraction_out_of_range_exits_2(self, fraction):
        code, text = run_cli(
            "run", "--app", "cap3", "--files", "8", "--autoscale", "step",
            "--spot-fraction", fraction,
        )
        assert code == 2
        assert text == "error: spot_fraction must be in [0, 1]\n"

    @pytest.mark.parametrize(
        ("multiplier", "fraction"), [("-1", "0"), ("nan", "0.5")]
    )
    def test_bad_bid_multiplier_exits_2(self, multiplier, fraction):
        code, text = run_cli(
            "run", "--app", "cap3", "--files", "4", "--autoscale", "step",
            "--bid-multiplier", multiplier, "--spot-fraction", fraction,
        )
        assert code == 2
        assert text == "error: bid_multiplier must be positive\n"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "cap3"
        assert args.backend == "ec2"
        assert args.files == 200

    def test_every_subcommand_renders_help(self):
        # argparse expands (and rejects a stray ``%`` in) help strings
        # only when help is formatted.
        parser = build_parser()
        assert "usage: repro" in parser.format_help()
        for name, command in _subcommands(parser).items():
            assert f"usage: repro {name}" in command.format_help()

    def test_parser_surface_is_pinned(self):
        # SHA-256 of every action of every subcommand: option strings,
        # dest, default, choices, type, nargs, action class, required.
        # Help wording is free to change; nothing else is.
        import hashlib

        dump = _parser_dump(build_parser())
        assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == (
            PARSER_DUMP_SHA256
        ), dump

    def test_ci_command_lines_parse(self):
        commands = _ci_repro_commands()
        assert len(commands) >= 20
        parser = build_parser()
        for argv in commands:
            args = parser.parse_args(argv)
            assert callable(args.handler), argv


PARSER_DUMP_SHA256 = (
    "0eb94dc6b84425f1f5a7a6eb0fe4cd3299038b3aa4ade273b2c35c6edd3cd648"
)


def _subcommands(parser):
    import argparse

    (action,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _parser_dump(parser) -> str:
    """One line per action of the top parser and of every subcommand."""
    lines = []
    for name, command in [("repro", parser), *_subcommands(parser).items()]:
        for action in command._actions:
            choices = action.choices
            if isinstance(choices, dict):
                choices = sorted(choices)
            lines.append(repr((
                name, action.option_strings, action.dest, action.default,
                None if choices is None else list(choices),
                getattr(action.type, "__name__", action.type),
                action.nargs, type(action).__name__, action.required,
            )))
    return "\n".join(lines) + "\n"


def _ci_repro_commands() -> "list[list[str]]":
    """Every ``python -m repro`` invocation in the CI workflow, as argv:
    folded ``run: >`` blocks joined, ``for x in a b; do`` loops
    expanded, shell redirections dropped."""
    import re
    import shlex
    from pathlib import Path

    workflow = Path(__file__).resolve().parents[1] / ".github/workflows/ci.yml"
    lines = workflow.read_text(encoding="utf-8").splitlines()
    scripts = []
    i = 0
    while i < len(lines):
        match = re.match(r"(\s*)(?:- )?run: ?(.*)$", lines[i])
        i += 1
        if not match:
            continue
        indent, style = len(match.group(1)), match.group(2).strip()
        if style not in (">", "|"):
            scripts.append(style)
            continue
        block = []
        while i < len(lines) and (
            not lines[i].strip()
            or len(lines[i]) - len(lines[i].lstrip()) > indent
        ):
            block.append(lines[i].strip())
            i += 1
        if style == ">":
            scripts.append(" ".join(line for line in block if line))
        else:
            scripts.extend(block)
    loops = {}
    for script in scripts:
        loop = re.match(r"for (\w+) in ([^;]+); do", script)
        if loop:
            loops[loop.group(1)] = loop.group(2).split()
    commands = []
    for script in scripts:
        if "python -m repro " not in script:
            continue
        text = script.split("python -m repro ", 1)[1]
        expansions = [text]
        for var, values in loops.items():
            if f"${var}" in text or f"${{{var}}}" in text:
                expansions = [
                    e.replace(f"${{{var}}}", v).replace(f"${var}", v)
                    for e in expansions for v in values
                ]
        for expanded in expansions:
            argv = shlex.split(expanded)
            for stop in (">", "|", "&&", ";"):
                if stop in argv:
                    argv = argv[: argv.index(stop)]
            commands.append(argv)
    return commands


class TestPinnedStudyOutput:
    """The full stdout and ``--json`` bytes of the ``chaos`` and
    ``serve`` subcommands at small seeded settings (SHA-256)."""

    def _pinned(self, tmp_path, monkeypatch, *argv):
        import hashlib

        monkeypatch.chdir(tmp_path)
        code, text = run_cli(*argv)
        assert code == 0, text
        digest = lambda data: hashlib.sha256(data).hexdigest()  # noqa: E731
        return (
            digest(text.encode("utf-8")),
            digest((tmp_path / "rows.json").read_bytes()),
        )

    def test_chaos_smoke(self, tmp_path, monkeypatch):
        assert self._pinned(
            tmp_path, monkeypatch,
            "chaos", "--smoke", "--jobs", "1", "--no-cache",
            "--json", "rows.json",
        ) == (
            "cd3b606c343579c093ee74ba136ec6af7fcb922bbb505f12a0b581417baed80e",
            "fcc78b342ec596616f4841fc89318f1604d8f4f09818ba7b316bdf7507691f0f",
        )

    def test_serve(self, tmp_path, monkeypatch):
        assert self._pinned(
            tmp_path, monkeypatch,
            "serve", "--seed", "42", "--duration", "60", "--fleet", "1",
            "--jobs", "1", "--json", "rows.json",
        ) == (
            "02f3bc1031d3b04c544604f9345b79ddfafdb07fd58055cfcebacdd22d5e9e50",
            "6d3fc66d77db9d4d6850733d08f172936cddca2de4a1d0e414433cfaf59bf3a2",
        )

    def test_serve_prints_abandoned_jobs(self, tmp_path, monkeypatch):
        # One single-worker Small instance cannot drain the window, so
        # the output ends in the ``fleet 1: N abandoned`` line.
        assert self._pinned(
            tmp_path, monkeypatch,
            "serve", "--seed", "42", "--duration", "60", "--fleet", "1",
            "--instance-type", "Small", "--workers", "1",
            "--jobs", "1", "--json", "rows.json",
        ) == (
            "2f1ff12ce34dd2bf95a81d4e109734866cc325598f6748f45cab2b856767a513",
            "27c3d085fd25489ba7927384ab0b3be171487d7351811a59040ab4d0337bebc2",
        )
