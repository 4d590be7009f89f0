"""Tests for the whole-program lint pass (RPR101–RPR107) and the v2
CLI surface: ``--rules``, ``--baseline``, ``--exclude``, JSON schema."""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import ProjectModel, lint_file, lint_paths
from repro.lint.checker import collect_files, parse_file
from repro.lint.project_checks import LAYERS, layer_of

FIXTURES = Path(__file__).parent / "lint_fixtures" / "project"
SRC = Path(__file__).parent.parent / "src" / "repro"

PROJECT_CODES = (
    "RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106", "RPR107",
)


def fixture(code, variant):
    """RPR107's fixtures sit under ``repro/classiccloud/`` so the linter
    names them as modules of the backends layer."""
    folder = FIXTURES
    if code == "RPR107":
        folder = FIXTURES / "repro" / "classiccloud"
    return folder / f"rpr{code[3:]}_{variant}.py"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def build_model(*names):
    parsed = [parse_file(FIXTURES / name) for name in names]
    return ProjectModel.build([p.module for p in parsed if p.module])


class TestFixtures:
    @pytest.mark.parametrize("code", PROJECT_CODES)
    def test_trigger_fires_exactly_its_rule(self, code):
        result = lint_file(fixture(code, "trigger"))
        assert not result.ok
        assert {v.code for v in result.violations} == {code}
        assert all(v.line > 0 for v in result.violations)

    @pytest.mark.parametrize("code", PROJECT_CODES)
    def test_clean_variant_passes(self, code):
        result = lint_file(fixture(code, "clean"))
        assert result.ok, [v.format() for v in result.violations]

    @pytest.mark.parametrize("code", PROJECT_CODES)
    def test_noqa_variant_suppresses(self, code):
        result = lint_file(fixture(code, "noqa"))
        assert result.ok
        assert code in {v.code for v in result.suppressed}

    def test_noqa_file_suppresses_project_rule(self):
        result = lint_file(FIXTURES / "rpr101_noqa_file.py")
        assert result.ok
        assert "RPR101" in {v.code for v in result.suppressed}

    def test_rpr104_chunked_submission_trigger(self):
        result = lint_file(FIXTURES / "rpr104_chunk_trigger.py")
        assert not result.ok
        assert {v.code for v in result.violations} == {"RPR104"}
        (violation,) = result.violations
        assert "chunk" in violation.message

    def test_rpr104_chunked_submission_clean(self):
        result = lint_file(FIXTURES / "rpr104_chunk_clean.py")
        assert result.ok, [v.format() for v in result.violations]

    def test_rpr104_chunked_submission_noqa(self):
        result = lint_file(FIXTURES / "rpr104_chunk_noqa.py")
        assert result.ok
        assert "RPR104" in {v.code for v in result.suppressed}

    def test_rpr104_sweep_pool_submit_trigger(self):
        result = lint_file(FIXTURES / "rpr104_submit_trigger.py")
        assert not result.ok
        assert {v.code for v in result.violations} == {"RPR104"}
        (violation,) = result.violations
        assert "lambda" in violation.message

    def test_rpr104_shared_pool_submit_clean(self):
        result = lint_file(FIXTURES / "rpr104_submit_clean.py")
        assert result.ok, [v.format() for v in result.violations]

    def test_rpr104_dict_payload_trigger(self):
        result = lint_file(FIXTURES / "rpr104_payload_trigger.py")
        assert not result.ok
        assert {v.code for v in result.violations} == {"RPR104"}
        (violation,) = result.violations
        assert "lambda" in violation.message

    def test_rpr105_worker_span_closed_in_finally_is_clean(self):
        result = lint_file(FIXTURES / "rpr105_worker_clean.py")
        assert result.ok, [v.format() for v in result.violations]

    def test_rpr105_worker_span_without_finally_triggers(self):
        result = lint_file(FIXTURES / "rpr105_worker_trigger.py")
        assert not result.ok
        assert {v.code for v in result.violations} == {"RPR105"}
        (violation,) = result.violations
        assert "run_chunk" in violation.message

    def test_rpr105_worker_noqa_suppresses(self):
        result = lint_file(FIXTURES / "rpr105_worker_noqa.py")
        assert result.ok
        assert "RPR105" in {v.code for v in result.suppressed}

    def test_rpr103_message_carries_the_call_chain(self):
        result = lint_file(FIXTURES / "rpr103_trigger.py")
        (violation,) = result.violations
        assert "_driver" in violation.message
        assert "_step" in violation.message
        assert "time.time" in violation.message


class TestLayers:
    def test_layer_of_takes_the_longest_prefix(self):
        names = [name for name, _ in LAYERS]
        assert names[layer_of("repro.sim.engine")] == "kernel"
        assert names[layer_of("repro.core.task")] == "types and substrate"
        assert names[layer_of("repro.core.api")] == "API and studies"
        assert names[layer_of("repro.chaos.plan")] == "mechanisms"
        assert names[layer_of("repro.chaos.campaign")] == "API and studies"
        assert names[layer_of("repro.obs.report")] == "tools"
        assert names[layer_of("repro.__main__")] == "tools"
        assert layer_of("numpy.random") is None

    def test_relative_imports_resolve_and_inits_are_exempt(self, tmp_path):
        # A checkout inside a directory named repro names modules from
        # the innermost one.
        package = tmp_path / "repro" / "src" / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("from repro.cli import main\n")
        (package / "kernel.py").write_text(
            "from ..cli import main\n"
            "from . import engine\n"
            "def lazy():\n"
            "    from repro.lint import lint_paths\n"
        )
        result = lint_paths([package], rules="project")
        (violation,) = result.violations
        assert violation.path.endswith("kernel.py") and violation.line == 1
        assert "repro.cli.main (tools)" in violation.message


class TestProjectModel:
    def test_thread_entry_detection(self):
        model = build_model("rpr101_trigger.py")
        assert model.thread_entries() == ["rpr101_trigger.worker"]

    def test_sim_entry_detection(self):
        model = build_model("rpr103_trigger.py")
        assert model.sim_entries() == ["rpr103_trigger.Runner._driver"]

    def test_self_method_calls_resolve(self):
        model = build_model("rpr103_trigger.py")
        parents = model.reachable(model.sim_entries())
        assert "rpr103_trigger.Runner._step" in parents
        chain = ProjectModel.chain(parents, "rpr103_trigger.Runner._step")
        assert chain == [
            "rpr103_trigger.Runner._driver",
            "rpr103_trigger.Runner._step",
        ]

    def test_lock_sites_are_scope_qualified(self):
        model = build_model("rpr102_trigger.py")
        keys = {
            site.key
            for fn in model.functions.values()
            for site in fn.lock_sites
        }
        assert keys == {
            "rpr102_trigger.lock_a",
            "rpr102_trigger.lock_b",
        }

    def test_single_parse_is_shared_between_passes(self, monkeypatch):
        import repro.lint.checker as checker_mod

        calls = []
        real = checker_mod.parse_file

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(checker_mod, "parse_file", counting)
        checker_mod.lint_paths([FIXTURES / "rpr101_trigger.py"])
        assert len(calls) == 1

    def test_duplicate_path_arguments_are_deduped(self):
        fixture = FIXTURES / "rpr101_trigger.py"
        files = collect_files([fixture, fixture, FIXTURES])
        assert files.count(fixture) == 1


class TestRulesFlag:
    def test_rules_file_skips_project_pass(self):
        result = lint_paths([FIXTURES / "rpr101_trigger.py"], rules="file")
        assert result.ok

    def test_rules_project_skips_file_pass(self, tmp_path):
        bad = tmp_path / "both.py"
        bad.write_text(
            "def f(x=[]):\n    return x\n", encoding="utf-8"
        )  # RPR004, but no project finding
        result = lint_paths([bad], rules="project")
        assert result.ok

    def test_rules_all_runs_both(self, tmp_path):
        result = lint_paths([FIXTURES / "rpr101_trigger.py"], rules="all")
        assert {v.code for v in result.violations} == {"RPR101"}

    def test_bad_rules_value_raises(self):
        with pytest.raises(ValueError):
            lint_paths([FIXTURES], rules="everything")

    def test_cli_rules_flag(self):
        code, _ = run_cli(
            "lint", str(FIXTURES / "rpr101_trigger.py"), "--rules", "file"
        )
        assert code == 0
        code, _ = run_cli(
            "lint", str(FIXTURES / "rpr101_trigger.py"), "--rules", "all"
        )
        assert code == 1

    def test_select_filters_project_rules(self):
        result = lint_paths(
            [FIXTURES / "rpr101_trigger.py"], select=["RPR102"]
        )
        assert result.ok


class TestCliSurface:
    def test_src_repro_clean_under_all_rules(self):
        code, output = run_cli("lint", "--rules", "all", str(SRC))
        assert code == 0, output

    def test_json_schema_v2(self):
        code, output = run_cli(
            "lint", str(FIXTURES / "rpr101_trigger.py"), "--format", "json"
        )
        assert code == 1
        payload = json.loads(output)
        assert payload["schema"] == "repro-lint/2"
        assert payload["ok"] is False
        assert payload["baselined"] == []
        assert isinstance(payload["suppressed"], int)
        (violation,) = payload["violations"]
        assert set(violation) == {"path", "line", "col", "code", "message"}

    def test_exclude_skips_directories(self):
        code, output = run_cli(
            "lint", str(FIXTURES.parent), "--exclude", "project",
            "--rules", "project", "--format", "json",
        )
        assert code == 0, output
        payload = json.loads(output)
        assert payload["ok"] is True

    def test_explicit_file_beats_exclude(self):
        code, _ = run_cli(
            "lint", str(FIXTURES / "rpr101_trigger.py"),
            "--exclude", "project",
        )
        assert code == 1

    def test_list_rules_includes_project_family(self):
        code, output = run_cli("lint", "--list-rules")
        assert code == 0
        for rule_code in PROJECT_CODES:
            assert rule_code in output

    def test_unknown_select_code_is_exit_2(self):
        code, output = run_cli("lint", "--select", "RPR999", str(FIXTURES))
        assert code == 2
        assert "unknown rule code" in output


class TestBaseline:
    def test_write_then_pass(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        fixture = str(FIXTURES / "rpr101_trigger.py")
        code, output = run_cli(
            "lint", fixture, "--write-baseline", str(baseline)
        )
        assert code == 0
        assert "1 finding" in output
        code, output = run_cli("lint", fixture, "--baseline", str(baseline))
        assert code == 0, output
        assert "1 baselined" in output

    def test_new_finding_still_fails(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        code, _ = run_cli(
            "lint", str(FIXTURES / "rpr101_trigger.py"),
            "--write-baseline", str(baseline),
        )
        assert code == 0
        code, output = run_cli(
            "lint",
            str(FIXTURES / "rpr101_trigger.py"),
            str(FIXTURES / "rpr102_trigger.py"),
            "--baseline", str(baseline),
        )
        assert code == 1
        assert "RPR102" in output
        assert "RPR101" not in output.splitlines()[0]

    def test_baselined_findings_appear_in_json(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        fixture = str(FIXTURES / "rpr101_trigger.py")
        run_cli("lint", fixture, "--write-baseline", str(baseline))
        _, output = run_cli(
            "lint", fixture, "--baseline", str(baseline),
            "--format", "json",
        )
        payload = json.loads(output)
        assert payload["ok"] is True
        assert len(payload["baselined"]) == 1
        assert payload["baselined"][0]["code"] == "RPR101"

    def test_missing_baseline_is_exit_2(self):
        code, output = run_cli(
            "lint", str(FIXTURES / "rpr101_clean.py"),
            "--baseline", "no/such/baseline.json",
        )
        assert code == 2
        assert "error" in output

    def test_malformed_baseline_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "something-else"}', encoding="utf-8")
        code, output = run_cli(
            "lint", str(FIXTURES / "rpr101_clean.py"),
            "--baseline", str(bad),
        )
        assert code == 2
        assert "baseline" in output

    def test_committed_baseline_is_empty_and_tree_is_clean(self):
        committed = Path(__file__).parent.parent / "lint-baseline.json"
        data = json.loads(committed.read_text(encoding="utf-8"))
        assert data["schema"] == "repro-lint-baseline/1"
        assert data["entries"] == {}
