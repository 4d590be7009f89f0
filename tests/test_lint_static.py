"""Tests for the static determinism linter (repro.lint)."""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import all_rules, lint_file, lint_paths

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src" / "repro"

# fixture file -> the one rule code it must trip
FIXTURE_CODES = {
    "sim/rpr001_wall_clock.py": "RPR001",
    "rpr002_global_rng.py": "RPR002",
    "rpr003_set_iteration.py": "RPR003",
    "rpr004_mutable_default.py": "RPR004",
    "rpr005_float_time_eq.py": "RPR005",
    "rpr006_heap_tiebreak.py": "RPR006",
    "sim/rpr007_span_wall_clock.py": "RPR007",
    "sim/rpr007_instant_trigger.py": "RPR007",
}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestFixtures:
    @pytest.mark.parametrize("fixture,code", sorted(FIXTURE_CODES.items()))
    def test_fixture_trips_its_rule_via_cli(self, fixture, code):
        exit_code, output = run_cli(
            "lint", str(FIXTURES / fixture), "--format", "json"
        )
        assert exit_code == 1
        payload = json.loads(output)
        assert not payload["ok"]
        codes = {v["code"] for v in payload["violations"]}
        assert code in codes

    @pytest.mark.parametrize("fixture,code", sorted(FIXTURE_CODES.items()))
    def test_fixture_violations_carry_locations(self, fixture, code):
        result = lint_file(FIXTURES / fixture)
        matching = [v for v in result.violations if v.code == code]
        assert matching
        assert all(v.line > 0 for v in matching)

    def test_wall_clock_fixture_finds_all_three_flavours(self):
        result = lint_file(FIXTURES / "sim" / "rpr001_wall_clock.py")
        messages = " ".join(v.message for v in result.violations)
        assert "time.time" in messages
        assert "time.perf_counter" in messages
        assert "datetime.datetime.now" in messages

    def test_clean_module_passes(self):
        result = lint_file(FIXTURES / "clean_module.py")
        assert result.ok
        assert result.violations == []

    def test_stamped_instants_pass(self):
        result = lint_file(FIXTURES / "sim" / "rpr007_instant_clean.py")
        assert result.ok
        assert result.violations == []

    def test_unstamped_instant_noqa_suppresses(self):
        result = lint_file(FIXTURES / "sim" / "rpr007_instant_noqa.py")
        assert result.ok
        assert {v.code for v in result.suppressed} == {"RPR007"}

    def test_noqa_suppression(self):
        result = lint_file(FIXTURES / "suppressed_noqa.py")
        assert result.ok
        suppressed = {v.code for v in result.suppressed}
        assert suppressed == {"RPR002", "RPR004"}


class TestScoping:
    def test_wall_clock_rule_only_applies_to_sim_paths(self):
        (rule,) = [r for r in all_rules() if r.code == "RPR001"]
        assert rule.applies_to(Path("src/repro/sim/engine.py"))
        assert rule.applies_to(Path("src/repro/cloud/queue.py"))
        assert not rule.applies_to(Path("src/repro/core/backends.py"))

    def test_event_driven_packages_are_sim_scoped(self):
        # serve, chaos and autoscale run inside the simulated clock too.
        for code in ("RPR001", "RPR007"):
            (rule,) = [r for r in all_rules() if r.code == code]
            for package in ("serve", "chaos", "autoscale"):
                assert rule.applies_to(Path(f"src/repro/{package}/x.py"))

    def test_global_rules_apply_everywhere(self):
        (rule,) = [r for r in all_rules() if r.code == "RPR004"]
        assert rule.applies_to(Path("anything/at/all.py"))


class TestCliSurface:
    def test_src_repro_is_clean(self):
        exit_code, output = run_cli("lint", str(SRC))
        assert exit_code == 0, output
        assert "0 violations" in output

    def test_select_and_ignore(self):
        result = lint_paths(
            [FIXTURES / "rpr002_global_rng.py"], select=["RPR006"]
        )
        assert result.ok
        result = lint_paths(
            [FIXTURES / "rpr002_global_rng.py"], ignore=["RPR002"]
        )
        assert result.ok

    def test_list_rules(self):
        exit_code, output = run_cli("lint", "--list-rules")
        assert exit_code == 0
        for code in FIXTURE_CODES.values():
            assert code in output

    def test_missing_path_errors(self):
        exit_code, output = run_cli("lint", "no/such/path.py")
        assert exit_code == 2
        assert "error" in output

    def test_syntax_error_reports_rpr000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def incomplete(:\n")
        result = lint_paths([bad])
        assert not result.ok
        assert result.violations[0].code == "RPR000"

    def test_json_output_is_stable(self):
        _, first = run_cli("lint", str(FIXTURES), "--format", "json")
        _, second = run_cli("lint", str(FIXTURES), "--format", "json")
        assert first == second
