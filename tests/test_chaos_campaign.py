"""Tests for the chaos campaign study and its CLI surface."""

import io
import json

import pytest

from repro.chaos import (
    CAMPAIGN_MITIGATIONS,
    chaos_point,
    chaos_study,
    mitigation_settings,
    render_resilience,
    serialize_rows,
)
from repro.cli import main


def small_study(jobs=1, **kwargs):
    defaults = dict(
        apps=("cap3",),
        intensities=(0.0, 1.0),
        mitigations=("none",),
        n_files=8,
        horizon_s=60.0,
        seed=13,
        cache=None,
    )
    defaults.update(kwargs)
    return chaos_study(jobs=jobs, **defaults)


class TestMitigationSettings:
    def test_axis_mapping(self):
        assert mitigation_settings("none") == (None, None)
        retry, spec = mitigation_settings("retry+speculation")
        assert retry is not None and spec is not None
        retry_only, no_spec = mitigation_settings("retry")
        assert retry_only is not None and no_spec is None
        no_retry, spec_only = mitigation_settings("speculation")
        assert no_retry is None and spec_only is not None

    def test_negative_intensity_raises(self):
        with pytest.raises(ValueError, match="intensity"):
            chaos_point(
                "cap3", -1.0, "none", n_files=4, n_instances=1,
                workers_per_instance=2, seed=13, horizon_s=60.0,
            )

    def test_unknown_mitigation_raises(self):
        with pytest.raises(KeyError):
            mitigation_settings("prayer")

    def test_axis_is_least_to_most_defended(self):
        assert CAMPAIGN_MITIGATIONS[0] == "none"
        assert CAMPAIGN_MITIGATIONS[-1] == "retry+speculation"


class TestStudy:
    def test_rows_follow_grid_order_with_baseline_first(self):
        rows = small_study(mitigations=("retry",), intensities=(1.0,))
        # The fault-free unmitigated baseline is prepended when missing.
        assert (rows[0].intensity, rows[0].mitigation) == (0.0, "none")
        assert rows[0].makespan_inflation == 1.0
        assert (rows[1].intensity, rows[1].mitigation) == (1.0, "retry")

    def test_faults_inflate_makespan(self):
        rows = small_study()
        baseline, noisy = rows
        assert noisy.faults_injected > 0
        assert noisy.makespan_inflation > 1.0
        assert baseline.faults_injected == 0

    def test_goodput_accounting(self):
        rows = small_study()
        for row in rows:
            assert row.completed == 8
            assert row.goodput_tasks_per_hour == pytest.approx(
                row.completed / (row.makespan_s / 3600.0)
            )

    def test_same_seed_byte_identical_json(self):
        assert serialize_rows(small_study()) == serialize_rows(small_study())

    def test_jobs_do_not_change_the_report(self):
        assert serialize_rows(small_study(jobs=1)) == serialize_rows(
            small_study(jobs=2)
        )

    def test_render_resilience_table(self):
        text = render_resilience(small_study())
        assert "Chaos campaign" in text
        assert "inflation" in text
        assert "MTTR" in text


class TestCli:
    def test_chaos_smoke_json_artifact(self, tmp_path):
        report = tmp_path / "resilience.json"
        out = io.StringIO()
        code = main(
            [
                "chaos", "--smoke", "--files", "8", "--jobs", "1",
                "--no-cache", "--json", str(report),
            ],
            out=out,
        )
        assert code == 0
        assert "Chaos campaign" in out.getvalue()
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload
        cells = {(row["intensity"], row["mitigation"]) for row in payload}
        assert (0.0, "none") in cells
        assert (1.0, "retry+speculation") in cells
        for row in payload:
            assert row["completed"] == 8.0 or row["completed"] == 8

    def test_negative_intensity_exits_2(self):
        out = io.StringIO()
        code = main(
            ["chaos", "--intensities=-1", "--files", "8", "--jobs", "1",
             "--no-cache"],
            out=out,
        )
        assert code == 2
        assert out.getvalue().startswith("error: ")
        assert "intensity" in out.getvalue()

    def test_trace_plays_the_defended_row(self, tmp_path):
        report, trace = tmp_path / "rows.json", tmp_path / "trace.json"
        out = io.StringIO()
        code = main(
            [
                "chaos", "--smoke", "--files", "8", "--jobs", "1",
                "--no-cache", "--json", str(report), "--trace", str(trace),
            ],
            out=out,
        )
        assert code == 0
        (row,) = [
            row
            for row in json.loads(report.read_text(encoding="utf-8"))
            if (row["intensity"], row["mitigation"])
            == (1.0, "retry+speculation")
        ]
        assert (
            f"retry+speculation, makespan {row['makespan_s']:,.1f} s"
            in out.getvalue()
        )
        assert f"trace written to {trace}" in out.getvalue()
