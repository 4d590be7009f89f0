"""Smoke tests for the programmatic figure surface."""

from pathlib import Path

import pytest

from repro.figures import available_figures, render_figure


def test_available_figures_lists_all():
    assert available_figures() == [
        "autoscale",
        "chaos",
        "fig10_11",
        "fig12_13",
        "fig14_15",
        "fig3_4",
        "fig5_6",
        "fig7_8",
        "fig9",
        "serve",
    ]


RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
RECORDED = {
    "fig3_4": "fig3_4_cap3_instance_types",
    "fig9": "fig9_blast_azure_types",
    "fig12_13": "fig12_13_gtm_instance_types",
}


@pytest.mark.parametrize("figure_id", ["fig3_4", "fig9", "fig12_13"])
def test_render_fast_figures(figure_id):
    text = render_figure(figure_id)
    assert "|" in text  # a table came out
    assert len(text.splitlines()) >= 4
    # The CLI prints exactly what the benchmark suite records.
    path = RESULTS / f"{RECORDED[figure_id]}.txt"
    assert text + "\n" == path.read_text(encoding="utf-8")


def test_render_unknown_raises():
    with pytest.raises(KeyError, match="unknown figure"):
        render_figure("fig99")


def test_fig3_4_contains_paper_deployments():
    text = render_figure("fig3_4")
    for label in ("L - 8 x 2", "XL - 4 x 4", "HCXL - 2 x 8", "HM4XL - 2 x 8"):
        assert label in text
