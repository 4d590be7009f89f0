"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures: it runs
the simulation once under pytest-benchmark timing, prints the rows (run
with ``-s`` to see them live), writes them to ``benchmarks/results/``,
and asserts the paper's qualitative shape (who wins, by what rough
factor, where crossovers fall).

The paper-figure benchmarks take their study and tables from
:data:`repro.figures.FIGURES` through :func:`run_figure`, so
``python -m repro figures <id>`` prints what they record.  Those studies
route their sweeps through :mod:`repro.sweep`: worker processes come
from ``REPRO_JOBS`` (default ``os.cpu_count()``) and completed points
are reused through the content-addressed cache under ``.repro-cache/``.
Set ``REPRO_NO_CACHE=1`` when you want the timing columns to measure
fresh simulation instead of cache reads.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def emit():
    """Print a table and persist it under benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _emit


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under benchmark timing and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_figure(benchmark, emit, figure_id: str):
    """Run paper figure ``figure_id`` once under benchmark timing, record
    each of its tables and return its data for the shape assertions."""
    from repro.figures import FIGURES

    figure = FIGURES[figure_id]
    data = run_once(benchmark, figure.study)
    for name, text in figure.tables(data).items():
        emit(name, text)
    return data
