"""Figure 9: BLAST across Azure instance types, workers x threads.

Paper setup: 8 query files of 100 sequences, on 8 Small / 4 Medium /
2 Large / 1 ExtraLarge instances (constant 8 cores), each tried with
multiple workers (processes) and with BLAST threads.

Paper findings to reproduce:
* although Azure instance features scale linearly, BLAST performs better
  with more total memory — the ~8 GB database gets resident;
* Large and ExtraLarge deliver the best performance;
* pure BLAST threads inside one worker are slightly slower than the same
  core count as separate worker processes;
* cost is directly proportional to run time (linear Azure pricing).
"""

import pytest

from benchmarks.conftest import run_figure


def test_fig9_blast_azure_instance_types(benchmark, emit):
    results = run_figure(benchmark, emit, "fig9")

    best_time = {}
    for label, itype, workers, threads, t, cost in results:
        best_time[itype] = min(best_time.get(itype, float("inf")), t)

    # More total memory = faster; Large/XL are the best performers.
    assert best_time["Small"] > best_time["Medium"] > best_time["Large"]
    assert best_time["ExtraLarge"] <= best_time["Large"] * 1.05

    # Threads slightly slower than the same cores as processes.
    by_shape = {
        (itype, workers, threads): t
        for _, itype, workers, threads, t, _ in results
    }
    assert by_shape[("Large", 1, 4)] > by_shape[("Large", 4, 1)] * 0.99
    assert by_shape[("ExtraLarge", 1, 8)] > by_shape[("ExtraLarge", 8, 1)]

    # Cost proportional to time (linear pricing): same $/s across shapes.
    rates = [cost / t for _, _, _, _, t, cost in results]
    assert max(rates) == pytest.approx(min(rates), rel=0.05)
