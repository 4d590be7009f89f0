"""Figures 14 and 15: GTM Interpolation efficiency and per-core time.

Paper setup: 26.4M PubChem points in 264 files of 100k points; Azure
Small (single core), EC2 Large / HCXL / HM4XL, Hadoop on 24-core nodes
capped at 8 usable cores, DryadLINQ on 16-core Windows nodes.

Paper findings to reproduce:
* lower efficiencies than Cap3/BLAST across the board (memory-bound);
* Azure Small achieves the overall best efficiency (one core per
  memory bus = zero contention);
* among EC2 types, Large attains the best efficiency, HM4XL the best
  raw performance, HCXL the most economical;
* DryadLINQ's 16-core nodes suffer the most memory contention and end
  lowest.
"""

from repro.core.metrics import parallel_efficiency

from benchmarks.conftest import run_figure


def test_fig14_15_gtm_scaling(benchmark, emit):
    results = run_figure(benchmark, emit, "fig14_15")

    eff = {
        name: parallel_efficiency(r.t1_s, r.makespan_s, r.cores)
        for name, r in results.items()
    }
    # Azure Small: overall best efficiency.
    assert eff["Azure Small (64x1)"] == max(eff.values())
    # EC2 ranking: Large best efficiency, HCXL well below.
    assert eff["EC2 Large (32x2)"] > eff["EC2 HCXL (8x8)"]
    # DryadLINQ's 16-core nodes: the most contention, lowest efficiency.
    assert eff["DryadLINQ (16-core nodes)"] == min(eff.values())
    # Memory-bound: every multi-core-per-bus platform sits below the
    # Cap3-style 0.95 numbers.
    assert eff["EC2 HCXL (8x8)"] < 0.8
