"""Figures 3 and 4: Cap3 cost and compute time across EC2 instance types.

Paper setup: 200 FASTA files of 200 reads on 16 compute cores, deployed
as L-8x2, XL-4x4, HCXL-2x8 and HM4XL-2x8.

Paper findings to reproduce (shape, not absolute seconds):
* memory is not a bottleneck for Cap3 — performance tracks clock rate;
* HM4XL (3.25 GHz) is the fastest (Figure 4);
* HCXL is the most cost-effective (Figure 3);
* L and XL (same 2 GHz cores) take roughly the same time, and their
  16-core deployments cost the same $2.72 in hour units.
"""

import pytest

from benchmarks.conftest import run_figure


def test_fig3_4_cap3_ec2_instance_types(benchmark, emit):
    rows = run_figure(benchmark, emit, "fig3_4")

    by_type = {r.label.split(" ")[0]: r for r in rows}
    times = {k: r.compute_time_s for k, r in by_type.items()}
    costs = {k: r.compute_cost for k, r in by_type.items()}

    # Figure 4: HM4XL fastest; L and XL comparable (same clock).
    assert times["HM4XL"] == min(times.values())
    assert abs(times["L"] - times["XL"]) / times["XL"] < 0.15
    assert times["HCXL"] < times["L"]  # 2.5 GHz vs 2 GHz

    # Figure 3: HCXL most cost-effective; HM4XL most expensive.
    assert costs["HCXL"] == min(costs.values())
    assert costs["HM4XL"] == max(costs.values())
    # Hour-unit costs land on the paper's exact price points for a <1h run.
    assert costs["HCXL"] == pytest.approx(2 * 0.68)
    assert costs["L"] == pytest.approx(8 * 0.34)
    assert costs["XL"] == pytest.approx(4 * 0.68)
    assert costs["HM4XL"] == pytest.approx(2 * 2.00)
