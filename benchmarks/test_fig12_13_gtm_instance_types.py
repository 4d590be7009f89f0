"""Figures 12 and 13: GTM Interpolation cost and time across EC2 types.

Paper setup: PubChem splits on 16 compute cores per deployment.

Paper findings to reproduce:
* memory (size and bandwidth) is the bottleneck — GTM does best with
  more memory and fewer cores sharing it;
* HM4XL gives the best performance overall;
* HCXL is nevertheless the most economical choice;
* L (2 cores per memory bus) beats the 4-8 core types on per-core terms.
"""

from benchmarks.conftest import run_figure


def test_fig12_13_gtm_ec2_instance_types(benchmark, emit):
    rows = run_figure(benchmark, emit, "fig12_13")

    by_type = {r.label.split(" ")[0]: r for r in rows}
    times = {k: r.compute_time_s for k, r in by_type.items()}
    costs = {k: r.compute_cost for k, r in by_type.items()}

    # Figure 13: HM4XL best performance (highest clock AND bandwidth).
    assert times["HM4XL"] == min(times.values())
    # Memory contention: L (2 cores/bus) beats HCXL (8 cores/bus) even
    # though HCXL has the faster clock.
    assert times["L"] < times["HCXL"]
    # Figure 12: HCXL still the most economical.
    assert costs["HCXL"] == min(costs.values())
    assert costs["HM4XL"] == max(costs.values())
