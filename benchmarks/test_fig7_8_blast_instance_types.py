"""Figures 7 and 8: BLAST cost and time across EC2 instance types.

Paper setup: 64 query files of 100 sequences each against the 8.7 GB NR
database, on 16 compute cores per deployment.

Paper findings to reproduce:
* no dramatic memory effect — HCXL (<1 GB/core) performs comparably to
  L and XL (3.75 GB/core), because the database is page-cache shared;
* a *slight* memory correlation: XL (2.0 GHz, plenty of memory) keeps up
  with HCXL (2.5 GHz, tight memory);
* HM4XL (3.25 GHz) fastest, but at a much higher cost;
* HCXL again the most cost-effective.
"""

from benchmarks.conftest import run_figure


def test_fig7_8_blast_ec2_instance_types(benchmark, emit):
    rows = run_figure(benchmark, emit, "fig7_8")

    by_type = {r.label.split(" ")[0]: r for r in rows}
    times = {k: r.compute_time_s for k, r in by_type.items()}
    costs = {k: r.compute_cost for k, r in by_type.items()}

    # Figure 8: HM4XL fastest.
    assert times["HM4XL"] == min(times.values())
    # HCXL comparable to L and XL despite <1 GB per core (within ~25%).
    assert times["HCXL"] < times["L"] * 1.25
    assert times["HCXL"] < times["XL"] * 1.25
    # The slight memory correlation: XL's extra memory keeps it within
    # ~15% of the faster-clocked HCXL.
    assert times["XL"] < times["HCXL"] * 1.30

    # Figure 7: HCXL most cost-effective, HM4XL priciest.
    assert costs["HCXL"] == min(costs.values())
    assert costs["HM4XL"] == max(costs.values())
