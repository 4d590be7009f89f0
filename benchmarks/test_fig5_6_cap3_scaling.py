"""Figures 5 and 6: Cap3 parallel efficiency and per-file time, four ways.

Paper setup: replicated 458-read FASTA files; 16 HCXL instances on EC2,
128 Small instances on Azure, and a 32-node x 8-core 2.5 GHz bare-metal
cluster for Hadoop and DryadLINQ.  Weak scaling: the workload grows with
the fleet.

Paper findings to reproduce:
* all four implementations sit within ~20% parallel efficiency of each
  other, with low parallelization overheads (Figure 5);
* per-file-per-core times are flat-ish in scale (Figure 6);
* Cap3 runs ~12.5% faster on Windows, visible in DryadLINQ's (and
  Azure's) per-file times.
"""

from benchmarks.conftest import run_figure

CORE_COUNTS = [32, 64, 128]


def test_fig5_6_cap3_scaling(benchmark, emit):
    efficiency_series, per_file_series = run_figure(
        benchmark, emit, "fig5_6"
    )

    # Figure 5: comparable efficiency (within 20%) and low overheads.
    for cores in CORE_COUNTS:
        effs = [efficiency_series[n][cores] for n in efficiency_series]
        assert min(effs) > 0.75, f"low efficiency at {cores} cores: {effs}"
        assert max(effs) / min(effs) < 1.25  # 'within 20%'

    # Figure 6: per-file time roughly flat across scale for each platform.
    for name, series in per_file_series.items():
        values = list(series.values())
        assert max(values) / min(values) < 1.3, f"{name} not flat: {values}"

    # Windows runs Cap3 ~12.5% faster: DryadLINQ's per-file time beats
    # Hadoop's on identical hardware.
    assert (
        per_file_series["DryadLINQ"][128] < per_file_series["Hadoop"][128]
    )
