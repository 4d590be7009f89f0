"""Calibrated analytic performance models for the simulator.

The discrete-event simulator cannot run the real executables at the
paper's scale (thousands of core-hours), so each application carries a
:class:`TaskPerfModel` describing how one task's runtime decomposes on a
given machine:

``runtime = (cpu_work / clock / thread_speedup / os_speedup
            + mem_traffic / per-worker bandwidth share) * paging_penalty``

* **cpu work** scales inversely with clock rate — the paper's Cap3 story
  (compute-bound; HM4XL's 3.25 GHz cores fastest).
* **memory traffic** is served by the instance's memory bandwidth shared
  among concurrently running workers — the paper's GTM story ("platforms
  with less memory contention — fewer CPU cores sharing a single memory —
  performed better").
* **paging penalty** kicks in when the shared working set (e.g. BLAST's
  ~8.7 GB NR database) plus per-worker private sets exceed instance
  memory — the paper's BLAST story (Azure Large/XL beat Small/Medium;
  HCXL's 7 GB across 8 workers depressed EC2 efficiency).
* **os speedup** carries the paper's observation that Cap3 runs ~12.5 %
  faster on Windows.
* **thread speedup** models ``blastp -num_threads``: slightly less
  efficient than an equal number of worker processes (Figure 9).

Calibration constants were chosen so the single-core task times land in
the same range as the paper's Figures 4, 8 and 13; all comparisons in
EXPERIMENTS.md are about *shape*, not absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.cloud.instance_types import MachineModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.task import TaskSpec

__all__ = [
    "APP_PERF_MODELS",
    "TaskPerfModel",
    "sequential_seconds",
    "task_runtime_seconds",
]


@dataclass(frozen=True)
class TaskPerfModel:
    """How one application's tasks consume a machine."""

    app_name: str
    unit: str  # what a work unit is ("read", "query", "kpoint")
    cpu_ghz_seconds_per_unit: float
    mem_bytes_per_unit: float
    shared_working_set_gb: float = 0.0  # e.g. a page-cache-shared database
    private_working_set_gb: float = 0.0  # per concurrently running worker
    supports_threads: bool = False
    thread_efficiency: float = 0.85  # marginal speedup per extra thread
    os_speedup: dict[str, float] = field(default_factory=dict)
    paging_slope: float = 0.6
    paging_threshold: float = 0.9  # memory pressure where thrash begins

    def __post_init__(self) -> None:
        if self.cpu_ghz_seconds_per_unit < 0 or self.mem_bytes_per_unit < 0:
            raise ValueError("work coefficients must be non-negative")
        if not 0.0 < self.thread_efficiency <= 1.0:
            raise ValueError("thread_efficiency must be in (0, 1]")

    def thread_speedup(self, threads: int) -> float:
        """Speedup from intra-task threads (1 thread -> 1.0)."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if threads == 1:
            return 1.0
        if not self.supports_threads:
            return 1.0
        return 1.0 + (threads - 1) * self.thread_efficiency

    def memory_pressure(self, machine: MachineModel, workers: int) -> float:
        """Working set as a fraction of instance memory."""
        total = (
            self.shared_working_set_gb
            + self.private_working_set_gb * max(workers, 1)
        )
        return total / machine.memory_gb

    def paging_penalty(self, machine: MachineModel, workers: int) -> float:
        """Runtime multiplier from exceeding instance memory (>= 1)."""
        pressure = self.memory_pressure(machine, workers)
        if pressure <= self.paging_threshold:
            return 1.0
        return 1.0 + self.paging_slope * (pressure - self.paging_threshold)


def task_runtime_seconds(
    model: TaskPerfModel,
    work_units: float,
    machine: MachineModel,
    concurrent_workers: int = 1,
    threads: int = 1,
    clock_ghz: float | None = None,
) -> float:
    """Seconds to run one task of ``work_units`` on ``machine``.

    ``concurrent_workers`` is how many workers share the instance while
    this task runs (determines the memory-bandwidth share and paging
    pressure).  ``clock_ghz`` overrides the catalog clock, e.g. to apply
    per-instance performance jitter.
    """
    if work_units < 0:
        raise ValueError("work_units must be non-negative")
    if concurrent_workers < 1:
        raise ValueError("concurrent_workers must be >= 1")
    clock = machine.clock_ghz if clock_ghz is None else clock_ghz
    os_factor = model.os_speedup.get(machine.os, 1.0)
    cpu_time = (
        work_units
        * model.cpu_ghz_seconds_per_unit
        / clock
        / model.thread_speedup(threads)
        / os_factor
    )
    bandwidth_share = machine.mem_bandwidth_gbps * 1e9 / concurrent_workers
    mem_time = work_units * model.mem_bytes_per_unit / bandwidth_share
    return (cpu_time + mem_time) * model.paging_penalty(
        machine, concurrent_workers
    )


def sequential_seconds(
    model: TaskPerfModel, tasks: "Iterable[TaskSpec]", machine: MachineModel
) -> float:
    """T1 of Equation 1: every task in turn on one uncontended core of
    ``machine``, inputs on local disk.

    Matches the paper's sequential measurement "having the input files
    present in the local disks, avoiding the data transfers": one
    worker, one thread, no service overheads.
    """
    return sum(
        task_runtime_seconds(model, t.work_units, machine) for t in tasks
    )


# ---------------------------------------------------------------------------
# Calibrations.
#
# Cap3: compute-bound (the paper infers "memory is not a bottleneck...
# performance depends primarily on computational power").  One work unit
# is one read; a 200-read task takes ~48 s on a 2.5 GHz HCXL core, so the
# Figure 3/4 study (200 files, 16 cores) lands near the paper's scale.
# Windows executes Cap3 ~12.5 % faster (Section 4.2).
#
# BLAST: compute-heavy per query with a large *shared* working set — the
# ~8.7 GB NR database, mmap-shared across workers through the page cache —
# plus ~0.5 GB of private per-worker state.  One work unit is one query.
#
# GTM Interpolation: "highly memory intensive"; memory bandwidth is the
# bottleneck (Section 6).  One work unit is one thousand data points
# (a 100k-point task = 100 units).
# ---------------------------------------------------------------------------
APP_PERF_MODELS: dict[str, TaskPerfModel] = {
    "cap3": TaskPerfModel(
        app_name="cap3",
        unit="read",
        cpu_ghz_seconds_per_unit=0.60,
        mem_bytes_per_unit=1.0e6,
        private_working_set_gb=0.05,
        os_speedup={"windows": 1.125},
    ),
    "blast": TaskPerfModel(
        app_name="blast",
        unit="query",
        cpu_ghz_seconds_per_unit=11.0,
        mem_bytes_per_unit=1.5e8,
        shared_working_set_gb=8.7,
        private_working_set_gb=0.3,
        supports_threads=True,
        thread_efficiency=0.85,
        os_speedup={"windows": 1.05},
    ),
    "gtm": TaskPerfModel(
        app_name="gtm",
        unit="kpoint",
        cpu_ghz_seconds_per_unit=0.50,
        mem_bytes_per_unit=2.0e8,
        private_working_set_gb=0.3,
    ),
}
