"""Experiment drivers: the sweeps behind every figure in the paper.

* :func:`instance_type_study` — run one workload over several deployment
  shapes of equal core count and report time + the two cost views
  (Figures 3/4, 7/8, 12/13, and the Azure Figure 9).
* :func:`scalability_study` — grow the workload with the core count and
  report parallel efficiency (Eq. 1) and per-file per-core time (Eq. 2)
  (Figures 5/6, 10/11, 14/15).

Both drivers expand their sweep into independent points and hand them to
:func:`repro.sweep.runner.run_points`, so they accept ``jobs=`` (process
parallelism; default serial) and ``cache=`` (a
:class:`~repro.sweep.cache.ResultCache`; default none).  Results are
ordered by the input sweep regardless of worker completion order, so
``jobs=4`` and ``jobs=1`` return identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

from repro.core.application import Application
from repro.core.backends import Backend
from repro.core.task import TaskSpec
from repro.sweep.points import point_for
from repro.sweep.runner import run_points

__all__ = [
    "InstanceStudyRow",
    "ScalingPoint",
    "instance_type_study",
    "scalability_study",
]


@dataclass(frozen=True)
class InstanceStudyRow:
    """One bar of an instance-type figure."""

    label: str  # e.g. "HCXL - 2 x 8"
    compute_time_s: float
    compute_cost: float  # full started hours (the paper's 'hour units')
    amortized_cost: float
    total_cost: float
    per_core_time_s: float


def instance_type_study(
    app: Application,
    backends: Sequence[Backend],
    tasks: list[TaskSpec],
    *,
    jobs: "int | None" = 1,
    cache=None,
    progress=None,
) -> list[InstanceStudyRow]:
    """Run the same task set on each deployment shape.

    The paper holds total cores at 16 and varies the instance type;
    callers are responsible for choosing backends honouring that.
    ``progress`` is forwarded to :func:`run_points` (a callable taking
    one :class:`~repro.sweep.runner.PointProgress` per event).
    """
    return _grid_rows(
        InstanceStudyRow, backends,
        lambda backend: point_for(app, backend, tasks),
        lambda _, r: {"compute_time_s": r.makespan_s,
                      "per_core_time_s": r.per_file_per_core_s},
        jobs=jobs, cache=cache, progress=progress,
    )


@dataclass(frozen=True)
class ScalingPoint:
    """One x-position of an efficiency / per-core-time figure."""

    backend: str
    cores: int
    n_tasks: int
    makespan_s: float
    t1_s: float
    efficiency: float
    per_file_per_core_s: float


def scalability_study(
    app: Application,
    backend_factory: Callable[[int], Backend],
    core_counts: Sequence[int],
    tasks_for: Callable[[int], list[TaskSpec]],
    *,
    jobs: "int | None" = 1,
    cache=None,
    progress=None,
) -> list[ScalingPoint]:
    """Weak-scaling sweep in the paper's style.

    ``backend_factory(cores)`` builds a deployment with that many cores;
    ``tasks_for(cores)`` supplies the (growing) workload — the paper
    replicates its data set so workload scales with the fleet.
    ``progress`` is forwarded to :func:`run_points`.
    """
    return _grid_rows(
        ScalingPoint, core_counts,
        lambda cores: point_for(app, backend_factory(cores), tasks_for(cores)),
        jobs=jobs, cache=cache, progress=progress,
    )


def _grid_rows(row_type, grid, point_of, values=None, *, jobs, cache,
               progress=None):
    """One ``row_type`` per cell of ``grid``, in grid order.

    ``point_of(cell)`` is the cell's sweep point; every point runs
    through one :func:`run_points` call.  A row's fields are
    ``values(cell, result)`` (a dict), and each field it leaves out is
    the :class:`~repro.sweep.points.PointResult` attribute of that name.
    """
    points = [point_of(cell) for cell in grid]
    results = run_points(points, jobs=jobs, cache=cache, progress=progress)
    return [
        _project(row_type, result, **(values(cell, result) if values else {}))
        for cell, result in zip(grid, results)
    ]


def _project(row_type, *sources, **values):
    """A ``row_type`` from ``values``; each field they leave out is read
    off the first of ``sources`` with an attribute of that name."""
    for name in (f.name for f in fields(row_type)):
        if name not in values:
            source = next(s for s in sources if hasattr(s, name))
            values[name] = getattr(source, name)
    return row_type(**values)
