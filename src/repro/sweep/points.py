"""Declarative sweep points: picklable, fingerprintable, rebuildable.

A sweep point is one ``(app, backend, tasks)`` simulation.  To fan
points out over worker processes they must be picklable, and to cache
their results they must be fingerprintable — so a :class:`PointSpec`
carries the :class:`~repro.core.application.Application` without its
``executable_factory`` (unused by simulation, often an unpicklable
closure) and the simulator's frozen config dataclass, and rebuilds the
simulator inside :func:`run_point`.  Backends the registry doesn't know
how to describe (test doubles, the real-execution local backend whose
app needs an executable factory) fall back to :class:`InlinePoint`:
executed in the parent process against the original objects, never
cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.classiccloud.framework import ClassicCloudFramework
from repro.core.application import Application
from repro.core.metrics import average_time_per_file_per_core, parallel_efficiency
from repro.core.task import TaskSpec
from repro.dryad.dryadlinq import DryadLinqSimulator
from repro.hadoop.job import HadoopSimulator

__all__ = [
    "InlinePoint",
    "PointResult",
    "PointSpec",
    "point_for",
    "run_point",
]


#: The simulators the spec layer can describe and rebuild from config.
_SIMULATORS = {
    "classiccloud": ClassicCloudFramework,
    "hadoop": HadoopSimulator,
    "dryadlinq": DryadLinqSimulator,
}


@dataclass(frozen=True)
class PointSpec:
    """One independent sweep point, ready to ship to a worker process."""

    app: Application  # executable_factory is always None
    backend_kind: str
    backend_config: object  # the backend's frozen config dataclass
    tasks: tuple[TaskSpec, ...]
    label: str

    def build_backend(self):
        try:
            simulator = _SIMULATORS[self.backend_kind]
        except KeyError:
            raise ValueError(
                f"unknown backend kind {self.backend_kind!r}; "
                f"known: {sorted(_SIMULATORS)}"
            ) from None
        return simulator(self.backend_config)


@dataclass
class InlinePoint:
    """A point that must run in-process against live objects (uncached)."""

    app: Application
    backend: object
    tasks: list[TaskSpec]
    label: str


@dataclass(frozen=True)
class PointResult:
    """The plain-data outcome of one point — what gets cached and
    shipped back across the process boundary."""

    label: str
    backend: str
    cores: int
    n_tasks: int
    makespan_s: float
    t1_s: float
    billed: bool
    compute_cost: float
    amortized_cost: float
    total_cost: float
    #: Numeric run extras (queue stats, autoscale counters, ...) copied
    #: from RunResult.extras — floats only, so the JSON round-trip
    #: through the cache is exact.
    extras: dict = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        """Parallel efficiency of the run (paper Equation 1)."""
        return parallel_efficiency(self.t1_s, self.makespan_s, self.cores)

    @property
    def per_file_per_core_s(self) -> float:
        """Average time per file per core (paper Equation 2)."""
        return average_time_per_file_per_core(
            self.makespan_s, self.cores, self.n_tasks
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "backend": self.backend,
            "cores": self.cores,
            "n_tasks": self.n_tasks,
            "makespan_s": self.makespan_s,
            "t1_s": self.t1_s,
            "billed": self.billed,
            "compute_cost": self.compute_cost,
            "amortized_cost": self.amortized_cost,
            "total_cost": self.total_cost,
            "extras": {k: self.extras[k] for k in sorted(self.extras)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PointResult":
        return cls(
            label=data["label"],
            backend=data["backend"],
            cores=data["cores"],
            n_tasks=data["n_tasks"],
            makespan_s=data["makespan_s"],
            t1_s=data["t1_s"],
            billed=data["billed"],
            compute_cost=data["compute_cost"],
            amortized_cost=data["amortized_cost"],
            total_cost=data["total_cost"],
            extras=dict(data.get("extras", {})),
        )


def _label_for(backend) -> str:
    """The paper's axis label: the config's label if it has one."""
    return getattr(getattr(backend, "config", None), "label", backend.name)


def point_for(
    app: Application, backend, tasks: list[TaskSpec]
) -> "PointSpec | InlinePoint":
    """Describe ``(app, backend, tasks)`` as a spec if possible.

    Returns a picklable :class:`PointSpec` for the simulated backends,
    or an :class:`InlinePoint` for anything the registry cannot rebuild
    from plain data.
    """
    kind = next(
        (k for k, cls in _SIMULATORS.items() if type(backend) is cls), None
    )
    if kind is None:
        return InlinePoint(
            app=app, backend=backend, tasks=list(tasks),
            label=_label_for(backend),
        )
    return PointSpec(
        app=replace(app, executable_factory=None),
        backend_kind=kind,
        backend_config=backend.config,
        tasks=tuple(tasks),
        label=_label_for(backend),
    )


def _measure(backend, app: Application, tasks: list[TaskSpec], label: str):
    result = backend.run(app, tasks)
    t1 = backend.estimate_sequential_time(app, tasks)
    billing = result.billing
    extras = {
        k: float(v)
        for k, v in sorted((result.extras or {}).items())
        if isinstance(v, (int, float))
    }
    # Absolute per-phase seconds from the TaskRecords.  Records are
    # dropped from the cached plain-data result, so this is the only
    # place phase totals survive the process/cache boundary — merged
    # traces are checked against these (phase-agreement invariant).
    records = result.records or []
    extras["phase_download_s"] = float(sum(r.download_time for r in records))
    extras["phase_compute_s"] = float(sum(r.compute_time for r in records))
    extras["phase_upload_s"] = float(sum(r.upload_time for r in records))
    return PointResult(
        label=label,
        backend=backend.name,
        cores=backend.total_cores,
        n_tasks=len(tasks),
        makespan_s=result.makespan_seconds,
        t1_s=t1,
        billed=billing is not None,
        compute_cost=billing.compute_cost if billing else 0.0,
        amortized_cost=billing.total_amortized_cost if billing else 0.0,
        total_cost=billing.total_cost if billing else 0.0,
        extras=extras,
    )


def run_point(spec: PointSpec) -> PointResult:
    """Execute one spec'd point (this is what worker processes run).

    The backend is built here and nothing else can reach it, so once the
    plain result exists its run is released (:meth:`Environment.close
    <repro.sim.engine.Environment.close>`) and reference counting frees
    the whole simulation at once.
    """
    backend = spec.build_backend()
    result = _measure(backend, spec.app, list(spec.tasks), spec.label)
    backend.last_environment.close()
    return result


def run_inline(point: InlinePoint) -> PointResult:
    """Execute an inline point against its live objects."""
    return _measure(point.backend, point.app, point.tasks, point.label)
