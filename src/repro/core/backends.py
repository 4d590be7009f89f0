"""Backend registry: one interface over the four frameworks.

Every backend exposes ``name``, ``run(app, tasks)`` returning a
:class:`~repro.core.task.RunResult`, ``estimate_sequential_time`` (the T1
of Equation 1) and ``total_cores`` (the P).  The simulated backends are
the simulators themselves (:class:`ClassicCloudFramework` for EC2 and
Azure, :class:`HadoopSimulator`, :class:`DryadLinqSimulator`), mirroring
the paper's platforms; the local backend executes for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.classiccloud.framework import ClassicCloudConfig, ClassicCloudFramework
from repro.classiccloud.local import LocalClassicCloud
from repro.cluster.spec import get_cluster
from repro.core.application import Application
from repro.core.task import RunResult, TaskSpec
from repro.dryad.dryadlinq import DryadLinqConfig, DryadLinqSimulator
from repro.hadoop.job import HadoopJobConfig, HadoopSimulator

__all__ = [
    "Backend",
    "LocalBackend",
    "make_backend",
]


@runtime_checkable
class Backend(Protocol):
    """The uniform execution interface."""

    name: str

    @property
    def total_cores(self) -> int: ...

    def run(self, app: Application, tasks: list[TaskSpec]) -> RunResult: ...

    def estimate_sequential_time(
        self, app: Application, tasks: list[TaskSpec]
    ) -> float: ...


@dataclass
class LocalBackend:
    """Real execution on local threads with Classic Cloud semantics."""

    n_workers: int = 4
    visibility_timeout_s: float = 60.0
    timeout_s: float = 600.0
    name: str = "local"

    @property
    def total_cores(self) -> int:
        return self.n_workers

    def run(self, app: Application, tasks: list[TaskSpec]) -> RunResult:
        runner = LocalClassicCloud(
            n_workers=self.n_workers,
            visibility_timeout_s=self.visibility_timeout_s,
            timeout_s=self.timeout_s,
        )
        return runner.run(app.make_executable(), tasks)

    def estimate_sequential_time(
        self, app: Application, tasks: list[TaskSpec]
    ) -> float:
        """Real sequential execution time (actually runs the tasks)."""
        import time

        runner = LocalClassicCloud(
            n_workers=1,
            visibility_timeout_s=self.visibility_timeout_s,
            timeout_s=self.timeout_s,
        )
        start = time.monotonic()
        runner.run(app.make_executable(), tasks)
        return time.monotonic() - start


def make_backend(name: str, **kwargs) -> Backend:
    """Build a backend from a short name.

    * ``"ec2"`` — kwargs of :class:`ClassicCloudConfig` minus provider
      (defaults: 16 HCXL instances, 8 workers each — the paper's setup);
    * ``"azure"`` — likewise (defaults: 128 Small instances, 1 worker);
    * ``"hadoop"`` — kwargs of :class:`HadoopJobConfig`; ``cluster`` may
      be a catalog name;
    * ``"dryadlinq"`` — kwargs of :class:`DryadLinqConfig`, same cluster
      convention;
    * ``"local"`` — kwargs of :class:`LocalBackend`.
    """
    if name == "ec2":
        defaults = dict(
            provider="aws",
            instance_type="HCXL",
            n_instances=16,
            workers_per_instance=8,
        )
        defaults.update(kwargs)
        return ClassicCloudFramework(ClassicCloudConfig(**defaults))
    if name == "azure":
        defaults = dict(
            provider="azure",
            instance_type="Small",
            n_instances=128,
            workers_per_instance=1,
        )
        defaults.update(kwargs)
        return ClassicCloudFramework(ClassicCloudConfig(**defaults))
    if name == "hadoop":
        kwargs = dict(kwargs)
        cluster = kwargs.pop("cluster", "cap3-baremetal")
        if isinstance(cluster, str):
            cluster = get_cluster(cluster)
        return HadoopSimulator(HadoopJobConfig(cluster=cluster, **kwargs))
    if name == "dryadlinq":
        kwargs = dict(kwargs)
        cluster = kwargs.pop("cluster", "cap3-baremetal-windows")
        if isinstance(cluster, str):
            cluster = get_cluster(cluster)
        return DryadLinqSimulator(DryadLinqConfig(cluster=cluster, **kwargs))
    if name == "local":
        return LocalBackend(**kwargs)
    raise KeyError(
        f"unknown backend {name!r}; known: ec2, azure, hadoop, dryadlinq, local"
    )
