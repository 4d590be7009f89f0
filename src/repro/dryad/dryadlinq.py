"""DryadLINQ Select over partitioned tables: simulator and local runtime.

The paper's DryadLINQ implementation applies ``Select`` on a partitioned
table; DryadLINQ compiles that to one vertex per partition, each pinned
to the node holding the partition's data (Windows shared directory).
Inside a node, the vertex processes its files using the node's cores;
across nodes there is **no** re-balancing — the static-partitioning
behaviour behind the paper's load-balancing comparison.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.apps.executables import Executable
from repro.apps.perfmodels import sequential_seconds, task_runtime_seconds
from repro.cluster.spec import ClusterSpec
from repro.core.application import Application
from repro.core.attempt import (
    Attempt, check_faults, draw_failure, draw_service, run_timed,
)
from repro.core.task import RunResult, TaskRecord, TaskSpec
from repro.dryad.graph import DryadGraph, Vertex
from repro.dryad.partitions import PartitionSet, partition_tasks
from repro.obs.context import current as _current_obs
from repro.sim.engine import Environment, make_environment
from repro.sim.rng import RngRegistry

__all__ = [
    "DryadLinqConfig",
    "DryadLinqSimulator",
    "DryadTable",
    "LocalDryadLinq",
]

#: Seconds from job submission to a vertex's start: graph compilation
#: plus vertex dispatch.
_JOB_STARTUP_S = 5.0


class DryadTable:
    """A partitioned table: the object LINQ queries run against."""

    def __init__(self, partition_set: PartitionSet):
        self.partition_set = partition_set

    @classmethod
    def from_tasks(cls, tasks: list[TaskSpec], n_partitions: int) -> "DryadTable":
        return cls(partition_tasks(tasks, n_partitions))

    def select(self, operation_name: str = "select") -> DryadGraph:
        """Compile ``Select`` into the Dryad graph: one vertex per
        partition, pinned to its data's node."""
        graph = DryadGraph()
        for node, partition in enumerate(self.partition_set.partitions):
            graph.add_vertex(
                Vertex(
                    vertex_id=f"{operation_name}-{node:03d}",
                    kind=operation_name,
                    payload=partition,
                    preferred_node=node,
                )
            )
        return graph


@dataclass(frozen=True)
class DryadLinqConfig:
    """One Windows HPC cluster deployment."""

    cluster: ClusterSpec
    workers_per_node: int | None = None  # default: schedulable cores
    vertex_failure_probability: float = 0.0
    straggler_probability: float = 0.0
    straggler_slowdown: float = 5.0
    max_attempts: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cluster.node.machine.os != "windows":
            raise ValueError(
                "DryadLINQ can be used only with Microsoft Windows HPC "
                f"clusters; {self.cluster.name} runs "
                f"{self.cluster.node.machine.os}"
            )
        if self.slots_per_node < 1:
            raise ValueError("workers_per_node must be >= 1")
        if self.slots_per_node > self.cluster.node.machine.cores:
            raise ValueError("workers_per_node exceeds node cores")
        check_faults(self, "vertex_failure_probability")

    @property
    def slots_per_node(self) -> int:
        if self.workers_per_node is not None:
            return self.workers_per_node
        return self.cluster.node.cores_for_scheduling

    @property
    def total_cores(self) -> int:
        return self.slots_per_node * self.cluster.n_nodes


class DryadLinqSimulator:
    """Play a Select job over the simulated Windows HPC cluster."""

    name = "dryadlinq"

    def __init__(self, config: DryadLinqConfig):
        self.config = config
        #: The latest run's event loop (the sanitizer report's source).
        self.last_environment: Environment | None = None

    @property
    def total_cores(self) -> int:
        return self.config.total_cores

    def run(self, app: Application, tasks: list[TaskSpec]) -> RunResult:
        if not tasks:
            raise ValueError("no tasks to run")
        table = DryadTable.from_tasks(tasks, self.config.cluster.n_nodes)
        graph = table.select(operation_name=app.name)
        run = _DryadRun(self.config, app, tasks, table, graph)
        self.last_environment = run.env
        return run.execute()

    def estimate_sequential_time(
        self, app: Application, tasks: list[TaskSpec]
    ) -> float:
        """T1: one uncontended worker, data on the local shared dir."""
        return sequential_seconds(
            app.perf_model, tasks, self.config.cluster.node.machine
        )


class _DryadRun:
    def __init__(self, config, app, tasks, table, graph):
        self.config = config
        self.app = app
        self.tasks = tasks
        self.table = table
        self.graph = graph
        self.env = make_environment()
        self.rng = RngRegistry(config.seed)
        self.records: list[TaskRecord] = []
        self.completed: set[str] = set()
        self.obs = _current_obs()
        self.tracer = self.obs.tracer
        self._m_dispatches = self.obs.metrics.counter("scheduler.dispatches")

    def execute(self) -> RunResult:
        # Manual sidecar distribution (paper Section 5): "we manually
        # distributed the database to each node using Windows-shared
        # directories" — every node copies from the head node's share,
        # so the head's uplink serializes the transfers.  Excluded from
        # the measured window like the paper excludes distribution time.
        preload_seconds = 0.0
        if self.app.preload_bytes:
            nic_bps = self.config.cluster.interconnect_gbps * 1e9 / 8.0
            preload_seconds = (
                self.config.cluster.n_nodes * self.app.preload_bytes / nic_bps
                + self.app.preload_extract_seconds
            )
        vertex_processes = []
        for vertex in self.graph.vertices():
            process = self.env.process(
                self._vertex(vertex), name=vertex.vertex_id
            )
            vertex_processes.append(process)
        barrier = self.env.all_of(vertex_processes)
        self.env.run(until=barrier)
        makespan = self.env.now
        self.obs.metrics.counter("sim.events").inc(self.env.events_scheduled)
        return RunResult(
            backend="dryadlinq",
            app_name=self.app.name,
            n_tasks=len(self.tasks),
            makespan_seconds=makespan,
            records=self.records,
            extras={
                "partition_imbalance": self.table.partition_set.imbalance(),
                "n_vertices": float(len(self.graph)),
                "preload_seconds": preload_seconds,
            },
            completed=set(self.completed),
        )

    def _vertex(self, vertex: Vertex):
        """One partition's execution on its pinned node.

        The vertex fans its partition's files across the node's worker
        slots (dynamic *within* the node, static across nodes).  Vertex
        failure re-executes the failed file with bounded attempts.
        """
        config = self.config
        node = vertex.preferred_node
        yield self.env.timeout(_JOB_STARTUP_S)
        self._m_dispatches.inc()
        self.tracer.instant(
            "scheduler.dispatch",
            track=vertex.vertex_id,
            ts=self.env.now,
            node=node,
            n_tasks=len(vertex.payload),
        )
        partition: tuple[TaskSpec, ...] = vertex.payload
        queue = list(partition)
        slots = []
        for slot in range(config.slots_per_node):
            name = f"{vertex.vertex_id}-w{slot}"
            slots.append(
                self.env.process(self._node_worker(queue, node, name), name=name)
            )
        yield self.env.all_of(slots)

    def _node_worker(self, queue: list[TaskSpec], node: int, name: str):
        config = self.config
        machine = config.cluster.node.machine
        # Streams are created on first draw: most workers never fail or
        # straggle.
        stream = self.rng.stream
        disk_bps = machine.disk_mbps * 1e6
        while queue:
            task = queue.pop(0)
            for number in range(1, config.max_attempts + 1):
                service = task_runtime_seconds(
                    self.app.perf_model, task.work_units, machine,
                    concurrent_workers=config.slots_per_node,
                )
                attempt = Attempt(
                    task, name, number, self.env.now,
                    task.input_size / disk_bps,
                    draw_service(
                        stream, name, service, config.straggler_probability,
                        config.straggler_slowdown,
                    ),
                    task.output_size / disk_bps,
                    draw_failure(
                        stream, name, config.vertex_failure_probability
                    ),
                )
                yield self.env.timeout(attempt.runs_for)
                if attempt.fail_share is None:
                    break
            else:
                raise RuntimeError(
                    f"task {task.task_id} failed {number} attempts"
                )
            self.completed.add(task.task_id)
            if self.obs.enabled:
                # Timeline sample: job progress over sim time.
                self.obs.timeline.sample(
                    "scheduler.tasks_completed",
                    self.env.now,
                    len(self.completed),
                )
            self.records.append(attempt.finish(self.tracer, self.env.now))


class LocalDryadLinq:
    """Real-execution Select with static node partitions.

    ``n_nodes`` independent worker pools each own one partition of the
    input files; no pool steals from another — wall time is the slowest
    pool, demonstrating the static-partitioning behaviour on real work.
    """

    def __init__(self, n_nodes: int = 2, workers_per_node: int = 2):
        if n_nodes < 1 or workers_per_node < 1:
            raise ValueError("nodes and workers must be >= 1")
        self.n_nodes = n_nodes
        self.workers_per_node = workers_per_node

    def run(self, executable: Executable, tasks: list[TaskSpec]) -> RunResult:
        if not tasks:
            raise ValueError("no tasks to run")
        partition_set = partition_tasks(tasks, self.n_nodes)
        records: list[TaskRecord] = []
        # Captured on the driving thread; pool threads close over it.
        tracer = _current_obs().tracer
        start = time.monotonic()  # repro: noqa[RPR001] real runtime

        def run_partition(node: int) -> list[TaskRecord]:
            partition = partition_set.partition_for_node(node)
            out: list[TaskRecord] = []

            def one(task: TaskSpec) -> TaskRecord:
                Path(task.output_key).parent.mkdir(parents=True, exist_ok=True)
                return run_timed(
                    tracer, f"node{node}", task.task_id,
                    lambda: executable.run(task.input_key, task.output_key),
                    start,
                )

            if not partition:
                return out
            with ThreadPoolExecutor(max_workers=self.workers_per_node) as pool:
                out = list(pool.map(one, partition))
            return out

        with ThreadPoolExecutor(max_workers=self.n_nodes) as nodes:
            for batch in nodes.map(run_partition, range(self.n_nodes)):
                records.extend(batch)
        return RunResult(
            backend="dryadlinq-local",
            app_name=executable.name,
            n_tasks=len(tasks),
            makespan_seconds=time.monotonic() - start,  # repro: noqa[RPR001] real runtime
            records=records,
            extras={"partition_imbalance": partition_set.imbalance()},
            completed={r.task_id for r in records},
        )
