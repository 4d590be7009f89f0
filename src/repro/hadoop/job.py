"""Map-only Hadoop jobs: the simulator and the local mini runtime.

The simulated :class:`HadoopSimulator` implements the scheduling policies
the paper credits for Hadoop's behaviour:

* a **global task queue** consumed by per-node map slots — dynamic
  scheduling, "achieving natural load balancing among the tasks";
* **data locality**: a free slot prefers a pending task whose input block
  resides on its node (non-local tasks pay a network read);
* **speculative execution**: when the queue drains, free slots launch
  backup copies of the slowest running tasks; the first finisher wins;
* **failure handling**: a failed attempt's task is re-queued (bounded
  retries) unless another attempt of it runs, which may be backed up.

:class:`MiniHadoop` is the real-execution counterpart: a thread pool of
map slots drives executables through the paper's custom
InputFormat/RecordReader over real files.
"""

from __future__ import annotations

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
from repro.hadoop.hdfs import HdfsClient
from repro.hadoop.inputformat import FileNameInputFormat
from repro.obs.context import current as _current_obs
from repro.sim.engine import Environment, Event, IdleWait, make_environment
from repro.sim.rng import RngRegistry

__all__ = ["HadoopJobConfig", "HadoopSimulator", "MiniHadoop"]


@dataclass(frozen=True)
class HadoopJobConfig:
    """One Hadoop deployment + job tuning."""

    cluster: ClusterSpec
    map_slots_per_node: int | None = None  # default: schedulable cores
    replication: int = 3
    locality_aware: bool = True
    speculative_execution: bool = True
    speculative_progress_threshold: float = 0.8
    task_failure_probability: float = 0.0
    straggler_probability: float = 0.0
    straggler_slowdown: float = 5.0
    max_attempts: int = 4
    seed: int = 0
    # "fifo" is Hadoop's order-of-submission scheduling; "lpt" (longest
    # processing time first) is an extension that needs per-task work
    # estimates — it shortens the tail on heavy-tailed workloads.
    scheduling_policy: str = "fifo"

    def __post_init__(self) -> None:
        if self.scheduling_policy not in ("fifo", "lpt"):
            raise ValueError(
                f"unknown scheduling_policy {self.scheduling_policy!r}"
            )
        slots = self.slots_per_node
        if slots < 1:
            raise ValueError("map_slots_per_node must be >= 1")
        if slots > self.cluster.node.machine.cores:
            raise ValueError(
                f"{slots} slots exceed the node's "
                f"{self.cluster.node.machine.cores} cores"
            )
        check_faults(
            self, "task_failure_probability", "speculative_progress_threshold"
        )

    @property
    def slots_per_node(self) -> int:
        if self.map_slots_per_node is not None:
            return self.map_slots_per_node
        return self.cluster.node.cores_for_scheduling

    @property
    def total_slots(self) -> int:
        return self.slots_per_node * self.cluster.n_nodes


class HadoopSimulator:
    """Play a map-only job over the simulated cluster."""

    name = "hadoop"

    def __init__(self, config: HadoopJobConfig):
        self.config = config
        #: The latest run's event loop (the sanitizer report's source).
        self.last_environment: Environment | None = None

    @property
    def total_cores(self) -> int:
        return self.config.total_slots

    def run(self, app: Application, tasks: list[TaskSpec]) -> RunResult:
        if not tasks:
            raise ValueError("no tasks to run")
        run = _HadoopRun(self.config, app, tasks)
        self.last_environment = run.env
        return run.execute()

    def estimate_sequential_time(
        self, app: Application, tasks: list[TaskSpec]
    ) -> float:
        """T1: one uncontended slot, inputs on local disk."""
        return sequential_seconds(
            app.perf_model, tasks, self.config.cluster.node.machine
        )


class _HadoopRun:
    def __init__(
        self, config: HadoopJobConfig, app: Application, tasks: list[TaskSpec]
    ):
        self.config = config
        self.app = app
        self.tasks = tasks
        self.obs = _current_obs()
        self.tracer = self.obs.tracer
        self._m_dispatches = self.obs.metrics.counter("scheduler.dispatches")
        self._m_speculative = self.obs.metrics.counter(
            "scheduler.speculative_dispatches"
        )
        self.env = make_environment()
        self.rng = RngRegistry(config.seed)
        node = config.cluster.node
        self.hdfs = HdfsClient(
            config.cluster.n_nodes,
            self.rng.stream("placement"),
            replication=config.replication,
            disk_mbps=node.machine.disk_mbps,
            network_gbps=config.cluster.interconnect_gbps,
        )
        for task in tasks:
            self.hdfs.put(task.input_key, task.input_size)
        self.pending: list[TaskSpec] = list(tasks)
        self.running: dict[str, list[Attempt]] = {}
        self.completed: set[str] = set()
        self.attempts_used: dict[str, int] = {t.task_id: 0 for t in tasks}
        # Backups share a task's dispatch count but not its failure
        # budget: only failed attempts count against max_attempts.
        self.failures: dict[str, int] = {t.task_id: 0 for t in tasks}
        self.records: list[TaskRecord] = []
        self.done = self.env.event()
        # The drained-queue scan found no backup candidate.  It stays
        # empty until an attempt starts or ends: progress and completed
        # only grow, has_backup is cleared only when an attempt fails,
        # and an ended primary can hand attempts[0] to its backup.
        self._no_backup_candidate = False
        # Slots that found no work, each as [next tick, slot index, the
        # event it waits on]; see _idle.
        self._sleepers: list[list] = []

    # -- orchestration -------------------------------------------------------
    def execute(self) -> RunResult:
        # Distributed-cache preload (paper Section 5): every node pulls
        # the application's sidecar data (e.g. the compressed BLAST
        # database) from HDFS in parallel, each bounded by its own NIC.
        # Excluded from the measured window, as the paper excludes
        # database distribution times.
        preload_seconds = 0.0
        if self.app.preload_bytes:
            nic_bps = self.config.cluster.interconnect_gbps * 1e9 / 8.0
            preload_seconds = (
                self.app.preload_bytes / nic_bps
                + self.app.preload_extract_seconds
            )
        slots = self.config.slots_per_node
        for node in range(self.config.cluster.n_nodes):
            for slot in range(slots):
                name = f"node{node}-slot{slot}"
                self.env.process(
                    self._slot(node, name, node * slots + slot), name=name
                )
        makespan = self.env.run(until=self.done)
        self.obs.metrics.counter("sim.events").inc(self.env.events_scheduled)
        return RunResult(
            backend="hadoop",
            app_name=self.app.name,
            n_tasks=len(self.tasks),
            makespan_seconds=makespan,
            records=self.records,
            extras={
                "locality_fraction": self.hdfs.locality_fraction,
                "local_reads": float(self.hdfs.stats.local_reads),
                "remote_reads": float(self.hdfs.stats.remote_reads),
                "speculative_attempts": float(
                    sum(1 for r in self.records if r.speculative)
                ),
                "preload_seconds": preload_seconds,
            },
            completed=set(self.completed),
        )

    # -- JobTracker ------------------------------------------------------------
    def _next_assignment(self, node: int) -> tuple[TaskSpec, bool] | None:
        """(task, speculative?) for a free slot on ``node``, or None."""
        if self.pending:
            if self.config.scheduling_policy == "lpt":
                # Longest-processing-time first, still preferring local
                # candidates among the heavy tasks.
                local = [
                    i
                    for i, task in enumerate(self.pending)
                    if self.config.locality_aware
                    and self.hdfs.is_local(task.input_key, node)
                ]
                pool = local if local else range(len(self.pending))
                heaviest = max(pool, key=lambda i: self.pending[i].work_units)
                return self.pending.pop(heaviest), False
            if self.config.locality_aware:
                for i, task in enumerate(self.pending):
                    if self.hdfs.is_local(task.input_key, node):
                        return self.pending.pop(i), False
            return self.pending.pop(0), False
        victim = self._backup_candidate()
        if victim is None:
            return None
        victim.has_backup = True
        return victim.task, True

    def _backup_candidate(self) -> Attempt | None:
        """With the queue drained: the running attempt to back up, the
        one with the latest expected finish whose progress is below the
        threshold, or None."""
        if not self.config.speculative_execution or self._no_backup_candidate:
            return None
        candidates = []
        now = self.env.now
        for attempts in self.running.values():
            primary = attempts[0]
            if primary.has_backup or primary.task.task_id in self.completed:
                continue
            duration = primary.expected_end - primary.started
            progress = (now - primary.started) / duration if duration > 0 else 1.0
            if progress < self.config.speculative_progress_threshold:
                candidates.append(primary)
        if not candidates:
            self._no_backup_candidate = True
            return None
        return max(candidates, key=lambda r: r.expected_end)

    # -- idle slots ------------------------------------------------------------
    def _idle(self, index: int) -> Event:
        """The wait of slot ``index`` after it found no work.

        Polling every simulated second would find none either until an
        attempt starts or ends or a task is re-queued, and an idle check
        draws no RNG and changes nothing.  So the slot sleeps off the
        heap, keeping its next tick; :meth:`_wake_sleeper` puts it back
        on its own 1 s grid.
        """
        event = IdleWait(self.env)
        self._sleepers.append([self.env.now + 1.0, index, event])
        return event

    def _wake_sleeper(self) -> None:
        """After an attempt starts: if work is left, wake the sleeper
        whose tick comes first, at that tick, where 1 s polling would
        have found the work.

        Only a start can leave work for a sleeper.  A slot whose attempt
        ends or fails looks for work itself at once, and if it finds
        some, that is a start.  Ticks tie only among slots idle on the
        same grid since time 0, and polling keeps those in slot order."""
        sleepers = self._sleepers
        if not sleepers or not (
            self.pending or self._backup_candidate() is not None
        ):
            return
        now = self.env.now
        for sleeper in sleepers:
            tick = sleeper[0]
            while tick < now:
                tick += 1.0  # the polling chain, not now + k
            sleeper[0] = tick
        first = min(sleepers, key=lambda sleeper: sleeper[:2])
        sleepers.remove(first)
        tick, _, event = first
        event._ok = True
        event._value = None
        # A new sequence number: a tick landing on now fires after the
        # start that woke it.
        self.env._enqueue_at(event, tick)

    # -- the map slot ------------------------------------------------------------
    def _slot(self, node: int, name: str, index: int):
        config = self.config
        # Streams are created on first draw: most slots never fail or
        # straggle, and some never run a task.
        stream = self.rng.stream
        while len(self.completed) < len(self.tasks):
            assignment = self._next_assignment(node)
            if assignment is None:
                yield self._idle(index)
                continue
            task, speculative = assignment
            if task.task_id in self.completed:
                continue  # completed while we were deciding
            started = self.env.now
            self._m_dispatches.inc()
            if speculative:
                self._m_speculative.inc()
            self.tracer.instant(
                "scheduler.dispatch",
                track=name,
                ts=started,
                task_id=task.task_id,
                speculative=speculative,
                node=node,
            )
            self.attempts_used[task.task_id] += 1
            service = task_runtime_seconds(
                self.app.perf_model, task.work_units,
                config.cluster.node.machine,
                concurrent_workers=config.slots_per_node,
            )
            attempt = Attempt(
                task, name, self.attempts_used[task.task_id], started,
                self.hdfs.read_seconds(task.input_key, node),
                draw_service(
                    stream, name, service, config.straggler_probability,
                    config.straggler_slowdown, straggles=not speculative,
                ),
                self.hdfs.write_seconds(task.output_size),
                draw_failure(stream, name, config.task_failure_probability),
                speculative=speculative,
            )
            self.running.setdefault(task.task_id, []).append(attempt)
            self._no_backup_candidate = False
            self._sample_running()
            self._wake_sleeper()

            yield self.env.timeout(attempt.runs_for)
            if attempt.fail_share is not None:
                # Died partway through compute.  Re-queue the task unless
                # its other attempt runs, which may then be backed up anew.
                self._attempt_over(attempt)
                self.failures[task.task_id] += 1
                if task.task_id not in self.completed:
                    if self.failures[task.task_id] >= config.max_attempts:
                        raise RuntimeError(
                            f"task {task.task_id} failed "
                            f"{config.max_attempts} attempts"
                        )
                    if task.task_id in self.running:
                        self.running[task.task_id][0].has_backup = False
                    else:
                        self.pending.append(task)
                continue

            won = task.task_id not in self.completed
            if won:
                self.completed.add(task.task_id)
            self._attempt_over(attempt)
            self.records.append(
                attempt.finish(
                    self.tracer, self.env.now, won=won, speculative=speculative
                )
            )
            if len(self.completed) == len(self.tasks) and not self.done.triggered:
                self.done.succeed(self.env.now)

    def _attempt_over(self, attempt: Attempt) -> None:
        attempts = self.running[attempt.task.task_id]
        attempts.remove(attempt)
        if not attempts:
            del self.running[attempt.task.task_id]
        self._no_backup_candidate = False
        self._sample_running()

    def _sample_running(self) -> None:
        """Timeline sample: in-flight attempts over sim time."""
        if self.obs.enabled:
            self.obs.timeline.sample(
                "scheduler.running_tasks",
                self.env.now,
                sum(len(a) for a in self.running.values()),
            )


class MiniHadoop:
    """Local thread-pool runtime for real map-only jobs.

    Uses the paper's FileNameInputFormat: the map function receives the
    file name (key) and path (value), mirroring how the real Hadoop
    implementation drives legacy executables.  Like Hadoop, failed map
    attempts re-execute up to ``max_attempts`` times before the job
    fails.
    """

    def __init__(self, n_slots: int = 4, max_attempts: int = 4):
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.n_slots = n_slots
        self.max_attempts = max_attempts

    def run_job(
        self,
        executable: Executable,
        input_dir: str | Path,
        output_dir: str | Path,
        pattern: str = "*",
    ) -> RunResult:
        """Map every file in ``input_dir`` through the executable.

        Raises the final attempt's exception if any split exhausts its
        retries (the Hadoop "job failed" condition).
        """
        import time

        input_format = FileNameInputFormat(pattern)
        splits = input_format.get_splits(input_dir)
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        # Captured on the driving thread; pool threads close over it.
        tracer = _current_obs().tracer
        start = time.monotonic()  # repro: noqa[RPR001] real runtime

        def map_task(split) -> TaskRecord:
            reader = input_format.create_record_reader(split)
            (name, path), = list(reader)
            last_error: Exception | None = None
            for attempt in range(1, self.max_attempts + 1):
                try:
                    return run_timed(
                        tracer, "minihadoop", name,
                        lambda: executable.run(path, output_dir / name),
                        start, attempt,
                    )
                except Exception as exc:  # re-execute failed attempts
                    last_error = exc
            raise RuntimeError(
                f"map task {name!r} failed {self.max_attempts} attempts"
            ) from last_error

        with ThreadPoolExecutor(max_workers=self.n_slots) as pool:
            records = list(pool.map(map_task, splits))
        return RunResult(
            backend="minihadoop",
            app_name=executable.name,
            n_tasks=len(splits),
            makespan_seconds=time.monotonic() - start,  # repro: noqa[RPR001] real runtime
            records=records,
            completed={r.task_id for r in records},
        )
