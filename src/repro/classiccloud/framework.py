"""Simulated Classic Cloud framework (EC2 / Azure).

Plays the paper's Figure 1 architecture on the discrete-event cloud
substrate: provisions instances, stages inputs into blob storage, fills
the scheduling queue, runs polling workers, and reports makespan, cost
and per-task traces.

Timing follows the paper's methodology: provisioning and application
preload (e.g. the BLAST database download) happen before the measured
window; "it is assumed that the data was already present in the
framework's preferred storage location", so input staging is metered for
cost but not for time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

from repro.apps.perfmodels import sequential_seconds, task_runtime_seconds
from repro.autoscale.plan import AutoscalePlan
from repro.chaos.injectors import ChaosController
from repro.chaos.plan import ChaosPlan
from repro.chaos.retry import RetryPolicy
from repro.chaos.speculation import BackupCopy, SpeculationPolicy
from repro.classiccloud.deployment import Deployment, check_deployment
from repro.classiccloud.worker import WorkerFleet
from repro.cloud.compute import CloudProvider
from repro.cloud.failures import FaultPlan
from repro.cloud.instance_types import (
    InstanceType,
    MachineModel,
    get_instance_type,
)
from repro.cloud.queue import MessageQueue, StaleReceiptError
from repro.core.application import Application
from repro.core.task import RunResult, TaskSpec
from repro.sim.engine import Environment

__all__ = ["ClassicCloudConfig", "ClassicCloudFramework", "LocalAugmentation"]


@dataclass(frozen=True)
class LocalAugmentation:
    """On-premise workers joining the cloud job (paper Section 2.1.3).

    "One can start workers in computers outside of the cloud to augment
    compute capacity" — they poll the same scheduling queue but reach
    cloud storage over a WAN, so data-heavy tasks benefit less (the
    paper's caveat about the data living in the cloud).
    """

    n_workers: int
    machine: MachineModel = MachineModel(
        cores=8, clock_ghz=2.33, memory_gb=16.0, mem_bandwidth_gbps=10.6
    )
    wan_bandwidth_mbps: float = 10.0  # megaBITS/s — a 2010 site uplink
    wan_latency_s: float = 0.080

    def __post_init__(self) -> None:
        if not 1 <= self.n_workers <= self.machine.cores:
            raise ValueError(
                f"n_workers must be in 1..{self.machine.cores}"
            )
        if self.wan_bandwidth_mbps <= 0 or self.wan_latency_s < 0:
            raise ValueError("WAN parameters must be positive")


class _LocalHost:
    """A non-billed execution host for augmentation workers."""

    draining = False  # local hosts are never scaled in

    def __init__(self, machine: MachineModel):
        self.machine = machine

    def effective_clock_ghz(self) -> float:
        return self.machine.clock_ghz

    @property
    def is_running(self) -> bool:
        return True


@dataclass(frozen=True)
class ClassicCloudConfig:
    """One deployment shape: 'HCXL - 2 x 8' in the paper's axis labels."""

    provider: str  # "aws" or "azure"
    instance_type: str  # catalog name
    n_instances: int
    workers_per_instance: int
    threads_per_worker: int = 1
    visibility_timeout_s: float | None = None  # None: auto from perf model
    poll_backoff_s: float = 1.0
    seed: int = 0
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    consistency_window_s: float = 1.0
    max_sim_seconds: float = 10_000_000.0  # watchdog: fail runs that hang
    perf_jitter: float | None = None  # None: provider default (1.56%/2.25%)
    local_augmentation: LocalAugmentation | None = None
    # Dead-letter redrive: tasks received more than this many times
    # without completion are quarantined instead of redelivered forever.
    # None disables the policy (the paper's unbounded behaviour).
    max_task_attempts: int | None = None
    # Elastic pool: when set, n_instances is only the *initial* fleet
    # and an AutoscaleController grows/shrinks it mid-run (with optional
    # spot-market bidding and preemption).  None keeps the paper's
    # static deployment.
    autoscale: AutoscalePlan | None = None
    # Chaos: a seeded fault schedule (crashes, preemption waves,
    # queue/storage misbehaviour windows, slow nodes) played against
    # the run by repro.chaos.  None injects nothing.
    chaos: ChaosPlan | None = None
    # Mitigation: a budget-capped backoff-with-jitter policy for the
    # storage client's internal 5xx retries and the workers' empty-
    # receive poll backoff.  None keeps the historical behaviour
    # (retry-forever storage, fixed poll_backoff_s).
    retry_policy: RetryPolicy | None = None
    # Mitigation: Hadoop-style speculative re-execution — backup copies
    # of slowest-percentile in-flight tasks, first finisher wins,
    # duplicates reconciled idempotently.  None disables speculation.
    speculation: SpeculationPolicy | None = None

    def __post_init__(self) -> None:
        if self.n_instances < 1 or self.workers_per_instance < 1:
            raise ValueError("instances and workers must be >= 1")
        if self.threads_per_worker < 1:
            raise ValueError("threads_per_worker must be >= 1")
        check_deployment(self)
        itype = self.resolve_instance_type()
        slots = self.workers_per_instance * self.threads_per_worker
        if slots > itype.machine.cores:
            raise ValueError(
                f"{self.workers_per_instance} workers x "
                f"{self.threads_per_worker} threads exceed the "
                f"{itype.machine.cores} cores of {itype.name}"
            )

    def resolve_instance_type(self) -> InstanceType:
        return get_instance_type(self.provider, self.instance_type)

    @property
    def total_cores(self) -> int:
        return self.n_instances * self.resolve_instance_type().machine.cores

    @property
    def total_workers(self) -> int:
        return self.n_instances * self.workers_per_instance

    @property
    def label(self) -> str:
        """The paper's axis format: 'HCXL - 2 x 8'."""
        return (
            f"{self.instance_type} - {self.n_instances} x "
            f"{self.workers_per_instance}"
        )


class ClassicCloudFramework:
    """Run an application over tasks on the simulated cloud."""

    def __init__(self, config: ClassicCloudConfig):
        self.config = config
        #: The event loop of the most recent run; under the sanitizer
        #: this exposes the recorded trace and the post-run report.
        self.last_environment: Environment | None = None

    @property
    def name(self) -> str:
        """The backend name: ``classiccloud-aws`` or ``classiccloud-azure``."""
        return f"classiccloud-{self.config.provider}"

    @property
    def total_cores(self) -> int:
        return self.config.total_cores

    # -- public API --------------------------------------------------------
    def run(self, app: Application, tasks: list[TaskSpec]) -> RunResult:
        """Execute ``tasks`` and return the measured result."""
        if not tasks:
            raise ValueError("no tasks to run")
        run = _SimRun(self.config, app, tasks)
        self.last_environment = run.env
        return run.execute()

    def estimate_sequential_time(
        self, app: Application, tasks: list[TaskSpec]
    ) -> float:
        """T1 for Equation 1 on this deployment's instance type."""
        return sequential_seconds(
            app.perf_model, tasks, self.config.resolve_instance_type().machine
        )


class _SimRun:
    """One execution: the batch job on one Classic Cloud deployment."""

    def __init__(
        self, config: ClassicCloudConfig, app: Application, tasks: list[TaskSpec]
    ):
        self.config = config
        self.app = app
        self.tasks = tasks
        self.deployment = deployment = Deployment(
            config,
            storage_error_rate=config.fault_plan.storage_error_rate,
            retry_policy=config.retry_policy,
        )
        self.obs = deployment.obs
        self.tracer = self.obs.tracer
        self.env = deployment.env
        self.storage = deployment.storage
        self.dead_letter_queue: MessageQueue | None = None
        if config.max_task_attempts is not None:
            self.dead_letter_queue = deployment.queue(
                "tasks-dlq", "dlq", miss_probability=0.0
            )
        machine = config.resolve_instance_type().machine
        self.task_queue = task_queue = deployment.queue(
            "tasks",
            "queue",
            visibility_timeout_s=deployment.visibility_timeout(
                task_runtime_seconds(
                    app.perf_model,
                    t.work_units,
                    machine,
                    concurrent_workers=config.workers_per_instance,
                    threads=config.threads_per_worker,
                )
                for t in tasks
            ),
            miss_probability=config.fault_plan.queue_miss_probability,
            duplicate_probability=config.fault_plan.message_duplicate_probability,
            max_receive_count=config.max_task_attempts,
            dead_letter_queue=self.dead_letter_queue,
        )
        self.monitor_queue = deployment.queue(
            "monitor", "monitor", visibility_timeout_s=60.0,
            miss_probability=0.0,
        )
        # The callbacks close over locals (the completion set, the
        # queues, the fleet, the cloud), never over this run.
        self.completed: set[str] = set()
        completed, n_tasks = self.completed, len(tasks)
        dead_letters = self.dead_letter_queue
        self.measure_start = 0.0
        self.preload_seconds = 0.0
        deployment.add_fleet(
            task_queue,
            perf_model=lambda task: app.perf_model,
            keep_polling=lambda: len(completed) < n_tasks,
            on_complete=self.monitor_queue.send,
            is_done=lambda: _accounted(completed, dead_letters) >= n_tasks,
            backlog=task_queue.approximate_size,
            utilization=True,
            threads=config.threads_per_worker,
            fault_plan=config.fault_plan,
            retry_policy=config.retry_policy,
        )
        self.workers = workers = deployment.workers
        self.records = workers.records
        # Speculation bookkeeping.
        self._backup_sent: set[str] = set()
        self.speculative_launched = 0
        self.chaos: ChaosController | None = None
        if config.chaos is not None:
            cloud = deployment.cloud
            self.chaos = ChaosController(
                self.env,
                config.chaos,
                queue=task_queue,
                storage=self.storage,
                instances=lambda: [i for i in cloud.instances if i.is_running],
                workers=lambda: [p for p in workers.processes if p.is_alive],
                crash_worker=lambda p: p.interrupt("chaos-crash"),
                restart_worker=workers.respawn_like,
                preempt_instance=partial(_preempt, workers, cloud),
            )

    # -- orchestration -------------------------------------------------------
    def execute(self) -> RunResult:
        driver = self.env.process(self._driver(), name="driver")
        makespan = self.env.run(until=driver)
        report, extras = self.deployment.finish(detailed=True)
        self._publish_busy_fractions(makespan)
        failed: set[str] = set()
        if self.dead_letter_queue is not None:
            dead = self.dead_letter_queue.peek_bodies()
            failed = {task.task_id for task in dead} - self.completed
        return RunResult(
            backend=f"classiccloud-{self.config.provider}",
            app_name=self.app.name,
            n_tasks=len(self.tasks),
            makespan_seconds=makespan,
            records=self.records,
            billing=report,
            extras={
                "preload_seconds": self.preload_seconds,
                **extras,
                **self._resilience_extras(len(failed)),
            },
            completed=set(self.completed),
            # Disjoint from completed: a task that finished somewhere but
            # also tripped the receive limit is a success, not a failure.
            failed=failed,
            queue_stats=asdict(self.task_queue.stats),
        )

    def _resilience_extras(self, n_failed: int) -> dict[str, float]:
        """Recovery metrics, emitted only on chaos/mitigation runs so
        legacy configurations keep byte-identical extras."""
        config = self.config
        if (
            config.chaos is None
            and config.speculation is None
            and config.retry_policy is None
        ):
            return {}
        # First finisher per task is useful work; every later attempt's
        # seconds are redundant.  Records append in completion order, so
        # the first record per task id is the winner.
        total = 0.0
        redundant = 0.0
        speculative_wins = 0
        first_done: set[str] = set()
        for record in self.records:
            total += record.elapsed
            if record.task_id in first_done:
                redundant += record.elapsed
            else:
                first_done.add(record.task_id)
                if record.speculative:
                    speculative_wins += 1
        recoveries = self.workers.recoveries
        extras = {
            "tasks_completed": float(len(self.completed)),
            "tasks_failed": float(n_failed),
            "redundant_seconds": redundant,
            "redundant_fraction": redundant / total if total else 0.0,
            # MTTR: delivery-to-completion time of tasks that finished
            # on a redelivered message — how long the visibility-timeout
            # recovery path took, averaged over recoveries.
            "chaos_mttr_s": (
                sum(recoveries) / len(recoveries) if recoveries else 0.0
            ),
            "chaos_recoveries": float(len(recoveries)),
            "speculative_launched": float(self.speculative_launched),
            "speculative_wins": float(speculative_wins),
            "lost_deletes": float(self.task_queue.stats.lost_deletes),
        }
        if self.chaos is not None:
            extras.update(self.chaos.summary())
        return extras

    def _publish_busy_fractions(self, makespan: float) -> None:
        """Per-worker busy fractions of the measured window."""
        metrics = self.obs.metrics
        if makespan <= 0:
            return
        busy: dict[str, float] = {}
        for record in self.records:
            busy[record.worker] = busy.get(record.worker, 0.0) + record.elapsed
        for worker, seconds in busy.items():
            metrics.gauge(f"worker.{worker}.busy_fraction").set(
                min(1.0, seconds / makespan)
            )

    def _driver(self):
        config = self.config
        itype = config.resolve_instance_type()
        yield from self.deployment.provision()
        # Stage inputs: metered (storage + ingress) but, per the paper's
        # methodology, outside the measured window and free of simulated
        # time (data "already present in the preferred storage").
        meter = self.deployment.meter
        for task in self.tasks:
            self.storage.stage(task.input_key, task.input_size)
            meter.record_transfer(bytes_in=task.input_size)

        # Preload phase (e.g. BLAST database distribution): per instance,
        # excluded from reported compute time.
        if self.app.preload_bytes:
            preload_start = self.env.now
            nic_bps = itype.machine.nic_gbps * 1e9 / 8.0
            yield self.env.timeout(
                self.app.preload_bytes / nic_bps
                + self.app.preload_extract_seconds
            )
            self.preload_seconds = self.env.now - preload_start

        self.measure_start = self.env.now
        # Client populates the scheduling queue while workers consume.
        self.env.process(self._client(), name="client")
        self.deployment.start(at=self.measure_start)
        # On-premise augmentation workers share the queue, but reach
        # storage over the WAN.
        if config.local_augmentation is not None:
            aug = config.local_augmentation
            host = _LocalHost(aug.machine)
            for _ in range(aug.n_workers):
                self.workers.spawn(
                    host,
                    concurrent_workers=aug.n_workers,
                    wan_bandwidth_bps=aug.wan_bandwidth_mbps * 1e6 / 8.0,
                    wan_latency_s=aug.wan_latency_s,
                    prefix="local",
                )
        # Fault injection: schedule crashes against the global worker
        # index (instance-major order, matching spawn order).
        workers = self.workers.processes
        for crash in config.fault_plan.worker_crashes:
            if 0 <= crash.worker_index < len(workers):
                self.env.process(
                    self._crasher(workers[crash.worker_index], crash),
                    name=f"crasher-{crash.worker_index}",
                )
        # Chaos: the seeded plan's clock starts at the measured window.
        if self.chaos is not None:
            self.chaos.start_at = self.measure_start
            self.chaos.start()
        if config.speculation is not None:
            self.env.process(self._speculator(), name="speculator")

        completion = self.env.process(self._completion_watcher(), name="watch")
        yield completion
        return self.env.now - self.measure_start

    def _crasher(self, worker_process, crash):
        delay = self.measure_start + crash.at_time - self.env.now
        yield self.env.timeout(max(0.0, delay))
        if worker_process.is_alive:
            worker_process.interrupt("fault-injected crash")
        if crash.restart_after is not None:
            yield self.env.timeout(crash.restart_after)
            self.workers.respawn_like(worker_process)

    def _speculator(self):
        """Launch backup copies of slowest-percentile in-flight tasks.

        Every poll, once enough tasks have completed to estimate a
        duration distribution, any task still executing after
        ``threshold_multiplier`` times the 75th-percentile completed
        duration gets one :class:`BackupCopy` enqueued.  Whichever
        attempt finishes first wins; the loser's (identical) result is
        reconciled idempotently by the completion watcher.
        """
        policy = self.config.speculation
        n_tasks = len(self.tasks)
        while _accounted(self.completed, self.dead_letter_queue) < n_tasks:
            yield self.env.timeout(policy.poll_s)
            durations = sorted(r.elapsed for r in self.records)
            if len(durations) < policy.min_completed:
                continue
            index = min(
                len(durations) - 1, max(0, int(0.75 * len(durations)) - 1)
            )
            cutoff = durations[index] * policy.threshold_multiplier
            now = self.env.now
            for task in self.tasks:
                tid = task.task_id
                if tid in self.completed or tid in self._backup_sent:
                    continue
                started = self.workers.started_at.get(tid)
                if started is None or now - started <= cutoff:
                    continue
                self._backup_sent.add(tid)
                self.speculative_launched += 1
                if self.tracer.enabled:
                    self.tracer.instant(
                        "chaos.speculate",
                        track="chaos",
                        ts=now,
                        task_id=tid,
                        age_s=now - started,
                        cutoff_s=cutoff,
                    )
                self.obs.timeline.sample(
                    "chaos.speculative", now, self.speculative_launched
                )
                yield from self.task_queue.send(BackupCopy(task))

    def _client(self):
        # SendMessageBatch: ten tasks per request, as real clients do.
        for start in range(0, len(self.tasks), 10):
            batch = self.tasks[start : start + 10]
            yield from self.task_queue.send_batch(batch)

    def _completion_watcher(self):
        deadline = self.config.max_sim_seconds
        n_tasks = len(self.tasks)
        completed, dead_letters = self.completed, self.dead_letter_queue

        def keep_going() -> bool:
            return (
                _accounted(completed, dead_letters) < n_tasks
                and self.env.now <= deadline
            )

        poll_backoff_s = self.config.poll_backoff_s
        # keep_going reads the deadline and the completions (added only
        # here); with a dead-letter queue it also reads the DLQ, which
        # changes without a recheck, so that watcher never parks.
        stable_until = deadline if self.dead_letter_queue is None else None
        while (
            msg := (
                yield from self.monitor_queue.poll(
                    keep_going, poll_backoff_s, stable_until=stable_until
                )
            )
        ) is not None:
            self.completed.add(msg.body)
            if len(self.completed) == n_tasks:
                # The workers' keep_polling() just turned false.
                self.task_queue.recheck()
            try:
                yield from self.monitor_queue.delete(msg)
            except StaleReceiptError:
                pass
        # poll() returned None: every task is accounted for, or the
        # watchdog deadline passed first.
        if _accounted(completed, dead_letters) < n_tasks:
            missing = n_tasks - len(self.completed)
            raise RuntimeError(
                f"run exceeded max_sim_seconds={deadline} with "
                f"{missing} tasks incomplete (all workers dead?)"
            )


def _accounted(completed: set, dead_letters: "MessageQueue | None") -> int:
    """Distinct tasks that completed or were dead-lettered.

    A union, not a sum: a slow task can complete *and* (with a tight
    visibility timeout) exceed the receive limit — it must not count
    twice.
    """
    if dead_letters is None:
        # Hot path: the completion watcher polls this every loop turn.
        return len(completed)
    accounted = set(completed)
    accounted.update(task.task_id for task in dead_letters.peek_bodies())
    return len(accounted)


def _preempt(workers: WorkerFleet, cloud: CloudProvider, instance) -> None:
    """Provider-initiated reclaim of one instance and its workers."""
    for process in workers.processes:
        if process.is_alive and workers.host_of(process) is instance:
            process.interrupt("chaos-preempted")
    if instance.is_running:
        cloud.terminate(instance, preempted=True)
