"""The simulated Classic Cloud polling worker (paper Figure 1), shared
by the batch :class:`~repro.classiccloud.framework.ClassicCloudFramework`
and the multi-tenant :class:`~repro.serve.service.JobService`."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.apps.perfmodels import TaskPerfModel, task_runtime_seconds
from repro.chaos.retry import RetryPolicy, run_with_retry
from repro.chaos.speculation import BackupCopy
from repro.cloud.failures import FaultPlan
from repro.cloud.queue import MessageQueue, StaleReceiptError
from repro.cloud.storage import BlobNotFound, BlobStore, StorageUnavailable
from repro.core.attempt import add_phases, draw_service
from repro.core.task import TaskRecord, TaskSpec
from repro.obs.context import Observability
from repro.sim.engine import Environment, Interrupt, Process
from repro.sim.rng import RngRegistry

__all__ = ["WorkerFleet"]

#: Downloads retry through eventual-consistency 404s: 241 attempts at
#: a flat 0.5 s (two minutes), drawing no randomness.
_DOWNLOAD_RETRY = RetryPolicy.fixed(attempts=241, delay_s=0.5)


@dataclass(eq=False, kw_only=True)
class WorkerFleet:
    """The polling workers of one run: loop, registry, gauge, records.

    A worker polls the scheduling queue, downloads the input from blob
    storage, runs the program, uploads the output, deletes the message,
    runs its owner's completion step and records a :class:`TaskRecord`
    with matching ``task.*`` phase spans.  Idle polling runs through
    :meth:`~repro.cloud.queue.MessageQueue.poll`: one re-armed heap
    entry per worker, parked off the heap while the queue is empty.

    Owners supply only what differs between them.  ``perf_model(task)``
    picks a task's perf model; workers poll while ``keep_polling()``
    and their host is neither draining nor terminated.  Whoever flips
    one of those inputs calls ``task_queue.recheck()`` (the host flips
    do so through :class:`~repro.cloud.compute.CloudProvider`);
    ``on_complete(task_id)`` runs right after the message delete and
    may return a process generator (a monitor-queue send) that the
    worker drives to completion.  ``slots()``, when given, adds a
    ``workers.utilization`` series next to ``workers.busy``.  A worker
    that picks up one of ``fault_plan.poison_task_ids`` dies, and a
    replacement with the same link starts on its host
    ``fault_plan.poison_restart_s`` later if the host still runs.

    Worker names count up per fleet; each worker draws from the RNG
    streams ``{name}-jitter``, ``{name}-straggle`` and — with a
    ``retry_policy`` — ``{name}-backoff``.
    """

    env: Environment
    rng: RngRegistry
    obs: Observability
    task_queue: MessageQueue
    storage: BlobStore
    perf_model: Callable[[TaskSpec], TaskPerfModel]
    keep_polling: Callable[[], bool]
    on_complete: Callable[[str], "Generator | None"]
    workers_per_instance: int
    threads: int = 1
    poll_backoff_s: float = 1.0
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    retry_policy: RetryPolicy | None = None
    slots: Callable[[], int] | None = None
    #: One record per finished execution, in completion order.
    records: list[TaskRecord] = field(default_factory=list, init=False)
    #: Latest pick-up time per task id (the speculator's input).
    started_at: dict[str, float] = field(default_factory=dict, init=False)
    #: Delivery-to-completion seconds of tasks that finished on a
    #: redelivered message (the MTTR numerator).
    recoveries: list[float] = field(default_factory=list, init=False)
    #: Every worker process ever spawned, in spawn order.
    processes: list[Process] = field(default_factory=list, init=False)
    _finished: set[str] = field(default_factory=set, init=False)
    _hosts: dict[int, object] = field(default_factory=dict, init=False)
    _count: int = field(default=0, init=False)
    _busy: int = field(default=0, init=False)

    # -- registry ----------------------------------------------------------
    def spawn_instance(self, instance) -> list:
        """Start the configured workers on one (possibly fresh) instance."""
        return [self.spawn(instance) for _ in range(self.workers_per_instance)]

    def spawn(
        self,
        host,
        concurrent_workers: int | None = None,
        wan_bandwidth_bps: float | None = None,
        wan_latency_s: float = 0.0,
        prefix: str = "worker",
    ) -> Process:
        """Start one worker on ``host``; names count up per fleet."""
        self._count += 1
        name = f"{prefix}-{self._count}"
        if concurrent_workers is None:
            concurrent_workers = self.workers_per_instance
        process = self.env.process(
            self._work(
                host, name, concurrent_workers, wan_bandwidth_bps, wan_latency_s
            ),
            name=name,
        )
        self._hosts[id(process)] = host
        self.processes.append(process)
        return process

    def host_of(self, process: Process):
        """The host a worker process was spawned on (None if unknown)."""
        return self._hosts.get(id(process))

    def respawn_like(self, victim: Process) -> None:
        """Replacement worker on a crashed worker's host, if it runs."""
        host = self.host_of(victim)
        if host is not None and host.is_running:
            self.spawn(host)

    def _respawn_poisoned(self, host, *link):
        """Replace a poisoned worker on its host, with the same link
        (concurrent workers, WAN bandwidth and latency)."""
        yield self.env.timeout(self.fault_plan.poison_restart_s)
        if host.is_running:
            self.spawn(host, *link)

    # -- the loop ----------------------------------------------------------
    def _sample_busy(self, delta: int) -> None:
        """Timeline samples: busy workers (+ utilization) over sim time.

        Every ``+1`` is paired with a ``-1``: the normal path emits it
        after the task completes, and the Interrupt recovery path emits
        it for a worker killed mid-task (poison / preemption / chaos),
        so the gauge returns to zero when the run drains.
        """
        if not self.obs.enabled:
            return
        self._busy += delta
        now = self.env.now
        timeline = self.obs.timeline
        timeline.sample("workers.busy", now, self._busy)
        if self.slots is not None:
            slots = self.slots()
            if slots > 0:
                timeline.sample("workers.utilization", now, self._busy / slots)

    def _work(
        self,
        host,
        name: str,
        concurrent_workers: int,
        wan_bandwidth_bps: float | None,
        wan_latency_s: float,
    ):
        env = self.env
        storage = self.storage
        plan = self.fault_plan
        # Streams are created on first draw: most workers never
        # straggle, and some never run a task.
        stream = self.rng.stream
        backoff_name = f"{name}-backoff"
        retry_policy = self.retry_policy
        tracer = self.obs.tracer
        wait_start = env.now
        busy = False  # whether a +1 busy sample awaits its -1
        empty_streak = 0

        def keep_going() -> bool:
            # Scale-in: a draining (or already terminated) host stops
            # taking new tasks; the current task was finished first.
            return (
                self.keep_polling() and not host.draining and host.is_running
            )

        def backoff() -> float:
            # The empty-receive backoff grows (jittered) instead of
            # hammering a drained queue at a fixed period.
            nonlocal empty_streak
            empty_streak = min(empty_streak + 1, 30)
            return retry_policy.backoff_s(empty_streak, stream(backoff_name))

        try:
            while True:
                msg = yield from self.task_queue.poll(
                    keep_going,
                    self.poll_backoff_s,
                    extra_latency_s=wan_latency_s,
                    backoff=backoff if retry_policy is not None else None,
                    stable_until=math.inf,
                )
                if msg is None:
                    return
                empty_streak = 0
                body = msg.body
                speculative = isinstance(body, BackupCopy)
                task: TaskSpec = body.task if speculative else body
                model = self.perf_model(task)
                started = env.now
                self.started_at[task.task_id] = started

                # Poison task: executing its input kills the worker.
                # The message reappears after the visibility timeout and
                # — with a redrive policy — eventually dead-letters.
                if task.task_id in plan.poison_task_ids:
                    env.process(
                        self._respawn_poisoned(
                            host,
                            concurrent_workers,
                            wan_bandwidth_bps,
                            wan_latency_s,
                        ),
                        name=f"{name}-respawn",
                    )
                    return

                self._sample_busy(+1)
                busy = True

                try:
                    # Download the input file over HTTP, retrying through
                    # eventual-consistency 404s.  Bounded: a key that
                    # never appears is a configuration error, not a
                    # consistency blip, and must fail loudly rather than
                    # hang the run.
                    t0 = env.now
                    try:
                        yield from run_with_retry(
                            env,
                            _DOWNLOAD_RETRY,
                            lambda: storage.get(
                                task.input_key,
                                bandwidth_bps=wan_bandwidth_bps,
                                extra_latency_s=wan_latency_s,
                            ),
                            retryable=(BlobNotFound,),
                        )
                    except BlobNotFound:
                        raise RuntimeError(
                            f"input {task.input_key!r} never became "
                            "visible in storage"
                        ) from None
                    download_time = env.now - t0

                    # Execute the program.
                    service = task_runtime_seconds(
                        model,
                        task.work_units,
                        host.machine,
                        concurrent_workers=concurrent_workers,
                        threads=self.threads,
                        clock_ghz=host.effective_clock_ghz(),
                    )
                    # Small service-time noise on top of instance jitter.
                    service = draw_service(
                        stream, name, service, plan.straggler_probability,
                        plan.straggler_slowdown, noise="jitter",
                    )
                    t1 = env.now
                    yield env.timeout(service)
                    compute_time = env.now - t1

                    # Upload the result (idempotent overwrite on
                    # re-execution).
                    t2 = env.now
                    yield from storage.put(
                        task.output_key,
                        task.output_size,
                        bandwidth_bps=wan_bandwidth_bps,
                        extra_latency_s=wan_latency_s,
                    )
                    upload_time = env.now - t2
                except StorageUnavailable:
                    # Retry budget exhausted mid-attempt: abandon it.
                    # The undeleted message reappears after the
                    # visibility timeout and another worker re-executes
                    # the task — the recovery path the paper relies on.
                    self._sample_busy(-1)
                    busy = False
                    wait_start = env.now
                    continue

                # Delete the message; a stale receipt means the task was
                # re-delivered meanwhile — our (identical) result stands.
                was_duplicate = msg.receive_count > 1
                try:
                    yield from self.task_queue.delete(msg)
                except StaleReceiptError:
                    was_duplicate = True
                step = self.on_complete(task.task_id)
                if step is not None:
                    yield from step

                # First finisher wins; a backup copy (or the original it
                # raced) landing second is redundant work, same as a
                # redelivered duplicate.
                finished_before = task.task_id in self._finished
                self._finished.add(task.task_id)
                if (
                    not finished_before
                    and msg.receive_count > 1
                    and msg.first_received_at is not None
                ):
                    # Completed on a redelivery: the visibility-timeout
                    # recovery path repaired lost work.
                    self.recoveries.append(env.now - msg.first_received_at)
                self.records.append(
                    TaskRecord(
                        task_id=task.task_id,
                        worker=name,
                        started_at=started,
                        finished_at=env.now,
                        download_time=download_time,
                        compute_time=compute_time,
                        upload_time=upload_time,
                        attempt=msg.receive_count,
                        was_duplicate=was_duplicate,
                        speculative=speculative,
                        won=not was_duplicate and not finished_before,
                    )
                )
                # Spans mirror the record exactly (same env.now readings,
                # emitted with no intervening yields), so Chrome-trace
                # phase totals agree with analysis.phase_breakdown.
                if tracer.enabled:
                    tracer.add(
                        "task.queue_wait", track=name, start=wait_start,
                        end=started, task_id=task.task_id,
                    )
                    add_phases(
                        tracer, name, (t0, t1, t2, t2 + upload_time),
                        task_id=task.task_id,
                    )
                self._sample_busy(-1)
                busy = False
                wait_start = env.now
        except Interrupt:
            # Crashed (poison / preemption / chaos): the in-flight
            # message reappears after the visibility timeout.  Emit the
            # busy end-sentinel the completion path would have emitted
            # so the sampled gauge doesn't stay inflated forever.
            if busy:
                self._sample_busy(-1)
            return
