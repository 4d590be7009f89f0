"""The chaos controller: plays a compiled plan against one live run.

The controller owns no simulation objects — it is handed the queue and
storage clients plus callables that enumerate (and kill) the run's
workers and instances, so the same injector code layers over any
backend that exposes those hooks.  Victim selection is deterministic:
candidates are sorted by a stable key and indexed with the event's
compiled ``target``, so a seeded run replays the same casualties.

Every injection emits a sim-domain tracer instant on the ``chaos``
track and advances the ``chaos.faults`` timeline counter, which flow
through the existing Chrome-trace / report machinery unchanged.
"""

from __future__ import annotations

import math

from repro.chaos.plan import ChaosEvent, ChaosPlan
from repro.obs.context import current as _current_obs

__all__ = ["ChaosController"]

#: Seconds before a crashed worker's replacement starts.
_CRASH_RESTART_S = 30.0
#: Propagation delay a queue chaos window adds to every send.
_QUEUE_EXTRA_DELAY_S = 0.5


class ChaosController:
    """Schedules and applies a :class:`~repro.chaos.plan.ChaosPlan`."""

    def __init__(
        self,
        env,
        plan: ChaosPlan,
        *,
        queue=None,
        storage=None,
        instances=None,
        workers=None,
        crash_worker=None,
        restart_worker=None,
        preempt_instance=None,
        start_at: float = 0.0,
    ):
        """Wire the controller to one run.

        ``instances``/``workers`` are zero-argument callables returning
        the *current* candidates (live topology — autoscaled runs change
        theirs mid-flight).  ``crash_worker(process)`` interrupts one
        worker; ``restart_worker(process)`` starts its replacement;
        ``preempt_instance(instance)`` reclaims one instance including
        its workers.  Hooks left ``None`` turn the matching event kinds
        into no-ops (counted as skipped, never silently dropped).
        """
        self.env = env
        self.plan = plan
        self.queue = queue
        self.storage = storage
        self._instances = instances or (lambda: [])
        self._workers = workers or (lambda: [])
        self._crash_worker = crash_worker
        self._restart_worker = restart_worker
        self._preempt_instance = preempt_instance
        self.start_at = start_at
        obs = _current_obs()
        self._tracer = obs.tracer
        self._timeline = obs.timeline
        self._c_faults = obs.metrics.counter("chaos.faults")
        # Baselines for window restore, captured before any chaos runs.
        self._queue_baseline = (
            dict(
                miss_probability=queue.miss_probability,
                duplicate_probability=queue.duplicate_probability,
                delete_loss_probability=queue.delete_loss_probability,
                propagation_delay_s=queue.propagation_delay_s,
            )
            if queue is not None
            else {}
        )
        self._storage_baseline_error_rate = (
            storage.error_rate if storage is not None else 0.0
        )
        self.faults_injected = 0
        self.crashes = 0
        self.preemptions = 0
        self.queue_windows = 0
        self.storage_windows = 0
        self.slow_nodes = 0
        self.skipped = 0  # events with no live victim / missing hook

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Spawn the scheduler process (call once, at measure start)."""
        self.env.process(self._scheduler(), name="chaos-scheduler")

    def _scheduler(self):
        for event in self.plan.compile():
            fire_at = self.start_at + event.at_s
            if fire_at > self.env.now:
                yield self.env.timeout(fire_at - self.env.now)
            # Windowed faults run concurrently so an overlapping
            # schedule never delays the next event.
            if event.kind in ("queue_chaos", "storage_chaos", "slow_node"):
                self.env.process(
                    self._window(event), name=f"chaos-{event.kind}"
                )
            elif event.kind == "worker_crash":
                self.env.process(
                    self._crash(event), name="chaos-worker-crash"
                )
            elif event.kind == "preemption_wave":
                self._preemption_wave(event)
            else:
                raise ValueError(f"unknown chaos event kind {event.kind!r}")

    # -- bookkeeping -------------------------------------------------------
    def _record(self, event: ChaosEvent, **args) -> None:
        self.faults_injected += 1
        self._c_faults.inc()
        self._timeline.sample(
            "chaos.faults", self.env.now, self.faults_injected
        )
        self._tracer.instant(
            f"chaos.{event.kind}",
            track="chaos",
            ts=self.env.now,
            magnitude=event.magnitude,
            duration_s=event.duration_s,
            **args,
        )

    def _skip(self) -> None:
        self.skipped += 1

    # -- injectors ---------------------------------------------------------
    def _crash(self, event: ChaosEvent):
        if self._crash_worker is None:
            self._skip()
            return
        victims = sorted(self._workers(), key=lambda p: p.name)
        if not victims:
            self._skip()
            return
        victim = victims[event.target % len(victims)]
        self.crashes += 1
        self._record(event, worker=victim.name)
        self._crash_worker(victim)
        yield self.env.timeout(_CRASH_RESTART_S)
        if self._restart_worker is not None:
            self._restart_worker(victim)

    def _preemption_wave(self, event: ChaosEvent) -> None:
        if self._preempt_instance is None:
            self._skip()
            return
        pool = sorted(self._instances(), key=lambda i: i.instance_id)
        if not pool:
            self._skip()
            return
        count = max(1, math.ceil(event.magnitude * len(pool)))
        start = event.target % len(pool)
        victims = [pool[(start + k) % len(pool)] for k in range(count)]
        self.preemptions += len(victims)
        self._record(
            event,
            count=len(victims),
            instances=",".join(str(i.instance_id) for i in victims),
        )
        for instance in victims:
            self._preempt_instance(instance)

    def _window(self, event: ChaosEvent):
        if event.kind == "queue_chaos":
            if self.queue is None:
                self._skip()
                return
            self.queue_windows += 1
            self._record(event)
            plan, queue = self.plan, self.queue
            queue.miss_probability = plan.queue_miss_probability
            queue.duplicate_probability = plan.queue_duplicate_probability
            queue.delete_loss_probability = (
                plan.queue_delete_loss_probability
            )
            queue.propagation_delay_s = (
                self._queue_baseline["propagation_delay_s"]
                + _QUEUE_EXTRA_DELAY_S
            )
            yield self.env.timeout(event.duration_s)
            for name, value in self._queue_baseline.items():
                setattr(queue, name, value)
        elif event.kind == "storage_chaos":
            if self.storage is None:
                self._skip()
                return
            self.storage_windows += 1
            self._record(event)
            self.storage.error_rate = event.magnitude
            yield self.env.timeout(event.duration_s)
            self.storage.error_rate = self._storage_baseline_error_rate
        elif event.kind == "slow_node":
            pool = sorted(self._instances(), key=lambda i: i.instance_id)
            if not pool:
                self._skip()
                return
            victim = pool[event.target % len(pool)]
            self.slow_nodes += 1
            self._record(event, instance=victim.instance_id)
            healthy = victim.speed_factor
            victim.speed_factor = healthy * event.magnitude
            yield self.env.timeout(event.duration_s)
            victim.speed_factor = healthy

    # -- reporting ---------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Float extras for :class:`~repro.core.task.RunResult`."""
        return {
            "chaos_faults_injected": float(self.faults_injected),
            "chaos_crashes": float(self.crashes),
            "chaos_preemptions": float(self.preemptions),
            "chaos_queue_windows": float(self.queue_windows),
            "chaos_storage_windows": float(self.storage_windows),
            "chaos_slow_nodes": float(self.slow_nodes),
            "chaos_skipped": float(self.skipped),
        }
