"""Weighted deficit round robin over per-tenant job queues.

Admitted jobs wait in per-tenant FIFO queues inside the scheduler; a
single dispatch process walks the tenants in fixed declaration order,
credits each queue ``quantum * weight`` deficit per round, and sends
jobs (cost 1 each) into the ClassicCloud scheduling queue while deficit
and the dispatch window allow.  Deficit carries across rounds — a
light-weight tenant accumulates credit until it can send — which is
exactly the WDRR starvation guarantee: every backlogged tenant with a
positive weight dispatches within a bounded number of rounds, no matter
how skewed the weights are.

The *dispatch window* bounds work-in-progress at the cloud queue to a
small multiple of the current worker-slot count, so fair-share decisions
are made late, in the scheduler, rather than early in a deep FIFO — and
so autoscale backlog readings reflect jobs the fleet can actually start.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.cloud.queue import MessageQueue
from repro.core.task import TaskSpec
from repro.obs.context import current as _current_obs
from repro.sim.engine import Environment
from repro.serve.tenants import TenantSpec

__all__ = ["FairShareScheduler"]


class FairShareScheduler:
    """One WDRR dispatcher feeding the worker fleet's message queue."""

    def __init__(
        self,
        env: Environment,
        tenants: "tuple[TenantSpec, ...]",
        task_queue: MessageQueue,
        *,
        quantum: float = 4.0,
        dispatch_window_factor: float = 2.0,
        dispatch_poll_s: float = 0.5,
        capacity_slots: Callable[[], int] = lambda: 0,
        finished: Callable[[], int] = lambda: 0,
    ):
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        if dispatch_window_factor < 1.0:
            raise ValueError("dispatch_window_factor must be >= 1")
        if dispatch_poll_s <= 0:
            raise ValueError("dispatch_poll_s must be positive")
        self.env = env
        self.order = tuple(spec.name for spec in tenants)
        self.weights = {spec.name: spec.weight for spec in tenants}
        self.task_queue = task_queue
        self.quantum = quantum
        self.dispatch_window_factor = dispatch_window_factor
        self.dispatch_poll_s = dispatch_poll_s
        self.capacity_slots = capacity_slots
        self.finished = finished
        self.queues: dict[str, deque] = {name: deque() for name in self.order}
        self.deficits: dict[str, float] = {name: 0.0 for name in self.order}
        self.dispatched: dict[str, int] = {name: 0 for name in self.order}
        self.stopping = False
        self._tracer = _current_obs().tracer

    # -- intake ------------------------------------------------------------
    def enqueue(self, tenant: str, task: TaskSpec) -> None:
        """Accept an admitted job into the tenant's fair-share queue."""
        self.queues[tenant].append(task)

    def queued_total(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def dispatched_total(self) -> int:
        return sum(self.dispatched.values())

    def in_flight(self) -> int:
        """Jobs past the scheduler that have not finished yet."""
        return self.dispatched_total() - self.finished()

    # -- the dispatch loop -------------------------------------------------
    def _window(self) -> int:
        """Max jobs allowed past the scheduler at this instant."""
        slots = self.capacity_slots()
        if slots <= 0:
            return 0
        return max(1, int(self.dispatch_window_factor * slots))

    def run(self):
        """The dispatcher process: WDRR rounds until told to stop."""
        while not self.stopping:
            sent = yield from self._round()
            if not sent:
                # Idle (or window full): wait for arrivals / completions.
                yield self.env.timeout(self.dispatch_poll_s)

    def _round(self):
        """One full WDRR round.  Returns how many jobs were dispatched."""
        sent = 0
        if not self.queued_total():
            return sent
        window = self._window()
        if self.in_flight() >= window:
            # Window already full: no deficit credit this round, or a
            # stalled fleet would bank unbounded credit for whichever
            # tenant happens to sit first in the walk order.
            return sent
        for name in self.order:
            queue = self.queues[name]
            if not queue:
                # No backlog, no banked credit: deficit accrues only
                # while a tenant actually has jobs waiting.
                self.deficits[name] = 0.0
                continue
            self.deficits[name] += self.quantum * self.weights[name]
            while (
                queue
                and self.deficits[name] >= 1.0
                and self.in_flight() < window
            ):
                task = queue.popleft()
                self.deficits[name] -= 1.0
                yield from self.task_queue.send(task)
                self.dispatched[name] += 1
                sent += 1
                if self._tracer.enabled:
                    self._tracer.instant(
                        "serve.dispatch",
                        track="scheduler",
                        ts=self.env.now,
                        tenant=name,
                        task_id=task.task_id,
                        queued=len(queue),
                    )
            if queue and self.in_flight() >= window:
                # Window full mid-round: stop sending, keep the banked
                # deficit so the round resumes fairly next time.
                break
        return sent

    def stop(self) -> None:
        self.stopping = True
