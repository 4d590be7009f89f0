"""One task attempt — download, compute, upload — shared by every backend.

The four paradigms differ in how they schedule attempts and recover
from failed ones, not in the attempt itself.  This module holds what
they share: the seeded draws and the range check of their settings,
:class:`Attempt` (one simulated attempt), the ``task.*`` phase span
triplet and :func:`run_timed` (one attempt of a real threaded runtime).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.cloud.failures import check_bounds
from repro.core.task import TaskRecord, TaskSpec

__all__ = [
    "Attempt", "add_phases", "check_faults", "draw_failure", "draw_service",
    "run_timed",
]


def draw_service(stream, worker, service, p, slowdown, *, noise="noise",
                 straggles=True) -> float:
    """``service`` seconds after a straggle draw from ``{worker}-straggle``
    (made only if ``p``; a hit slows the attempt ``slowdown`` times when
    it ``straggles``) and a ±2% noise draw from ``{worker}-{noise}``.
    ``stream`` is :meth:`~repro.sim.rng.RngRegistry.stream`."""
    if p and stream(f"{worker}-straggle").random() < p and straggles:
        service *= slowdown
    return service * float(stream(f"{worker}-{noise}").uniform(0.98, 1.02))


def draw_failure(stream, worker, p) -> float | None:
    """The share of its service time a failing attempt runs before it
    dies, or None if it does not fail; both draws use ``{worker}-fail``."""
    if p and stream(f"{worker}-fail").random() < p:
        return float(stream(f"{worker}-fail").uniform(0.1, 0.9))
    return None


def check_faults(config, failure: str, threshold: str | None = None) -> None:
    """Reject out-of-range ``straggler_probability``,
    ``straggler_slowdown`` and ``max_attempts`` on ``config``, and its
    fields named ``failure`` (a probability) and ``threshold`` (a
    speculation progress threshold)."""
    check_bounds([
        (failure, 0 <= getattr(config, failure) < 1, "in [0, 1)"),
        ("straggler_probability", 0 <= config.straggler_probability <= 1,
         "in [0, 1]"),
        ("straggler_slowdown", config.straggler_slowdown >= 1, ">= 1"),
        ("max_attempts", config.max_attempts >= 1, ">= 1"),
        (threshold, threshold is None or 0 < getattr(config, threshold) <= 1,
         "in (0, 1]"),
    ])


def add_phases(tracer, track, bounds, compute=None, **args) -> None:
    """The ``task.download`` / ``task.compute`` / ``task.upload`` spans
    between ``bounds``' four times, each with ``args`` (the compute span
    also with the ``compute`` dict), if the tracer is on."""
    if not tracer.enabled:
        return
    t0, t1, t2, t3 = bounds
    tracer.add("task.download", track=track, start=t0, end=t1, **args)
    tracer.add("task.compute", track=track, start=t1, end=t2, **args,
               **(compute or {}))
    tracer.add("task.upload", track=track, start=t2, end=t3, **args)


@dataclass(eq=False)  # identity: a scheduler removes the attempt it holds
class Attempt:
    """One simulated attempt: ``read``, then ``service``, then ``write``
    seconds from ``started`` on ``worker``."""

    task: TaskSpec
    worker: str
    number: int  # the task's dispatch count, this one included
    started: float
    read: float
    service: float
    write: float
    fail_share: float | None = None  # see draw_failure
    speculative: bool = False  # launched as a backup copy
    has_backup: bool = False  # a backup copy of it was launched

    @property
    def total(self) -> float:
        return self.read + self.service + self.write

    @property
    def expected_end(self) -> float:
        return self.started + self.total

    @property
    def runs_for(self) -> float:
        """Seconds to the fail point, partway through compute, or to the
        end of the upload."""
        if self.fail_share is None:
            return self.total
        return self.read + self.service * self.fail_share

    def finish(self, tracer, now, won=True, **compute) -> TaskRecord:
        """Emit the spans (``compute`` adds compute-span args) and return
        the record of the attempt that completed at ``now``."""
        start = self.started
        add_phases(tracer, self.worker, (
            start, start + self.read, start + self.read + self.service,
            start + self.total,
        ), compute, task_id=self.task.task_id)
        return TaskRecord(
            self.task.task_id, self.worker, start, now, self.read,
            self.service, self.write, self.number, was_duplicate=not won,
            speculative=self.speculative, won=won,
        )


def run_timed(tracer, worker: str, task_id: str, run: Callable[[], object],
              origin: float, attempt: int = 1) -> TaskRecord:
    """Run ``run()`` as one real attempt timed in wall-clock seconds since
    ``origin`` (a ``time.monotonic()`` reading): emit its ``task.compute``
    wall span and return its record.  An exception propagates."""
    clock = time.monotonic  # repro: noqa[RPR001] real runtime
    t0 = clock() - origin
    run()
    t1 = clock() - origin
    tracer.add("task.compute", track=worker, start=t0, end=t1,
               domain="wall", task_id=task_id, attempt=attempt)
    return TaskRecord(task_id, worker, t0, t1, compute_time=t1 - t0,
                      attempt=attempt)
