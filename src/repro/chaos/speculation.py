"""Speculative task re-execution (Hadoop/Dryad "backup tasks").

The classic-cloud pattern already recovers *crashed* work through the
visibility timeout, but a straggler never crashes — it just computes at
a quarter clock while the whole run waits on it.  The MapReduce answer
is speculation: once most tasks have finished, launch a **backup copy**
of the slowest stragglers on another worker and keep whichever result
lands first.  Duplicate completions reconcile idempotently, exactly as
redelivered messages already do: the monitor's completed-set admits
each task once, however many attempts ran.

:class:`SpeculationPolicy` configures the trigger; :class:`BackupCopy`
is the queue-body wrapper that marks a message as a backup so the
executing worker can record ``TaskRecord.speculative=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.task import TaskSpec

__all__ = ["BackupCopy", "SpeculationPolicy"]


@dataclass(frozen=True)
class SpeculationPolicy:
    """When to launch backup copies of in-flight tasks.

    Every ``poll_s`` simulated seconds the speculator looks at the
    completed-task durations; once at least ``min_completed`` have
    finished, any task still outstanding after ``threshold_multiplier``
    times the 75th-percentile completed duration (counted from its
    enqueue) earns one backup copy.  The number of copies per run is
    not capped.
    """

    threshold_multiplier: float = 2.0
    min_completed: int = 5
    poll_s: float = 30.0

    def __post_init__(self) -> None:
        if self.threshold_multiplier < 1.0:
            raise ValueError("threshold_multiplier must be >= 1")
        if self.min_completed < 1:
            raise ValueError("min_completed must be >= 1")
        if self.poll_s <= 0:
            raise ValueError("poll_s must be positive")


@dataclass(frozen=True)
class BackupCopy:
    """A speculative duplicate of a task, as a queue message body.

    Quacks enough like a :class:`~repro.core.task.TaskSpec` (exposes
    ``task_id``) that accounting paths which only inspect identity —
    dead-letter peeks, completion sets — need no special casing.
    """

    task: TaskSpec

    @property
    def task_id(self) -> str:
        return self.task.task_id
