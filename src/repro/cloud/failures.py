"""Fault-injection plans for resilience experiments.

The Classic Cloud framework's fault-tolerance claim is that a worker crash
mid-task loses nothing: the task's queue message reappears after the
visibility timeout and another worker re-executes it, idempotently.  A
:class:`FaultPlan` lets tests and ablation benches schedule exactly such
crashes, plus storage/message-level misbehaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FaultPlan", "WorkerCrash", "check_bounds"]


def check_bounds(rows) -> None:
    """Raise ``ValueError("<name> must be <bound>")`` for the first
    ``(name, ok, bound)`` row that is not ``ok``: the one range check of
    every fault setting."""
    for name, ok, bound in rows:
        if not ok:
            raise ValueError(f"{name} must be {bound}")


@dataclass(frozen=True)
class WorkerCrash:
    """Kill one worker at a simulated time.

    ``worker_index`` is the global worker index (instance-major order);
    ``at_time`` is simulated seconds from the start of the run.  If
    ``restart_after`` is not None, a replacement worker starts that many
    seconds after the crash (modelling instance replacement).
    """

    worker_index: int
    at_time: float
    restart_after: float | None = None


@dataclass
class FaultPlan:
    """Everything that can go wrong during a run.

    The bare constructor is **fault-free**: ``FaultPlan()`` injects
    nothing.  Historically it defaulted to a 2 % queue-miss rate, which
    silently perturbed runs that never asked for faults; that
    paper-calibrated rate now lives in :meth:`paper_default`.
    """

    worker_crashes: list[WorkerCrash] = field(default_factory=list)
    message_duplicate_probability: float = 0.0
    queue_miss_probability: float = 0.0
    storage_error_rate: float = 0.0
    # Straggler injection: each task independently becomes this many times
    # slower with the given probability (exercises speculative execution).
    straggler_probability: float = 0.0
    straggler_slowdown: float = 5.0
    # Poison tasks: executing one of these kills the worker outright
    # (the input crashes the program).  Idempotent re-execution cannot
    # fix these — only a dead-letter redrive policy bounds them.
    poison_task_ids: frozenset[str] = frozenset()
    poison_restart_s: float = 30.0  # replacement worker delay

    def __post_init__(self) -> None:
        # At a receive-miss or read-error rate of 1, every attempt fails
        # forever, so those two stop short of 1.
        check_bounds([
            ("message_duplicate_probability",
             0 <= self.message_duplicate_probability <= 1, "in [0, 1]"),
            ("straggler_probability", 0 <= self.straggler_probability <= 1,
             "in [0, 1]"),
            ("queue_miss_probability", 0 <= self.queue_miss_probability < 1,
             "in [0, 1)"),
            ("storage_error_rate", 0 <= self.storage_error_rate < 1,
             "in [0, 1)"),
            ("straggler_slowdown", self.straggler_slowdown >= 1, ">= 1"),
            ("poison_restart_s", self.poison_restart_s >= 0, ">= 0"),
            ("WorkerCrash restart_after", all(
                c.restart_after is None or c.restart_after >= 0
                for c in self.worker_crashes
            ), ">= 0"),
        ])

    def crashes_for(self, worker_index: int) -> list[WorkerCrash]:
        """Crashes scheduled against one worker, in time order."""
        return sorted(
            (c for c in self.worker_crashes if c.worker_index == worker_index),
            key=lambda c: c.at_time,
        )

    @staticmethod
    def none() -> "FaultPlan":
        """A plan with no injected faults.

        Since the bare constructor became fault-free this is an alias
        for ``FaultPlan()``, kept for explicitness at call sites.
        """
        return FaultPlan()

    @staticmethod
    def paper_default() -> "FaultPlan":
        """The paper-calibrated service-level noise.

        A 2 % chance that a queue receive returns empty despite visible
        messages — the eventual-consistency artefact the paper's SQS
        description calls out ("availability is only guaranteed over
        multiple requests").  This used to be the implicit
        ``FaultPlan()`` default.
        """
        return FaultPlan(queue_miss_probability=0.02)
