"""Task model shared by every framework.

The paper's unit of work: "a single task comprises of a single input file
and a single output file".  A :class:`TaskSpec` describes one such task —
enough for a real worker to execute it (keys/paths) *and* for the
simulator to play it (sizes and work units).  A :class:`TaskRecord` is
the per-execution trace the frameworks emit for analysis.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields

__all__ = ["TaskRecord", "TaskSpec"]


@dataclass(frozen=True)
class TaskSpec:
    """One independent, idempotent file-in/file-out task."""

    task_id: str
    input_key: str  # blob key (simulated) or input file path (local)
    output_key: str  # blob key or output file path
    input_size: int  # bytes
    output_size: int  # bytes (estimate used by the simulator)
    work_units: float  # application work units (see TaskPerfModel.unit)

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.input_size < 0 or self.output_size < 0:
            raise ValueError("sizes must be non-negative")
        if self.work_units < 0:
            raise ValueError("work_units must be non-negative")


@dataclass
class TaskRecord:
    """Trace of one task *execution attempt* (duplicates get their own)."""

    task_id: str
    worker: str
    started_at: float
    finished_at: float
    download_time: float = 0.0
    compute_time: float = 0.0
    upload_time: float = 0.0
    attempt: int = 1
    was_duplicate: bool = False  # a re-execution of already-completed work
    speculative: bool = False  # launched as a backup copy (Hadoop/Dryad)
    won: bool = True  # whether this attempt's result was the one kept

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @classmethod
    def from_dict(cls, data: dict) -> "TaskRecord":
        """Rebuild a record from its ``asdict``; a missing field without
        a default is a ``KeyError``."""
        return cls(**{
            f.name: data[f.name] if f.default is MISSING
            else data.get(f.name, f.default) for f in fields(cls)
        })


@dataclass
class RunResult:
    """Outcome of running a workload on some backend."""

    backend: str
    app_name: str
    n_tasks: int
    makespan_seconds: float
    records: list[TaskRecord] = field(default_factory=list)
    billing: object | None = None  # BillingReport for cloud backends
    extras: dict[str, float] = field(default_factory=dict)
    completed: set[str] = field(default_factory=set)
    # Tasks the framework gave up on (e.g. poison tasks quarantined in a
    # dead-letter queue).  Disjoint from ``completed``.
    failed: set[str] = field(default_factory=set)
    # Queue-cost accounting (QueueStats as a plain dict) for backends
    # that drive work through a MessageQueue; None elsewhere.
    queue_stats: dict | None = None
    # Where this run's exported trace lives (path/URI), if traced.
    trace_ref: str | None = None

    @property
    def completed_task_ids(self) -> set[str]:
        """Tasks whose completion the framework observed.

        Falls back to winning task records when the framework did not
        supply an explicit completion set.
        """
        if self.completed:
            return self.completed
        return {r.task_id for r in self.records if r.won}

    @property
    def duplicate_executions(self) -> int:
        return sum(1 for r in self.records if r.was_duplicate or not r.won)

    def total_compute_seconds(self) -> float:
        """Sum of compute time across all attempts (including losers)."""
        return sum(r.compute_time for r in self.records)

    def to_dict(self) -> dict:
        """JSON-serializable trace of the run (records, billing, extras).

        The round-trippable export downstream analysis tooling consumes;
        see :meth:`to_json`.
        """
        billing = None
        if self.billing is not None:
            billing = {
                "compute_hour_units": self.billing.compute_hour_units,
                "compute_cost": self.billing.compute_cost,
                "amortized_compute_cost": self.billing.amortized_compute_cost,
                "queue_cost": self.billing.queue_cost,
                "storage_cost": self.billing.storage_cost,
                "transfer_cost": self.billing.transfer_cost,
                "total_cost": self.billing.total_cost,
            }
        return {
            "backend": self.backend,
            "app_name": self.app_name,
            "n_tasks": self.n_tasks,
            "makespan_seconds": self.makespan_seconds,
            "completed": sorted(self.completed_task_ids),
            "failed": sorted(self.failed),
            "extras": dict(self.extras),
            "billing": billing,
            "queue_stats": dict(self.queue_stats) if self.queue_stats else None,
            "trace_ref": self.trace_ref,
            "records": [asdict(r) for r in self.records],
        }

    def to_json(self, path: "str | None" = None, indent: int = 2) -> str:
        """Serialize the trace to JSON; also writes ``path`` if given."""
        import json

        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            from pathlib import Path

            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output.

        Billing round-trips as the raw dict (enough for analysis; the
        full BillingReport object does not survive serialization).
        """
        records = [TaskRecord.from_dict(r) for r in data.get("records", [])]
        return cls(
            backend=data["backend"],
            app_name=data["app_name"],
            n_tasks=data["n_tasks"],
            makespan_seconds=data["makespan_seconds"],
            records=records,
            billing=data.get("billing"),
            extras=dict(data.get("extras", {})),
            completed=set(data.get("completed", [])),
            failed=set(data.get("failed", [])),
            queue_stats=data.get("queue_stats"),
            trace_ref=data.get("trace_ref"),
        )

    @classmethod
    def from_json(cls, path: str) -> "RunResult":
        """Load a trace previously written by :meth:`to_json`."""
        import json
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text("utf-8")))
