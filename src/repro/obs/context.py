"""The ambient observability context: one tracer + registry per run.

Instrumented code never receives a tracer through its constructor —
frozen configs stay frozen and picklable.  Instead it asks for the
*current* :class:`Observability` bundle at run start::

    from repro.obs import current

    class _SimRun:
        def __init__(self, ...):
            self.obs = current()  # null objects unless someone opted in

and callers opt in for the duration of one run::

    with observe() as obs:
        result = backend.run(app, tasks)
    write_chrome_trace("out.json", obs)

The context is **thread-local** at the point of lookup: a run grabs its
bundle once on the driving thread and closes over it, so worker threads
it spawns publish into the same bundle.  Sweep and serve points run in
worker *processes* that start fresh — when the parent's bundle is live,
each point runs through :func:`run_captured`, which installs a private
bundle, runs the point and serializes the bundle with
:func:`worker_payload`; the parent folds it back in with
:meth:`Observability.adopt_worker` so the exported trace tells the
whole multi-process story.  ``serve_study`` runs its fleet points
through the same helper in-process at one job, so its merged trace has
one capture per fleet at any job count.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.timeline import NULL_TIMELINE, Timeline
from repro.obs.tracer import NULL_TRACER, Records, Tracer

__all__ = [
    "Observability",
    "WorkerCapture",
    "current",
    "observe",
    "run_captured",
    "worker_payload",
]

T = TypeVar("T")


@dataclass
class WorkerCapture:
    """One worker process's serialized capture, adopted by the parent.

    ``os_pid`` is the worker's real OS pid; the exporter assigns it a
    synthetic Chrome trace pid (one per process × time domain).  All
    fields are plain data — this is exactly what crossed the pickle
    boundary.  ``spans`` and ``instants`` are :class:`Records` columns;
    lists of :class:`Span` / :class:`Instant` are accepted and converted.
    """

    os_pid: int
    label: str
    spans: Records = field(default_factory=lambda: Records(spans=True))
    instants: Records = field(default_factory=lambda: Records(spans=False))
    metrics: dict = field(default_factory=dict)
    timeline: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.spans, Records):
            self.spans = Records.of(self.spans, spans=True)
        if not isinstance(self.instants, Records):
            self.instants = Records.of(self.instants, spans=False)


@dataclass
class Observability:
    """One run's instrumentation bundle."""

    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    metrics: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)
    timeline: Timeline = field(default_factory=lambda: NULL_TIMELINE)
    workers: list[WorkerCapture] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @classmethod
    def make(cls, label: str = "") -> "Observability":
        """A live bundle: real tracer + real registry + real timeline."""
        return cls(
            tracer=Tracer(label=label),
            metrics=MetricsRegistry(),
            timeline=Timeline(),
        )

    def adopt_worker(self, payload: dict) -> "WorkerCapture | None":
        """Fold a :func:`worker_payload` dict back into this bundle.

        The capture is kept whole (the exporter needs per-process
        grouping) and the worker's metrics are merged into the parent
        registry so pool/cache/sim counters aggregate across processes.
        No-op on the null bundle.
        """
        if not self.enabled:
            return None
        capture = WorkerCapture(
            os_pid=int(payload.get("os_pid", 0)),
            label=str(payload.get("label", "")),
            spans=payload.get("spans", ()),
            instants=payload.get("instants", ()),
            metrics=dict(payload.get("metrics", {})),
            timeline=dict(payload.get("timeline", {})),
        )
        self.workers.append(capture)
        self.metrics.merge(capture.metrics)
        return capture


def worker_payload(obs: Observability, label: str = "") -> dict:
    """Serialize a worker-side bundle into a picklable plain-data dict.

    Shipped back with each chunk result; the parent re-hydrates it via
    :meth:`Observability.adopt_worker`.  ``"spans"`` and ``"instants"``
    are the tracer's :class:`Records` columns; ``len()`` of each is its
    row count.
    """
    spans, instants = obs.tracer.records()
    return {
        "os_pid": os.getpid(),
        "label": label or obs.tracer.label,
        "spans": spans,
        "instants": instants,
        "metrics": obs.metrics.snapshot(),
        "timeline": obs.timeline.snapshot(),
    }


#: Shared null bundle — what current() returns outside observe().
NULL_OBSERVABILITY = Observability()

_state = threading.local()


def current() -> Observability:
    """The innermost active bundle, or the shared null bundle."""
    stack = getattr(_state, "stack", None)
    if not stack:
        return NULL_OBSERVABILITY
    return stack[-1]


@contextmanager
def observe(obs: "Observability | None" = None, label: str = ""):
    """Install ``obs`` (or a fresh live bundle) as the current context."""
    if obs is None:
        obs = Observability.make(label=label)
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    stack.append(obs)
    try:
        yield obs
    finally:
        stack.pop()


def run_captured(
    label: str, fn: "Callable[..., T]", *args: object
) -> "tuple[T, dict]":
    """Run ``fn(*args)`` under a fresh, private live bundle.

    Returns ``(result, payload)``, the payload being the bundle's
    :func:`worker_payload` under ``label``.  Each point gets its own
    tracer/registry/timeline (points run by one process must not share
    a sim-time axis); module-level and picklable, so a pool worker can
    run it as well as the parent.
    """
    obs = Observability.make(label=label)
    with observe(obs):
        result = fn(*args)
    return result, worker_payload(obs, label=label)
