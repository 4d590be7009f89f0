"""Runtime simulation sanitizer: an instrumented DES environment.

:class:`SanitizedEnvironment` is a drop-in :class:`~repro.sim.engine.
Environment` that, while the simulation runs,

* records a **deterministic event trace** (time, scheduling sequence,
  event type, process name) — two runs with the same seed must produce
  byte-identical traces;
* detects events fired or re-enqueued **twice** (a kernel-contract
  violation; raises in strict mode), including a re-armed event — a
  :meth:`~repro.cloud.queue.MessageQueue.poll` entry, whose
  ``processed`` flag never sets — enqueued again while it is still
  waiting in the heap;
* counts **same-timestamp ties**, i.e. places where only the
  scheduling-order guarantee keeps the run deterministic;
* tracks processes so a post-run report can list those that ended the
  run **still waiting** on an event nobody triggered;
* hooks every :class:`~repro.cloud.queue.MessageQueue` built on it (the
  queue registers itself via ``env.register_queue``) and reports
  **leaked in-flight messages**: receipts that went stale — the
  visibility timeout passed — without the reappearance accounting ever
  running, which breaks the at-least-once delivery story.

Opt in either by constructing :class:`SanitizedEnvironment` directly or
by setting ``REPRO_SANITIZE=1`` and building environments through
:func:`repro.sim.engine.make_environment` (the simulated backends do).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.context import current as _current_obs
from repro.obs.tracer import Tracer
from repro.sim.engine import (
    Environment,
    Event,
    IdleWait,
    SimulationError,
)

__all__ = ["SanitizedEnvironment", "SanitizerError", "SanitizerReport"]


class SanitizerError(SimulationError):
    """A kernel-contract violation caught by the sanitizer."""


@dataclass
class SanitizerReport:
    """Post-run findings.  ``issues`` is empty for a healthy run."""

    events_fired: int = 0
    same_time_ties: int = 0
    double_triggers: list[str] = field(default_factory=list)
    pending_processes: list[str] = field(default_factory=list)
    #: processes alive at the end on an :class:`~repro.sim.engine.IdleWait`
    idle_processes: int = 0
    #: processes alive at the end on an already-triggered event (a losing
    #: speculative attempt's timeout): they would resume if the run went on
    scheduled_processes: int = 0
    queue_leaks: list[str] = field(default_factory=list)

    @property
    def issues(self) -> list[str]:
        return self.double_triggers + self.queue_leaks

    def summary(self) -> str:
        lines = [
            f"events fired: {self.events_fired}",
            f"same-time ties (order held by scheduling sequence): "
            f"{self.same_time_ties}",
            f"processes idle by design at end of run (pollers, sleeping "
            f"slots): {self.idle_processes}",
            f"processes on a scheduled event at end of run (losing "
            f"attempts): {self.scheduled_processes}",
        ]
        for label, findings in (
            ("double triggers", self.double_triggers),
            ("processes still waiting at end of run", self.pending_processes),
            ("leaked in-flight queue messages", self.queue_leaks),
        ):
            lines.append(f"{label}: {len(findings)}")
            lines.extend(f"  - {finding}" for finding in findings)
        return "\n".join(lines)


def _label(event: Event) -> str:
    """Trace label: the event's ``name`` if it has one, else its type."""
    return getattr(event, "name", None) or type(event).__name__


class SanitizedEnvironment(Environment):
    """Instrumented event loop.  ``strict=True`` raises on violations
    (double triggers / re-enqueues); the trace and the statistical
    findings are always collected."""

    # Route every scheduling action through _enqueue and the heap (no
    # same-time fast lane) so the overrides below observe all of them.
    # The kernel materializes lane entries as traceable _Call events on
    # this path; the (time, sequence) firing order is identical.
    _use_lane = False

    #: Track name under which kernel events are recorded in the tracer.
    KERNEL_TRACK = "kernel"

    def __init__(self, initial_time: float = 0.0, strict: bool = True):
        super().__init__(initial_time)
        self.strict = strict
        # The event trace is recorded as instants on a Tracer — the same
        # span stream repro.obs exports.  If an observe() context is
        # active, events land in that run's trace (and surface in the
        # Chrome export); otherwise the sanitizer owns a private tracer.
        ambient = _current_obs().tracer
        self.tracer = ambient if ambient.enabled else Tracer(label="sanitizer")
        self.same_time_ties = 0
        self._double_triggers: list[str] = []
        # Events waiting in the heap: one slot per event at a time.
        self._armed: set[Event] = set()
        self._queues: list = []

    # -- hooks ------------------------------------------------------------
    def register_queue(self, queue) -> None:
        """Called by MessageQueue.__init__ to enrol in leak detection."""
        self._queues.append(queue)

    def _enqueue(self, event: Event, delay: float) -> None:
        self._check_arm(event)
        super()._enqueue(event, delay)

    def _enqueue_at(self, event: Event, time: float) -> None:
        self._check_arm(event)
        if time < self.now:
            self._flag(
                f"{_label(event)} scheduled in the past (t={time!r} < "
                f"now={self.now!r})"
            )
        super()._enqueue_at(event, time)

    def _check_arm(self, event: Event) -> None:
        if event.processed:
            self._flag(
                f"{type(event).__name__} re-enqueued after its callbacks "
                f"already ran (t={self.now!r})"
            )
        elif event in self._armed:
            self._flag(
                f"{_label(event)} enqueued again before it fired "
                f"(t={self.now!r})"
            )
        self._armed.add(event)

    def step(self) -> None:
        if not self._heap:
            raise SimulationError("no events to step")
        time, seq, event = self._heap[0]
        if event.processed:
            self._flag(
                f"{type(event).__name__} fired twice (t={time!r}, seq={seq})"
            )
        self.tracer.instant(
            _label(event), track=self.KERNEL_TRACK, ts=time, seq=seq
        )
        self._armed.discard(event)
        super().step()
        if self._heap and self._heap[0][0] == time:
            self.same_time_ties += 1

    def close(self) -> None:
        super().close()
        self._armed.clear()
        self._queues.clear()

    def _flag(self, message: str) -> None:
        self._double_triggers.append(message)
        if self.strict:
            raise SanitizerError(message)

    # -- reporting --------------------------------------------------------
    @property
    def trace(self) -> list[str]:
        """The deterministic event trace, derived from the tracer's
        instant stream (``time #seq label`` per fired event).

        Kept as a derived view so the trace format stays byte-stable
        while the underlying records feed the same exporters as every
        other span/instant.
        """
        return [
            f"{instant.ts!r} #{instant.args['seq']} {instant.name}"
            for instant in self.tracer.instants
            if instant.track == self.KERNEL_TRACK
        ]

    def trace_text(self) -> str:
        """The event trace as one newline-joined string (replay tests
        compare this byte-for-byte across same-seed runs)."""
        return "\n".join(self.trace)

    def sanitizer_report(self) -> SanitizerReport:
        """Findings as of now; call after the run has finished."""
        report = SanitizerReport(
            events_fired=len(self.trace),
            same_time_ties=self.same_time_ties,
            double_triggers=list(self._double_triggers),
        )
        alive = list(self._processes)
        idle = sum(isinstance(p._waiting_on, IdleWait) for p in alive)
        stuck = [p for p in alive if not isinstance(p._waiting_on, IdleWait)
                 and p._waiting_on is not None and not p._waiting_on.triggered]
        report.idle_processes = idle
        report.scheduled_processes = len(alive) - idle - len(stuck)
        report.pending_processes = [
            f"process {proc.name!r} never finished: it is still waiting "
            "on an event nobody triggered"
            for proc in stuck
        ]
        for queue in self._queues:
            report.queue_leaks.extend(self._queue_leaks(queue))
        return report

    def _queue_leaks(self, queue) -> list[str]:
        leaks = []
        for message_id in sorted(queue._inflight):
            message = queue._messages.get(message_id)
            if message is None:
                # delete() retires the receipt; an orphan entry means the
                # bookkeeping itself broke.
                leaks.append(
                    f"queue {queue.name!r}: in-flight entry for deleted "
                    f"message {message_id} was never retired"
                )
            elif message.visible_at <= self.now:
                leaks.append(
                    f"queue {queue.name!r}: message {message_id} receipt "
                    f"{queue._inflight[message_id]} went stale at "
                    f"t={message.visible_at!r} but the reappearance was "
                    "never accounted (at-least-once delivery broken)"
                )
        return leaks
