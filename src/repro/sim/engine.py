"""Event loop, events and generator-based processes.

The design follows the classic event-scheduling formulation of discrete
event simulation.  An :class:`Environment` owns a binary heap of pending
events keyed by ``(time, sequence)``.  A :class:`Process` wraps a Python
generator; each value the generator yields must be an :class:`Event`, and
the process resumes when that event fires, receiving the event's value at
the ``yield`` expression (or the event's exception raised into it).

Determinism guarantees:

* events scheduled for the same simulated time fire in scheduling order;
* no wall-clock or global-RNG access anywhere in the kernel.

Fast paths
----------

The plain :class:`Environment` keeps a *same-time FIFO lane* next to the
heap: anything scheduled with zero delay (``succeed()``/``fail()`` at
``now``, process bootstraps, resumes on already-processed events) is
appended to a deque instead of round-tripping through ``heapq``.  Every
scheduling action — lane or heap — still consumes one global sequence
number, and :meth:`Environment.step` merges the two sources by
``(time, sequence)``, so the firing order is exactly the order the
single-heap formulation would produce.  Instrumented subclasses (the
runtime sanitizer) set ``_use_lane = False``, which routes every action
through ``_enqueue``/the heap as a traceable :class:`Event` — same
``(time, sequence)`` slots, same behaviour, full observability.

The sanitizer opt-in lives here too: :func:`sanitize_requested` is the
one reader of ``REPRO_SANITIZE``; :func:`make_environment` and the
threaded runtimes' :func:`monitor_lock` / :func:`monitor` hooks import
``repro.lint`` inside the call, only when a sanitizer is asked for.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections import deque
from collections.abc import Generator, Iterable
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "IdleWait",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "make_environment",
    "monitor",
    "monitor_lock",
    "sanitize_requested",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


_DEADLOCK_MESSAGE = (
    "event loop drained before target event fired (deadlock: a process "
    "is waiting on an event nobody will trigger)"
)


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    The interrupting cause is available as :attr:`cause`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle sentinels.
_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    Events move through three states: *untriggered* (value is pending),
    *triggered* (value set, waiting in the event heap) and *processed*
    (callbacks have run).  Callbacks are plain callables taking the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been set."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception object if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._enqueue(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception will be raised inside any process waiting on this
        event.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._enqueue(self, 0.0)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def _abandoned(self) -> None:
        """Hook: a process waiting on this event is being interrupted.

        Called by :meth:`Process.interrupt` before the waiter detaches,
        and by :meth:`Environment.close` for every process still waiting.
        Plain events do nothing; an event standing for deferred work
        (an idle :meth:`~repro.cloud.queue.MessageQueue.poll`) settles
        that work up to now.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at t={self.env.now:.6g}>"


class IdleWait(Event):
    """What a process idle by design waits on (a queue poller, a Hadoop
    map slot with no work).  A run may end with processes still on one;
    the sanitizer counts those apart from stuck processes."""

    __slots__ = ()


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # Field init is inlined (no super().__init__ round-trip): a
        # Timeout is born triggered, and this constructor is the single
        # hottest allocation in queue-heavy simulations.
        self.env = env
        self.callbacks = []
        self._processed = False
        self.delay = delay
        self._ok = True
        self._value = value
        env._enqueue(self, delay)


class _Call(Event):
    """A traceable stand-in for a lane entry on instrumented environments.

    When ``_use_lane`` is off, :meth:`Environment._schedule_call` wraps
    the callable in one of these and sends it through ``_enqueue`` so the
    sanitizer sees (and traces) the same ``(time, sequence)`` slot the
    fast lane would have consumed.
    """

    __slots__ = ("name", "_fn")

    def __init__(self, env: "Environment", fn: Callable[[], None], name: str):
        super().__init__(env)
        self._fn = fn
        self.name = name
        self._ok = True
        self._value = None

    def _run_callbacks(self) -> None:
        self.callbacks = None
        self._processed = True
        self._fn()


class Process(Event):
    """A running generator.  Its completion is itself an event.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event succeeds, the generator is resumed with the event's value; when it
    fails, the exception is thrown into the generator.  When the generator
    returns, the process event succeeds with the return value.
    """

    __slots__ = ("_generator", "_waiting_on", "_epoch", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ):
        if not isinstance(generator, Generator):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Event | None = None
        self._epoch = 0
        self.name = name or getattr(generator, "__name__", "process")
        env._processes[self] = None
        # Kick off on the next event-loop iteration at the current time.
        # No bootstrap Event is allocated: the lane (or a _Call on
        # instrumented environments) carries the first resume directly.
        env._schedule_call(self._start, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error.  Interrupting a
        process that is waiting on an event detaches its resume callback
        from that event, so abandoned waits do not accumulate dead
        callbacks on long-lived events (retry loops used to leak one
        callback per interrupt).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        waiting = self._waiting_on
        if waiting is not None:
            waiting._abandoned()
            callbacks = waiting.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
            self._waiting_on = None
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume)
        self.env._enqueue(event, 0.0)

    def _start(self) -> None:
        """First resume: send None into the fresh generator."""
        self._resume_core(True, None)

    def _deliver(self, ok: bool, value: Any, epoch: int) -> None:
        """Lane-scheduled resume for an already-processed target.

        ``epoch`` snapshots the resume counter at scheduling time; if the
        process has been resumed by anything else since (e.g. an
        interrupt), this delivery is stale and dropped — mirroring the
        ``_waiting_on`` identity check on the callback path.
        """
        if epoch != self._epoch or not self.is_alive:
            return
        self._resume_core(ok, value)

    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:  # inlined is_alive
            return  # e.g. stale wakeup after an interrupt already finished us
        waiting = self._waiting_on
        if (
            waiting is not None
            and event is not waiting
            and not isinstance(event._value, Interrupt)
        ):
            return  # stale callback from an abandoned wait
        self._resume_core(event._ok, event._value)

    def _resume_core(self, ok: bool, value: Any) -> None:
        self._epoch += 1
        self._waiting_on = None
        generator = self._generator
        try:
            if ok:
                target = generator.send(value)
            else:
                target = generator.throw(value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            del self.env._processes[self]
            self.env._enqueue(self, 0.0)
            return
        except BaseException as exc:  # propagate through the process event
            self._ok = False
            self._value = exc
            del self.env._processes[self]
            self.env._enqueue(self, 0.0)
            if not self.callbacks:
                # Nobody is waiting on this process: surface the crash.
                raise
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        env = self.env
        if target.env is not env:
            raise SimulationError("cannot wait on an event from another Environment")
        if target._processed:
            # Already fired: resume on the next loop turn with its value.
            # No intermediate Event is allocated; the delivery rides the
            # same-time lane with a staleness token.
            env._schedule_call(
                partial(self._deliver, target._ok, target._value, self._epoch),
                self,
            )
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)


class AllOf(Event):
    """Succeeds when every constituent event has fired.

    Value is a dict mapping each constituent event to its value.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("condition mixes environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event._processed:
                self._on_fire(event)
                if self.triggered:
                    break
            else:
                event.callbacks.append(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        # Guard: two constituents failing at the same timestamp would
        # otherwise call fail() twice on this condition and raise
        # SimulationError out of the event loop.
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            # _processed (not merely triggered) because Timeout pre-sets
            # its value at construction time, long before it fires.
            self.succeed(
                {e: e._value for e in self.events if e._processed and e._ok}
            )


class Environment:
    """The simulation environment: clock + event heap + same-time lane.

    Usage::

        env = Environment()

        def ticker(env):
            while True:
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run(until=10.0)
    """

    __slots__ = (
        "_now", "_heap", "_lane", "_sequence", "_run_hooks", "_processes"
    )

    #: Instrumented subclasses set this to False to route every
    #: scheduling action through ``_enqueue`` and the heap, where their
    #: overrides can observe it.  The firing order is identical either
    #: way — both paths consume the same global sequence numbers.
    _use_lane = True

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        # Same-time FIFO lane: (time, sequence, event, fn) with exactly
        # one of event/fn set.  Lane entries are always scheduled at the
        # current time, so the lane front never trails the heap top.
        self._lane: deque[tuple[float, int, Event | None, Callable | None]] = (
            deque()
        )
        self._sequence = 0
        #: Called as ``hook(horizon)`` whenever :meth:`run` returns: work
        #: deferred off the heap (parked queue pollers) settles every
        #: step due before ``horizon`` so results read after a run are
        #: complete.
        self._run_hooks: list[Callable[[float], None]] = []
        #: Unfinished processes, in creation order.
        self._processes: dict[Process, None] = {}

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total scheduling actions taken so far (lane + heap).

        Every action consumes one global sequence number, so this is an
        exact kernel-throughput counter obtained for free — the metrics
        layer (``repro.obs``) reads it once per run rather than paying a
        per-event callback in the hot loop.
        """
        return self._sequence

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Start a process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events``."""
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        sequence = self._sequence
        self._sequence = sequence + 1
        if delay == 0.0 and self._use_lane:
            # succeed()-at-now fast lane: skip the heap round-trip.
            self._lane.append((self._now, sequence, event, None))
        else:
            heappush(self._heap, (self._now + delay, sequence, event))

    def _enqueue_at(self, event: Event, time: float) -> None:
        """Schedule ``event`` at the absolute ``time`` (not before now).

        For deferred work that already knows when its next step falls,
        so the sum ``now + delay`` is not recomputed with a different
        rounding.  Takes one sequence number like :meth:`_enqueue`.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (time, sequence, event))

    def _schedule_call(self, fn: Callable[[], None], owner=None) -> None:
        """Schedule a bare callable at the current time.

        The fast-lane equivalent of enqueueing a zero-delay Event whose
        only job is to invoke ``fn`` — used for process bootstraps and
        already-processed-target resumes.  On instrumented environments
        (``_use_lane`` off) the callable is wrapped in a :class:`_Call`
        and sent through ``_enqueue`` so it stays traceable.
        """
        if self._use_lane:
            sequence = self._sequence
            self._sequence = sequence + 1
            self._lane.append((self._now, sequence, None, fn))
        else:
            label = f"call:{owner.name}" if owner is not None else "call"
            self._enqueue(_Call(self, fn, label), 0.0)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none pending."""
        lane, heap = self._lane, self._heap
        if lane:
            lane_time = lane[0][0]
            if heap and heap[0][0] < lane_time:  # pragma: no cover - guard
                return heap[0][0]
            return lane_time
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process exactly one pending action (lane or heap)."""
        lane = self._lane
        if lane:
            time, sequence, event, fn = lane[0]
            heap = self._heap
            if heap:
                head = heap[0]
                if head[0] < time or (head[0] == time and head[1] < sequence):
                    heappop(heap)
                    self._now = head[0]
                    head[2]._run_callbacks()
                    return
            lane.popleft()
            self._now = time
            if event is not None:
                event._run_callbacks()
            else:
                fn()
            return
        heap = self._heap
        if not heap:
            raise SimulationError("no events to step")
        time, _, event = heappop(heap)
        if time < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError("time ran backwards")
        self._now = time
        event._run_callbacks()

    def _run_fast(self, limit: float, target: "Event | None") -> None:
        """Inlined event loop for the plain environment.

        One step() call per fired event is measurable overhead at kernel
        scale, so the un-instrumented environment drains lane + heap with
        everything held in locals.  Subclasses (which override step for
        instrumentation) never reach this path.
        """
        lane, heap = self._lane, self._heap
        lane_popleft = lane.popleft
        while True:
            if target is not None:
                if target._processed:
                    return
                if not (lane or heap):
                    raise SimulationError(_DEADLOCK_MESSAGE)
            if lane:
                entry = lane[0]
                time = entry[0]
                if time > limit:
                    return
                if heap:
                    head = heap[0]
                    if head[0] < time or (
                        head[0] == time and head[1] < entry[1]
                    ):
                        heappop(heap)
                        self._now = head[0]
                        head[2]._run_callbacks()
                        continue
                lane_popleft()
                self._now = time
                event = entry[2]
                if event is not None:
                    event._run_callbacks()
                else:
                    entry[3]()
                continue
            if heap:
                head = heap[0]
                time = head[0]
                if time > limit:
                    return
                heappop(heap)
                self._now = time
                head[2]._run_callbacks()
                continue
            return

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run up to
        that simulated time) or an :class:`Event` (run until it fires, and
        return its value — raising its exception if it failed).

        On return the run hooks settle deferred work: every step due
        before now, and at now unless the run stopped on an event.
        """
        try:
            return self._run(until)
        finally:
            if self._run_hooks:
                horizon = self._now
                if not isinstance(until, Event):
                    horizon = math.nextafter(horizon, math.inf)
                for hook in self._run_hooks:
                    hook(horizon)

    def close(self) -> None:
        """Release a finished run's object graph.

        Every unfinished process abandons its wait, as an interrupt
        would, and its generator is closed (its frame holds the
        simulator that owns this environment); the pending heap and lane
        entries and the run hooks are dropped.  What the run built then
        forms no reference cycle through the event loop, so reference
        counting frees it as soon as its owner lets go.  Take any
        post-run report first; the environment cannot run again.
        """
        processes, self._processes = self._processes, {}
        for process in processes:
            waiting = process._waiting_on
            if waiting is not None:
                process._waiting_on = None
                waiting._abandoned()
            process._generator.close()
        self._heap.clear()
        self._lane.clear()
        self._run_hooks.clear()

    def _run(self, until: "float | Event | None") -> Any:
        plain = type(self) is Environment
        if isinstance(until, Event):
            target = until
            if plain:
                self._run_fast(float("inf"), target)
            else:
                while not target._processed:
                    if not (self._lane or self._heap):
                        raise SimulationError(_DEADLOCK_MESSAGE)
                    self.step()
            if target._ok:
                return target._value
            raise target._value
        limit = float("inf") if until is None else float(until)
        if plain:
            self._run_fast(limit, None)
        else:
            while (self._lane or self._heap) and self.peek() <= limit:
                self.step()
        if until is not None and limit > self._now:
            self._now = limit
        return None


#: ``REPRO_SANITIZE`` tokens -> the sanitizers each asks for: ``sim``
#: (the instrumented event loop) and ``threads`` (the thread sanitizer).
SANITIZE_TOKENS: dict[str, frozenset[str]] = {
    **dict.fromkeys(("1", "true", "sim"), frozenset({"sim"})),
    "threads": frozenset({"threads"}),
    "all": frozenset({"sim", "threads"}),
    **dict.fromkeys(("0", "false", "off"), frozenset()),
}


def sanitize_requested() -> frozenset[str]:
    """The sanitizers ``REPRO_SANITIZE`` asks for, read as a comma- or
    space-separated, case-insensitive list of :data:`SANITIZE_TOKENS`;
    an unknown token raises a ``ValueError`` that names it."""
    kinds: frozenset[str] = frozenset()
    raw = os.environ.get("REPRO_SANITIZE", "")
    for token in raw.replace(",", " ").lower().split():
        if token not in SANITIZE_TOKENS:
            raise ValueError(
                f"REPRO_SANITIZE: unknown token {token!r} "
                f"(expected one of {', '.join(SANITIZE_TOKENS)})"
            )
        kinds |= SANITIZE_TOKENS[token]
    return kinds


def make_environment(
    initial_time: float = 0.0, sanitize: bool | None = None
) -> Environment:
    """Environment factory honouring the sanitizer opt-in.

    With ``sanitize=True`` — or ``sanitize=None`` and ``"sim"`` in
    :func:`sanitize_requested` — returns an instrumented
    :class:`repro.lint.sanitizer.SanitizedEnvironment` (imported lazily
    to keep the kernel free of lint dependencies); otherwise a plain
    :class:`Environment`.  Every simulated backend builds its event loop
    through this factory.
    """
    if sanitize is None:
        sanitize = "sim" in sanitize_requested()
    if sanitize:
        from repro.lint.sanitizer import SanitizedEnvironment

        return SanitizedEnvironment(initial_time)
    return Environment(initial_time)


def _thread_sanitizer():
    """The active thread sanitizer, if any.  ``repro.lint.threadsan`` is
    imported only when threads are asked for or it is already loaded
    (a sanitizer may have been installed)."""
    if (
        "repro.lint.threadsan" not in sys.modules
        and "threads" not in sanitize_requested()
    ):
        return None
    from repro.lint import threadsan

    return threadsan.active()


def monitor_lock(name: str):
    """A lock for a threaded runtime's shared state: monitored while a
    thread sanitizer is active, otherwise a plain ``threading.Lock``."""
    sanitizer = _thread_sanitizer()
    if sanitizer is None:
        return threading.Lock()
    return sanitizer.monitor_lock(name)


def monitor(obj, name: str):
    """A fresh dict, list, set or deque of a threaded runtime, wrapped
    for write tracking while a thread sanitizer is active; ``obj``
    itself otherwise."""
    sanitizer = _thread_sanitizer()
    return obj if sanitizer is None else sanitizer.monitor(obj, name)
