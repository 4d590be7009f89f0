"""Runtime thread sanitizer: lock-order and write-race detection.

The static RPR1xx rules reason about the threaded runtimes from the
outside; :class:`ThreadSanitizer` watches them from the inside.  It is
the threads sibling of :class:`~repro.lint.sanitizer.SanitizedEnvironment`
(which instruments the *simulated* event loop) and is opt-in the same
way: ``REPRO_SANITIZE`` is never consulted on the hot path unless the
runtime asked for monitored structures.

Two detectors, both classic:

* **lock-order inversions** — every :class:`MonitoredLock` acquisition
  records held-lock → acquired-lock edges in an acquisition-order
  graph; acquiring ``B`` while holding ``A`` after the graph already
  shows a ``B`` →* ``A`` path is a potential deadlock, flagged at the
  acquire site.
* **unsynchronized cross-thread writes** — an Eraser-style *write*
  lockset per shared object: while a single thread writes, the object
  is in its exclusive phase; once a second thread writes, the lockset
  becomes the intersection of monitored locks held across all
  subsequent writes.  An empty lockset with two or more writer threads
  is a data race.  Reads are deliberately not tracked: the shipped
  runtimes read results from the driving thread *after* ``join()``,
  which is safe but would empty a read-write lockset.

Activation: install a sanitizer explicitly (the pytest plugin does,
per test), or set ``REPRO_SANITIZE=threads`` (or ``all``) and the
first :func:`active` call creates an ambient one.  Runtimes opt their
structures in via :func:`repro.sim.engine.monitor_lock` / ``monitor``,
which return plain unwrapped objects whenever no sanitizer is active —
zero overhead in normal runs.

Findings are :class:`~repro.lint.rules.Violation` objects with runtime
codes ``RPR201`` (inversion) and ``RPR202`` (race), anchored at the
caller's source line, so they flow through the same
:mod:`repro.lint.report` formatting as static findings.
"""

from __future__ import annotations

import collections
import sys
import threading
from dataclasses import dataclass, field

from repro.lint.checker import LintResult
from repro.lint.rules import Violation
from repro.sim.engine import sanitize_requested

__all__ = [
    "LOCK_ORDER_CODE",
    "RACE_CODE",
    "MonitoredLock",
    "ThreadSanitizer",
    "ThreadSanReport",
    "active",
    "install",
    "uninstall",
]

LOCK_ORDER_CODE = "RPR201"
RACE_CODE = "RPR202"

_THIS_FILE = __file__


def _call_site() -> tuple[str, int]:
    """(path, line) of the nearest caller outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == _THIS_FILE:
        frame = frame.f_back
    if frame is None:
        return "<unknown>", 0
    return frame.f_code.co_filename, frame.f_lineno


@dataclass
class ThreadSanReport:
    """Post-run findings.  ``issues`` is empty for a healthy run."""

    lock_inversions: list[Violation] = field(default_factory=list)
    races: list[Violation] = field(default_factory=list)
    locks_tracked: int = 0
    objects_tracked: int = 0
    writes_observed: int = 0

    @property
    def violations(self) -> list[Violation]:
        return sorted(self.lock_inversions + self.races)

    @property
    def issues(self) -> list[str]:
        return [v.format() for v in self.violations]

    def to_lint_result(self) -> LintResult:
        """Adapt to the static linter's result type so the standard
        formatters (``format_human`` / ``format_json``) apply."""
        return LintResult(violations=self.violations, files_checked=0)

    def summary(self) -> str:
        lines = [
            f"locks tracked: {self.locks_tracked}",
            f"shared objects tracked: {self.objects_tracked}",
            f"writes observed: {self.writes_observed}",
            f"lock-order inversions: {len(self.lock_inversions)}",
            f"unsynchronized cross-thread writes: {len(self.races)}",
        ]
        lines.extend(f"  - {issue}" for issue in self.issues)
        return "\n".join(lines)


class _ObjectState:
    """Eraser-style write-lockset state for one shared object."""

    __slots__ = ("owner", "shared", "lockset", "reported")

    def __init__(self) -> None:
        self.owner: int | None = None
        self.shared = False
        self.lockset: frozenset[str] | None = None
        self.reported = False


class ThreadSanitizer:
    """Collects lock-order and race findings from monitored objects."""

    def __init__(self) -> None:
        # Guards the graphs below; a plain lock, itself unmonitored.
        self._internal = threading.Lock()
        self._held = threading.local()  # per-thread stack of lock keys
        #: acquisition-order edges: lock key -> keys acquired under it.
        self._order: dict[str, set[str]] = collections.defaultdict(set)
        self._objects: dict[str, _ObjectState] = {}
        self._lock_serial = 0
        self._lock_names: dict[str, str] = {}  # key -> display name
        self._report = ThreadSanReport()

    # -- lock bookkeeping -------------------------------------------------
    def _next_lock_key(self, name: str) -> str:
        with self._internal:
            self._lock_serial += 1
            self._report.locks_tracked += 1
            key = f"{name}#{self._lock_serial}"
            self._lock_names[key] = name
            return key

    def _held_stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _path_exists(self, src: str, dst: str) -> bool:
        """Reachability in the acquisition-order graph (caller holds
        ``_internal``)."""
        seen = {src}
        queue = [src]
        while queue:
            node = queue.pop()
            if node == dst:
                return True
            for nxt in self._order.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def _on_acquired(self, key: str, name: str) -> None:
        stack = self._held_stack()
        if stack:
            path, line = _call_site()
            with self._internal:
                for held in stack:
                    if held == key:
                        continue  # re-entrant acquire of the same lock
                    if self._path_exists(key, held):
                        held_name = self._lock_names.get(held, held)
                        self._report.lock_inversions.append(
                            Violation(
                                path=path,
                                line=line,
                                col=0,
                                code=LOCK_ORDER_CODE,
                                message=(
                                    f"lock-order inversion: acquired "
                                    f"{name!r} while holding "
                                    f"{held_name!r}, but the opposite "
                                    f"order was observed earlier "
                                    f"(potential deadlock)"
                                ),
                            )
                        )
                    self._order[held].add(key)
        stack.append(key)

    def _on_released(self, key: str) -> None:
        stack = self._held_stack()
        # Locks are normally released LIFO; tolerate out-of-order.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == key:
                del stack[index]
                break

    # -- write bookkeeping ------------------------------------------------
    def register_object(self, name: str) -> str:
        """Unique key for one monitored container instance.

        Identity is per instance, not per name: two queues may each
        name their dict ``LocalQueue._bodies`` without sharing race
        state (their writers hold *different* lock instances)."""
        with self._internal:
            self._lock_serial += 1
            self._report.objects_tracked += 1
            self._objects[f"{name}#{self._lock_serial}"] = _ObjectState()
            return f"{name}#{self._lock_serial}"

    def on_write(self, object_key: str, display_name: str) -> None:
        """Record a mutation of a monitored shared object."""
        thread_id = threading.get_ident()
        held = frozenset(self._held_stack())
        path, line = _call_site()
        with self._internal:
            self._report.writes_observed += 1
            state = self._objects.get(object_key)
            if state is None:
                state = _ObjectState()
                self._objects[object_key] = state
                self._report.objects_tracked += 1
            if state.owner is None:
                state.owner = thread_id
            if thread_id == state.owner and not state.shared:
                return  # exclusive phase: single-threaded so far
            if not state.shared:
                # Second thread: begin intersecting locksets from here;
                # the exclusive phase (e.g. unlocked setup on the main
                # thread before workers start) is deliberately amnestied.
                state.shared = True
                state.lockset = held
            else:
                assert state.lockset is not None
                state.lockset &= held
            if not state.lockset and not state.reported:
                state.reported = True
                self._report.races.append(
                    Violation(
                        path=path,
                        line=line,
                        col=0,
                        code=RACE_CODE,
                        message=(
                            f"unsynchronized cross-thread write to "
                            f"{display_name!r}: no common lock held "
                            f"across writer threads"
                        ),
                    )
                )

    # -- monitored structures ---------------------------------------------
    def monitor_lock(self, name: str) -> "MonitoredLock":
        """A lock whose acquisitions this sanitizer observes."""
        return MonitoredLock(self, name)

    def monitor(self, obj, name: str):
        """A copy of ``obj`` whose writes this sanitizer observes.
        Supported: dict, list, set, deque (exact types only — anything
        else is returned unwrapped).  The copy is seeded by the base
        constructor, so initial contents are not monitored writes."""
        wrapper = _WRAPPERS.get(type(obj))
        return obj if wrapper is None else wrapper(self, name, obj)

    # -- reporting --------------------------------------------------------
    def report(self) -> ThreadSanReport:
        with self._internal:
            return ThreadSanReport(
                lock_inversions=list(self._report.lock_inversions),
                races=list(self._report.races),
                locks_tracked=self._report.locks_tracked,
                objects_tracked=self._report.objects_tracked,
                writes_observed=self._report.writes_observed,
            )


class MonitoredLock:
    """A ``threading.Lock`` that reports acquisitions to a sanitizer."""

    def __init__(self, sanitizer: ThreadSanitizer, name: str):
        self._lock = threading.Lock()
        self._san = sanitizer
        self.name = name
        self._key = sanitizer._next_lock_key(name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._san._on_acquired(self._key, self.name)
        return acquired

    def release(self) -> None:
        self._san._on_released(self._key)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def _monitored_container(base, mutators):
    """Build a ``base`` subclass whose mutators report to the sanitizer."""

    def make_method(op_name):
        base_op = getattr(base, op_name)

        def method(self, *args, **kwargs):
            self._san.on_write(self._key, self._name)
            return base_op(self, *args, **kwargs)

        method.__name__ = op_name
        return method

    namespace = {op: make_method(op) for op in mutators}

    def __init__(self, san, name, *args, **kwargs):  # noqa: N807
        base.__init__(self, *args, **kwargs)
        self._san = san
        self._name = name
        self._key = san.register_object(name)

    namespace["__init__"] = __init__
    namespace["__reduce__"] = lambda self: (base, (base(self),))
    return type(f"Monitored{base.__name__.capitalize()}", (base,), namespace)


MonitoredDict = _monitored_container(
    dict,
    (
        "__setitem__",
        "__delitem__",
        "clear",
        "pop",
        "popitem",
        "setdefault",
        "update",
    ),
)
MonitoredList = _monitored_container(
    list,
    (
        "__setitem__",
        "__delitem__",
        "append",
        "clear",
        "extend",
        "insert",
        "pop",
        "remove",
        "sort",
    ),
)
MonitoredSet = _monitored_container(
    set,
    ("add", "clear", "discard", "pop", "remove", "update",
     "difference_update", "intersection_update", "symmetric_difference_update"),
)
MonitoredDeque = _monitored_container(
    collections.deque,
    (
        "append",
        "appendleft",
        "clear",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popleft",
        "remove",
        "rotate",
    ),
)

_WRAPPERS = {
    dict: MonitoredDict,
    list: MonitoredList,
    set: MonitoredSet,
    collections.deque: MonitoredDeque,
}


# -- activation -----------------------------------------------------------
_active: ThreadSanitizer | None = None
_active_guard = threading.Lock()


def install(sanitizer: ThreadSanitizer) -> ThreadSanitizer:
    """Make ``sanitizer`` the process-wide active sanitizer."""
    global _active
    with _active_guard:
        _active = sanitizer
    return sanitizer


def uninstall() -> None:
    global _active
    with _active_guard:
        _active = None


def active() -> ThreadSanitizer | None:
    """The active sanitizer, creating an ambient one if the environment
    asks for thread sanitizing (``REPRO_SANITIZE=threads`` / ``all``)."""
    global _active
    if _active is not None:
        return _active
    if "threads" in sanitize_requested():
        with _active_guard:
            if _active is None:
                _active = ThreadSanitizer()
        return _active
    return None
