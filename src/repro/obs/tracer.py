"""Low-overhead tracing: nestable spans and instant events.

A :class:`Tracer` collects spans (intervals on a named track) and
instants (point events).  Two time domains coexist in one trace:

* ``"sim"`` — timestamps are **simulated seconds** read from
  ``Environment.now``.  Simulation code records these with explicit
  times via :meth:`Tracer.add` / :meth:`Tracer.instant`, using the very
  same ``env.now`` readings it already takes for its
  :class:`~repro.core.task.TaskRecord` bookkeeping, so span durations
  agree exactly with the post-run analysis.
* ``"wall"`` — timestamps are **wall-clock seconds** since the tracer
  was created.  The threaded local runtimes use this domain, and the
  :meth:`Tracer.span` context manager reads the tracer's wall clock
  automatically (handy for host-side work like cache lookups).

Records are stored as :class:`Records` columns, one row per span or
instant in record order: an interned name, a lane index for the
``(domain, track)`` pair, the times and the args dict.  No object is
made per record; :class:`Span` / :class:`Instant` are built only when
someone reads :attr:`Tracer.spans` / :attr:`Tracer.instants`.  The
Chrome exporter (:mod:`repro.obs.export`) encodes straight from the
columns.

The default tracer everywhere is :data:`NULL_TRACER`, a null object
whose every method is a constant-time no-op — uninstrumented runs pay
one attribute lookup and an empty call per would-be span, nothing more.
Real tracers are installed for one run at a time through
:func:`repro.obs.context.observe`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Instant", "NULL_TRACER", "NullTracer", "Records", "Span", "Tracer"]

#: Known time domains; export maps each to its own Chrome trace pid.
DOMAINS = ("sim", "wall")


@dataclass(frozen=True)
class Span:
    """One completed interval on a track (worker / process / scope)."""

    name: str  # e.g. "task.compute"
    track: str  # e.g. "worker-3" — becomes the Chrome trace tid
    start: float  # seconds (domain-relative)
    end: float
    domain: str = "sim"
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """One point event on a track."""

    name: str
    track: str
    ts: float
    domain: str = "sim"
    args: dict[str, Any] = field(default_factory=dict)


class Records(Sequence):
    """One record kind (spans or instants) as parallel columns.

    Row ``i`` is ``name[i]`` (an index into the ``names`` table),
    ``lane[i]`` (an index into the ``lanes`` table of ``(domain,
    track)`` pairs), ``ts[i]`` (the start, or the instant's time),
    ``end[i]`` (spans only; ``end`` is ``None`` for instants) and
    ``args[i]``.  Rows keep record order.  Every field is a plain list,
    so a copy pickles as-is: this is what a worker ships to its parent.

    As a sequence it reads as :class:`Span` or :class:`Instant` objects,
    built on access; ``len()`` is the row count.
    """

    __slots__ = ("names", "lanes", "name", "lane", "ts", "end", "args")

    def __init__(
        self,
        names: "list[str] | None" = None,
        lanes: "list[tuple[str, str]] | None" = None,
        *,
        spans: bool = True,
    ) -> None:
        self.names: list[str] = [] if names is None else names
        self.lanes: list[tuple[str, str]] = [] if lanes is None else lanes
        self.name: list[int] = []
        self.lane: list[int] = []
        self.ts: list[float] = []
        self.end: "list[float] | None" = [] if spans else None
        self.args: list[dict[str, Any]] = []

    @staticmethod
    def of(records: "Iterable[Span | Instant]", *, spans: bool) -> "Records":
        """Columns holding ``records`` (:class:`Span` objects when
        ``spans``, else :class:`Instant`), with their own tables."""
        tracer = Tracer()
        rows = tracer._spans if spans else tracer._instants
        for r in records:
            if spans:
                tracer._record(rows, r.name, r.track, r.domain, r.start, r.end, r.args)
            else:
                tracer._record(rows, r.name, r.track, r.domain, r.ts, None, r.args)
        return rows

    def copy(self) -> "Records":
        """Independent copies of every column and table."""
        out = Records(list(self.names), list(self.lanes), spans=self.end is not None)
        out.name = list(self.name)
        out.lane = list(self.lane)
        out.ts = list(self.ts)
        if self.end is not None:
            out.end = list(self.end)
        out.args = list(self.args)
        return out

    def __len__(self) -> int:
        return len(self.name)

    def __getitem__(self, index: int) -> "Span | Instant":
        name = self.names[self.name[index]]
        domain, track = self.lanes[self.lane[index]]
        if self.end is None:
            return Instant(name, track, self.ts[index], domain, self.args[index])
        return Span(
            name, track, self.ts[index], self.end[index], domain, self.args[index]
        )


class _SpanHandle:
    """Context manager for a wall-domain span; records on exit."""

    __slots__ = ("_tracer", "_name", "_track", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, track: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._track = track
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._start = self._tracer.wall_now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        tracer._record(
            tracer._spans, self._name, self._track, "wall",
            self._start, tracer.wall_now(), self._args,
        )

    def open(self) -> "_SpanHandle":
        """Explicit open for handles that must straddle a boundary a
        with-block cannot (pair with ``close()`` in a ``finally``)."""
        return self.__enter__()

    def close(self) -> None:
        self.__exit__(None, None, None)


class Tracer:
    """Collects spans and instants as columns; thread-safe appends.

    ``label`` tags the trace (e.g. the backend name) and surfaces in the
    exported Chrome trace metadata.
    """

    enabled = True

    def __init__(self, label: str = ""):
        self.label = label
        # Shared by both record kinds: name -> index, (domain, track) ->
        # lane index.
        self._name_ids: dict[str, int] = {}
        self._lane_ids: dict[tuple[str, str], int] = {}
        self._spans = Records(spans=True)
        self._instants = Records(self._spans.names, self._spans.lanes, spans=False)
        self._lock = threading.Lock()
        # Wall-domain origin: spans from threaded runtimes and context-
        # manager spans are relative to tracer creation.
        self._wall_origin = time.monotonic()

    def wall_now(self) -> float:
        """Wall-clock seconds since this tracer was created."""
        return time.monotonic() - self._wall_origin

    # -- recording --------------------------------------------------------
    def _record(
        self,
        rows: Records,
        name: str,
        track: str,
        domain: str,
        ts: float,
        end: "float | None",
        args: dict[str, Any],
    ) -> None:
        """Append one row to ``rows``; every public recorder lands here,
        with its args as a dict (so an arg may be called ``domain``)."""
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(rows.names)
                rows.names.append(name)
            lane_id = self._lane_ids.get((domain, track))
            if lane_id is None:
                lane_id = self._lane_ids[domain, track] = len(rows.lanes)
                rows.lanes.append((domain, track))
            rows.name.append(name_id)
            rows.lane.append(lane_id)
            rows.ts.append(ts)
            if rows.end is not None:
                rows.end.append(end)
            rows.args.append(args)

    def add(
        self,
        name: str,
        *,
        track: str,
        start: float,
        end: float,
        domain: str = "sim",
        **args: Any,
    ) -> None:
        """Record a completed span with explicit timestamps.

        Simulation code passes its own ``env.now`` readings; threaded
        runtimes pass wall-clock offsets with ``domain="wall"``.
        """
        self._record(self._spans, name, track, domain, start, end, args)

    def span(self, name: str, *, track: str = "main", **args: Any):
        """Context manager recording a wall-domain span around a block.

        Simulation code must not use this form (the body would be timed
        in host seconds); it records with :meth:`add` and ``env.now``
        readings instead — lint rule RPR007 enforces this.
        """
        return _SpanHandle(self, name, track, args)

    def instant(
        self,
        name: str,
        *,
        track: str = "main",
        ts: float | None = None,
        domain: str = "sim",
        **args: Any,
    ) -> None:
        """Record a point event; ``ts=None`` reads the wall clock."""
        if ts is None:
            ts = self.wall_now()
            domain = "wall"
        self._record(self._instants, name, track, domain, ts, None, args)

    # -- views ------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """The recorded spans, built as :class:`Span` objects on read."""
        return list(self.records()[0])

    @property
    def instants(self) -> list[Instant]:
        """The recorded instants, built as :class:`Instant` objects."""
        return list(self.records()[1])

    def records(self) -> tuple[Records, Records]:
        """Consistent copies of the span and instant columns (what
        :func:`~repro.obs.context.worker_payload` ships and the Chrome
        exporter encodes)."""
        with self._lock:
            return self._spans.copy(), self._instants.copy()

    def snapshot(self) -> tuple[list[Span], list[Instant]]:
        """Consistent copies of the recorded spans and instants."""
        spans, instants = self.records()
        return list(spans), list(instants)

    def totals(self, prefix: str = "") -> dict[str, float]:
        """Total seconds per span name (optionally name-prefix filtered)."""
        spans, _ = self.records()
        out: dict[str, float] = {}
        for name_id, start, end in zip(spans.name, spans.ts, spans.end):
            name = spans.names[name_id]
            if not prefix or name.startswith(prefix):
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def __len__(self) -> int:
        return len(self._spans) + len(self._instants)


class _NullSpanHandle:
    """Shared no-op context manager handed out by the null tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None

    def open(self):
        return self

    def close(self) -> None:
        return None


_NULL_SPAN_HANDLE = _NullSpanHandle()


class NullTracer:
    """The do-nothing default: every method is a constant-time no-op."""

    enabled = False
    label = ""
    spans: list[Span] = []  # always empty; never mutated
    instants: list[Instant] = []

    def wall_now(self) -> float:
        return 0.0

    def add(self, name, *, track, start, end, domain="sim", **args) -> None:
        pass

    def span(self, name, *, track="main", **args):
        return _NULL_SPAN_HANDLE

    def instant(self, name, *, track="main", ts=None, domain="sim", **args):
        pass

    def records(self) -> tuple[Records, Records]:
        return Records(spans=True), Records(spans=False)

    def snapshot(self) -> tuple[list[Span], list[Instant]]:
        return [], []

    def totals(self, prefix: str = "") -> dict[str, float]:
        return {}

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
