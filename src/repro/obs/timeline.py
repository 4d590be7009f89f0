"""Time-series sampling: named gauges sampled over simulated time.

Spans answer "what ran when"; a :class:`Timeline` answers "how big was
the backlog / how many workers were busy at time t".  Producers —
:class:`~repro.cloud.queue.MessageQueue` (depth), the classic-cloud
worker loop (busy workers, utilization), the Hadoop/DryadLINQ
schedulers (in-flight tasks) and :mod:`repro.autoscale` (fleet size,
backlog) — call :meth:`Timeline.sample` with the same ``env.now``
readings they already take for their metrics gauges, so every sample is
a (sim-seconds, value) pair.

Export surfaces:

* Chrome ``Counter`` ("C"-phase) events via
  :func:`repro.obs.export.chrome_trace` — each series renders as a
  stacked area track in ``chrome://tracing`` / Perfetto.
* CSV via :meth:`Timeline.to_csv` (``series,time_s,value`` rows) for
  spreadsheet / pandas post-processing.

The ambient default is :data:`NULL_TIMELINE`: sampling into it is a
constant-time no-op, mirroring ``NULL_TRACER`` / ``NULL_METRICS``.
"""

from __future__ import annotations

import threading

__all__ = [
    "NULL_TIMELINE", "NullTimeline", "Timeline", "series_csv",
    "series_from_trace",
]


class Timeline:
    """Append-only store of (timestamp, value) samples per series name."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[str, list[tuple[float, float]]] = {}

    def sample(self, series: str, ts: float, value: float) -> None:
        """Record one sample; ``ts`` is simulated seconds (``env.now``).

        Only a new series takes the lock: a sample is one tuple appended
        to its series list, which is atomic on its own.
        """
        bucket = self._series.get(series)
        if bucket is None:
            with self._lock:
                bucket = self._series.setdefault(series, [])
        bucket.append((float(ts), float(value)))

    def snapshot(self) -> dict[str, list[tuple[float, float]]]:
        """Picklable copy: series name → list of (ts, value) pairs."""
        with self._lock:
            return {name: list(samples) for name, samples in self._series.items()}

    def series(self, name: str) -> list[tuple[float, float]]:
        with self._lock:
            return list(self._series.get(name, ()))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def to_csv(self) -> str:
        """``series,time_s,value`` rows, sorted by series then sample order."""
        return series_csv(self.snapshot())

    def __len__(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._series.values())


class NullTimeline(Timeline):
    """The do-nothing default; sampling is a constant-time no-op."""

    enabled = False

    def sample(self, series: str, ts: float, value: float) -> None:
        pass


NULL_TIMELINE = NullTimeline()


def series_csv(series: "dict[str, list[tuple[float, float]]]") -> str:
    """``series,time_s,value`` rows, sorted by series then sample order."""
    lines = ["series,time_s,value"]
    for name in sorted(series):
        for ts, value in series[name]:
            lines.append(f"{name},{ts:.9g},{value:.9g}")
    return "\n".join(lines) + "\n"


def series_from_trace(data: dict) -> dict[str, list[tuple[float, float]]]:
    """Reconstruct timeline series from a Chrome trace's "C" events.

    Counter timestamps are stored in microseconds; this converts back to
    seconds, keyed ``"<series>"`` (parent) or ``"pid<pid>:<series>"``
    for counters attached to merged worker processes.
    """
    out: dict[str, list[tuple[float, float]]] = {}
    for event in data.get("traceEvents", ()):
        if event.get("ph") != "C":
            continue
        args = event.get("args", {})
        if "value" not in args:
            continue
        pid = event.get("pid", 1)
        name = event["name"] if pid == 1 else f"pid{pid}:{event['name']}"
        out.setdefault(name, []).append(
            (float(event["ts"]) / 1e6, float(args["value"]))
        )
    return out
