"""Exporters: Chrome ``trace_event`` JSON, flat metrics JSON, text summary.

The Chrome format is the `trace_event` JSON-object form — load the file
in ``chrome://tracing`` or https://ui.perfetto.dev.  Spans become
complete (``"ph": "X"``) events with microsecond timestamps; instants
become ``"ph": "i"`` events; timeline samples become counter
(``"ph": "C"``) events; tracks map to thread ids with ``thread_name``
metadata, and each time domain (simulated seconds vs host wall clock)
gets its own process id so the two timelines never interleave on one
row.

Multi-process merging: a parallel sweep's worker processes each ship a
:class:`~repro.obs.context.WorkerCapture` back to the parent, and
:func:`chrome_trace` merges them into the same document — every worker
process × time domain gets its own synthetic pid (allocated from
``_WORKER_PID_BASE`` in first-seen order) with a ``process_name``
metadata event naming the worker's real OS pid, and every span is
tagged with the sweep point it belongs to (``args["point"]``) so
per-point phase totals survive the merge.

:func:`validate_chrome_trace` checks the schema (CI runs it on the
traced smoke sweep) and :func:`summarize_chrome_trace` renders the
paper-style per-phase breakdown from an exported file, so the summary
seen at export time and the one recovered from disk are the same code
path.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from repro.obs.context import Observability, WorkerCapture
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import Timeline
from repro.obs.tracer import Instant, Span, Tracer

__all__ = [
    "chrome_trace",
    "phase_fractions",
    "phase_fractions_by_point",
    "summarize_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: pid assignment per time domain (Chrome groups rows by pid).
_DOMAIN_PIDS = {"sim": 1, "wall": 2}
_DOMAIN_NAMES = {"sim": "simulated time", "wall": "wall time"}

#: First synthetic pid handed to merged worker processes (one pid per
#: worker process × time domain, allocated in first-seen order).
_WORKER_PID_BASE = 10

#: The span names making up the paper's phase decomposition.
TASK_PHASES = ("task.queue_wait", "task.download", "task.compute", "task.upload")


def chrome_trace(
    tracer: Tracer,
    metrics: "MetricsRegistry | None" = None,
    *,
    timeline: "Timeline | None" = None,
    workers: Iterable[WorkerCapture] = (),
) -> dict:
    """Render a tracer (plus registry / timeline / worker captures) as
    one merged Chrome trace document."""
    events: list[dict] = []
    append = events.append
    tids: dict[tuple[int, str], int] = {}
    categories: dict[str, str] = {}

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    def emit_records(
        spans: Iterable[Span],
        instants: Iterable[Instant],
        pid_for: Callable[[str], int],
        prefix: str,
        extra_args: dict,
    ) -> None:
        # One source's records.  ``lanes`` memoizes (pid, tid) per
        # (domain, track) for this source; a miss resolves the pid before
        # the tid, so metadata events land in first-seen order.
        lanes: dict[tuple[str, str], tuple[int, int]] = {}

        def lane(domain: str, track: str) -> tuple[int, int]:
            pid = pid_for(domain)
            found = lanes[(domain, track)] = (pid, tid_for(pid, prefix + track))
            return found

        for span in spans:
            name = span.name
            category = categories.get(name)
            if category is None:
                category = categories[name] = name.split(".", 1)[0]
            pid, tid = lanes.get((span.domain, span.track)) or lane(
                span.domain, span.track
            )
            append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {**span.args, **extra_args},
                }
            )
        for instant in instants:
            name = instant.name
            category = categories.get(name)
            if category is None:
                category = categories[name] = name.split(".", 1)[0]
            pid, tid = lanes.get((instant.domain, instant.track)) or lane(
                instant.domain, instant.track
            )
            append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "i",
                    "s": "t",  # thread-scoped
                    "ts": instant.ts * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {**instant.args, **extra_args},
                }
            )

    def emit_counters(series_map: dict, pid: int, prefix: str = "") -> int:
        emitted = 0
        for series in sorted(series_map):
            name = prefix + series
            for ts, value in series_map[series]:
                append(
                    {
                        "name": name,
                        "cat": "timeline",
                        "ph": "C",
                        "ts": ts * 1e6,
                        "pid": pid,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )
                emitted += 1
        return emitted

    for domain, pid in sorted(_DOMAIN_PIDS.items()):
        append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": _DOMAIN_NAMES[domain]},
            }
        )
    emit_records(
        tracer.spans,
        tracer.instants,
        lambda domain: _DOMAIN_PIDS.get(domain, 0),
        "",
        {},
    )
    counter_events = 0
    if timeline is not None:
        counter_events += emit_counters(timeline.snapshot(), _DOMAIN_PIDS["sim"])

    # -- merged worker processes ------------------------------------------
    worker_pids: dict[tuple[int, str], int] = {}
    next_pid = _WORKER_PID_BASE
    worker_index: dict[int, dict] = {}

    def worker_pid(os_pid: int, domain: str) -> int:
        nonlocal next_pid
        key = (os_pid, domain)
        pid = worker_pids.get(key)
        if pid is None:
            pid = worker_pids[key] = next_pid
            next_pid += 1
            append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "name": f"worker {os_pid} "
                        f"({_DOMAIN_NAMES.get(domain, domain)})"
                    },
                }
            )
            worker_index[os_pid]["pids"][domain] = pid
        return pid

    for capture in workers:
        entry = worker_index.setdefault(
            capture.os_pid,
            {
                "os_pid": capture.os_pid,
                "pids": {},
                "points": [],
                "spans": 0,
                "instants": 0,
            },
        )
        if capture.label:
            entry["points"].append(capture.label)
        entry["spans"] += len(capture.spans)
        entry["instants"] += len(capture.instants)
        # Prefix tracks with the point label: points in one worker
        # process each start at sim time zero, so sharing rows would
        # stack unrelated spans on top of each other.
        prefix = f"{capture.label} · " if capture.label else ""
        emit_records(
            capture.spans,
            capture.instants,
            partial(worker_pid, capture.os_pid),
            prefix,
            {"point": capture.label} if capture.label else {},
        )
        if capture.timeline:
            counter_events += emit_counters(
                capture.timeline, worker_pid(capture.os_pid, "sim"), prefix
            )

    document: dict = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro-trace-v1",
            "label": tracer.label,
        },
    }
    if worker_index:
        document["otherData"]["workers"] = [
            worker_index[os_pid] for os_pid in sorted(worker_index)
        ]
    if counter_events:
        document["otherData"]["counter_events"] = counter_events
    if metrics is not None:
        document["otherData"]["metrics"] = metrics.to_dict()
    return document


def write_chrome_trace(
    path: "str | Path",
    obs: "Observability | Tracer",
    metrics: "MetricsRegistry | None" = None,
) -> dict:
    """Write the trace JSON to ``path``; returns the document.

    Passing a full :class:`Observability` bundle exports its timeline
    and any adopted worker captures alongside the parent tracer.

    The file is compact, sorted-key JSON: ``indent`` would force
    CPython's pure-Python encoder, which costs several times the C
    encoder on a large trace.  Pipe the file through
    ``python -m json.tool`` to read it by eye.
    """
    timeline: "Timeline | None" = None
    workers: Iterable[WorkerCapture] = ()
    if isinstance(obs, Observability):
        tracer, metrics = obs.tracer, obs.metrics
        timeline, workers = obs.timeline, obs.workers
    else:
        tracer = obs
    document = chrome_trace(tracer, metrics, timeline=timeline, workers=workers)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")
    return document


def validate_chrome_trace(data: object) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"top level must be a JSON object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing string 'name'")
        if phase not in ("X", "i", "M", "C", "B", "E"):
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: missing integer {key!r}")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: missing numeric 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                errors.append(f"{where}: complete event missing numeric 'dur'")
            elif dur < 0:
                errors.append(f"{where}: negative duration {dur}")
        if phase == "C":
            value = event.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                errors.append(
                    f"{where}: counter event missing numeric args['value']"
                )
    return errors


def _span_events(data: dict) -> list[dict]:
    return [
        event
        for event in data.get("traceEvents", [])
        if event.get("ph") == "X"
    ]


def _phase_totals(events: Iterable[dict]) -> dict[str, float]:
    totals = {"download": 0.0, "compute": 0.0, "upload": 0.0}
    for event in events:
        name = event.get("name", "")
        phase = name.removeprefix("task.")
        if name.startswith("task.") and phase in totals:
            totals[phase] += float(event.get("dur", 0.0))
    return totals


def phase_fractions(data: dict) -> dict[str, float]:
    """Fractions of total per-task time per phase, from an exported
    trace — the paper's ``phase_breakdown`` view, reconstructed from
    ``task.download`` / ``task.compute`` / ``task.upload`` spans.

    Returns ``{}`` when the trace has no task phase spans (empty or
    metadata-only traces summarize cleanly instead of dividing by
    zero).
    """
    totals = _phase_totals(_span_events(data))
    grand = sum(totals.values())
    if grand <= 0:
        return {}
    return {phase: value / grand for phase, value in totals.items()}


def phase_fractions_by_point(data: dict) -> dict[str, dict[str, float]]:
    """Per-sweep-point phase fractions from a merged trace.

    Merged worker spans carry ``args["point"]`` (the sweep point
    label); spans without one group under ``""`` (the parent / an
    inline run).  Points whose task spans sum to zero are omitted.
    """
    by_point: dict[str, list[dict]] = {}
    for event in _span_events(data):
        point = str(event.get("args", {}).get("point", ""))
        by_point.setdefault(point, []).append(event)
    out: dict[str, dict[str, float]] = {}
    for point, events in sorted(by_point.items()):
        totals = _phase_totals(events)
        grand = sum(totals.values())
        if grand <= 0:
            continue
        out[point] = {phase: value / grand for phase, value in totals.items()}
    return out


def _format_metric(value: object) -> str:
    if isinstance(value, dict):  # histogram summary
        parts = [f"count={value.get('count')}", f"mean={value.get('mean')}"]
        for q in ("p50", "p95", "p99"):
            if value.get(q) is not None:
                parts.append(f"{q}={value[q]:.6g}")
        return "{" + ", ".join(parts) + "}"
    return str(value)


def summarize_chrome_trace(data: dict) -> str:
    """Human text summary: span totals plus the phase breakdown."""
    spans = _span_events(data)
    totals: dict[str, tuple[int, float]] = {}
    for event in spans:
        name = event["name"]
        count, seconds = totals.get(name, (0, 0.0))
        totals[name] = (count + 1, seconds + float(event.get("dur", 0.0)) / 1e6)
    lines = []
    other = data.get("otherData", {}) if isinstance(data, dict) else {}
    label = other.get("label")
    title = f"trace summary ({label})" if label else "trace summary"
    lines.append(title)
    lines.append(f"  span events: {len(spans)}")
    workers = other.get("workers") or []
    if workers:
        pids = ", ".join(str(w.get("os_pid")) for w in workers)
        lines.append(f"  worker processes: {len(workers)} (os pids: {pids})")
    counter_events = other.get("counter_events")
    if counter_events:
        lines.append(f"  timeline counter events: {counter_events}")
    name_width = max((len(name) for name in totals), default=4)
    for name in sorted(totals):
        count, seconds = totals[name]
        lines.append(
            f"  {name.ljust(name_width)}  n={count:<6d} total={seconds:,.3f}s"
        )
    fractions = phase_fractions(data)
    if fractions:
        lines.append("phase breakdown (fractions of per-task time):")
        for phase, fraction in fractions.items():
            lines.append(f"  {phase:<8s} {100 * fraction:6.2f}%")
    metrics = other.get("metrics") or {}
    if metrics:
        lines.append("metrics:")
        for name in sorted(metrics):
            lines.append(f"  {name} = {_format_metric(metrics[name])}")
    return "\n".join(lines)
