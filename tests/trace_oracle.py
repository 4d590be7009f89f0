"""Test-only oracle: the Chrome trace built as one dict per event.

This is the exporter as it was before :mod:`repro.obs.export` encoded
events straight from the tracer's columns.  It reads records through the
public views (``tracer.spans``, ``capture.instants``, ...), builds the
document dict by dict and encodes it with one ``json.dumps`` call.
:func:`oracle_bytes` is what the written file must equal byte for byte.
"""

import json
from functools import partial
from typing import Callable, Iterable

from repro.obs.context import Observability, WorkerCapture
from repro.obs.export import _DOMAIN_NAMES, _DOMAIN_PIDS, _WORKER_PID_BASE
from repro.obs.tracer import Instant, Span


def oracle_bytes(obs, metrics=None) -> bytes:
    """The file ``write_chrome_trace(path, obs, metrics)`` must write."""
    if isinstance(obs, Observability):
        document = oracle_trace(
            obs.tracer, obs.metrics, timeline=obs.timeline, workers=obs.workers
        )
    else:
        document = oracle_trace(obs, metrics)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def oracle_trace(
    tracer,
    metrics: "object | None" = None,
    *,
    timeline: "object | None" = None,
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

