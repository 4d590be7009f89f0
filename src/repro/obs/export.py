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

Encoding: :func:`write_chrome_trace` writes each event's JSON text
straight from the :class:`~repro.obs.tracer.Records` columns, in the
order spans (record order, across tracks), instants, counters, source
by source.  The parts of an event fixed by its name and lane (``cat``,
``name``, ``ph``, ``pid``, ``tid``) are built once; each numeric column
(``ts``, ``dur``, counter values, numeric args) is encoded with one C
encoder call; args are encoded per key-set group.  The file is exactly
``json.dumps(document, sort_keys=True, separators=(",", ":"))`` of the
document the events describe, and :func:`chrome_trace` is the parse of
that text, so there is one encoder.

:func:`validate_chrome_trace` checks the schema (CI runs it on the
traced smoke sweep) and :func:`summarize_chrome_trace` renders the
paper-style per-phase breakdown from an exported file, so the summary
seen at export time and the one recovered from disk are the same code
path.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable

from repro.obs.context import Observability, WorkerCapture
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import Timeline
from repro.obs.tracer import Records, Tracer

__all__ = [
    "TraceEvents",
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

# The trace is compact, sorted-key JSON.  ``indent`` would force
# CPython's pure-Python encoder, which costs several times the C one.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_encode_str = json.encoder.encode_basestring_ascii

#: Value types whose JSON text never holds a comma: a column of them is
#: encoded as one list and split.
_SPLITTABLE = frozenset({float, int, bool, type(None)})


def _encode_column(values: list) -> list[str]:
    """Each value's JSON text as ``_encode`` writes it inside a
    document, with one encoder call for a numeric column."""
    types = set(map(type, values))
    if types <= _SPLITTABLE:
        return _encode(values)[1:-1].split(",") if values else []
    if types == {str}:
        return list(map(_encode_str, values))
    return list(map(_encode, values))


def _fmt(text: str) -> str:
    """``text`` as a literal inside a %-format string."""
    return text.replace("%", "%%")


def _args_texts(args: list[dict], point: "str | None") -> list[str]:
    """JSON text of each row's args, merged with ``{"point": point}``
    when ``point`` is given.

    Rows are grouped by key set; each group is one format string with a
    column of encoded values per key.
    """
    keysets = list(map(tuple, args))
    group_ids = {keys: i for i, keys in enumerate(dict.fromkeys(keysets))}
    ids = list(map(group_ids.__getitem__, keysets))
    order = sorted(range(len(args)), key=ids.__getitem__)
    extra = {} if point is None else {"point": point}
    texts: list[str] = []
    for _, members in groupby(order, key=ids.__getitem__):
        rows = list(map(args.__getitem__, members))
        keys = tuple(rows[0])
        if not all(type(key) is str for key in keys):
            texts += [_encode({**row, **extra}) for row in rows]
            continue
        parts, columns = [], []
        for key in sorted({*keys, *extra}):
            if key in extra:
                parts.append(_fmt(f"{_encode_str(key)}:{_encode(point)}"))
            else:
                parts.append(_fmt(_encode_str(key)) + ":%s")
                columns.append(_encode_column(list(map(itemgetter(key), rows))))
        form = "{" + ",".join(parts) + "}"
        if columns:
            texts += map(form.__mod__, zip(*columns))
        else:
            texts += [form % ()] * len(rows)
    if len(group_ids) <= 1:
        return texts
    in_order = texts[:]
    for index, text in zip(order, texts):
        in_order[index] = text
    return in_order


class _Encoder:
    """Encodes one Chrome trace as a list of event texts.

    Holds what is shared across sources: tid per (pid, track) and the
    worker pids.  Metadata events land
    where a pid or track is first seen, as the document always had it.
    """

    def __init__(self) -> None:
        self.events: list[str] = []
        self.tids: dict[tuple[int, str], int] = {}
        self.worker_pids: dict[tuple[int, str], int] = {}
        self.worker_index: dict[int, dict] = {}

    def tid(self, pid: int, track: str, meta: list[str]) -> int:
        key = (pid, track)
        tid = self.tids.get(key)
        if tid is None:
            tid = self.tids[key] = len(self.tids) + 1
            meta.append(
                f'{{"args":{{"name":{_encode_str(track)}}},'
                f'"name":"thread_name","ph":"M","pid":{pid},"tid":{tid}}}'
            )
        return tid

    def worker_pid(self, os_pid: int, domain: str, meta: list[str]) -> int:
        key = (os_pid, domain)
        pid = self.worker_pids.get(key)
        if pid is None:
            pid = self.worker_pids[key] = _WORKER_PID_BASE + len(self.worker_pids)
            meta.append(_process_name(
                pid, f"worker {os_pid} ({_DOMAIN_NAMES.get(domain, domain)})"
            ))
            self.worker_index[os_pid]["pids"][domain] = pid
        return pid

    def source(
        self,
        spans: Records,
        instants: Records,
        pid_for: Callable[[str, list], int],
        prefix: str,
        point: "str | None",
    ) -> None:
        """One source's spans, then its instants, in record order."""
        # (pid, tid) per (domain, track), resolved in first-seen order
        # over spans then instants; a miss resolves the pid before the
        # tid, so metadata events land in first-seen order.
        lanes: dict[tuple[str, str], tuple[int, int]] = {}
        for rows, phase in ((spans, "X"), (instants, "i")):
            sites: dict[int, tuple[int, int]] = {}
            inserts: list[tuple[int, list[str]]] = []
            for lane_id in dict.fromkeys(rows.lane):
                domain, track = rows.lanes[lane_id]
                found = lanes.get((domain, track))
                if found is None:
                    meta: list[str] = []
                    pid = pid_for(domain, meta)
                    found = lanes[domain, track] = (
                        pid, self.tid(pid, prefix + track, meta)
                    )
                    if meta:
                        inserts.append((rows.lane.index(lane_id), meta))
                sites[lane_id] = found
            texts = self._rows(rows, phase, sites, point)
            at = 0
            for index, meta in inserts:
                self.events += texts[at:index]
                self.events += meta
                at = index
            self.events += texts[at:]

    def _rows(
        self,
        rows: Records,
        phase: str,
        sites: dict[int, tuple[int, int]],
        point: "str | None",
    ) -> list[str]:
        """Event texts of ``rows`` in record order; ``sites`` maps a
        lane index to its (pid, tid)."""
        if not rows:
            return []
        pairs = list(zip(rows.name, rows.lane))
        heads: dict[tuple[int, int], str] = {}
        tails: dict[tuple[int, int], str] = {}
        for name_id, lane_id in dict.fromkeys(pairs):
            name = rows.names[name_id]
            pid, tid = sites[lane_id]
            cat = f',"cat":{_encode_str(name.split(".", 1)[0])}'
            rest = f',"name":{_encode_str(name)},"ph":"{phase}","pid":{pid}'
            if phase == "X":
                heads[name_id, lane_id] = cat + ',"dur":'
                tails[name_id, lane_id] = rest + f',"tid":{tid},"ts":'
            else:
                tails[name_id, lane_id] = cat + rest + f',"s":"t","tid":{tid},"ts":'
        args = _args_texts(rows.args, point)
        ts = _encode_column([t * 1e6 for t in rows.ts])
        tail_col = map(tails.__getitem__, pairs)
        if phase == "X":
            dur = _encode_column(
                [(end - start) * 1e6 for start, end in zip(rows.ts, rows.end)]
            )
            head_col = map(heads.__getitem__, pairs)
            form = '{"args":%s%s%s%s%s}'
            return list(map(form.__mod__, zip(args, head_col, dur, tail_col, ts)))
        return list(map('{"args":%s%s%s}'.__mod__, zip(args, tail_col, ts)))

    def counters(self, series_map: dict, pid: int, prefix: str = "") -> int:
        """Append counter events, series by sorted name; returns how many."""
        emitted = 0
        for series in sorted(series_map):
            if not series_map[series]:
                continue
            times, values = zip(*series_map[series])
            ts = _encode_column([t * 1e6 for t in times])
            values = _encode_column(values)
            rest = _fmt(
                f'}},"cat":"timeline","name":{_encode_str(prefix + series)},'
                f'"ph":"C","pid":{pid},"tid":0,"ts":'
            )
            form = '{"args":{"value":%s' + rest + "%s}"
            self.events += map(form.__mod__, zip(values, ts))
            emitted += len(ts)
        return emitted


def _process_name(pid: int, name: str) -> str:
    return (
        f'{{"args":{{"name":{_encode_str(name)}}},'
        f'"name":"process_name","ph":"M","pid":{pid},"tid":0}}'
    )


def _encode_trace(
    tracer: Tracer,
    metrics: "MetricsRegistry | None",
    timeline: "Timeline | None",
    workers: Iterable[WorkerCapture],
) -> tuple[dict, list[str]]:
    """The document's ``otherData`` and the JSON text of each event.

    ``_head(other) + ",".join(events) + "]}"`` is exactly
    ``json.dumps(document, sort_keys=True, separators=(",", ":"))`` of
    the document the events describe.
    """
    enc = _Encoder()
    for domain, pid in sorted(_DOMAIN_PIDS.items()):
        enc.events.append(_process_name(pid, _DOMAIN_NAMES[domain]))
    spans, instants = tracer.records()
    enc.source(
        spans, instants, lambda domain, meta: _DOMAIN_PIDS.get(domain, 0), "", None
    )
    counter_events = 0
    if timeline is not None:
        counter_events += enc.counters(timeline.snapshot(), _DOMAIN_PIDS["sim"])

    # -- merged worker processes ------------------------------------------
    for capture in workers:
        os_pid = capture.os_pid
        entry = enc.worker_index.setdefault(
            os_pid,
            {"os_pid": os_pid, "pids": {}, "points": [], "spans": 0, "instants": 0},
        )
        if capture.label:
            entry["points"].append(capture.label)
        entry["spans"] += len(capture.spans)
        entry["instants"] += len(capture.instants)
        # Prefix tracks with the point label: points in one worker
        # process each start at sim time zero, so sharing rows would
        # stack unrelated spans on top of each other.
        prefix = f"{capture.label} · " if capture.label else ""
        enc.source(
            capture.spans,
            capture.instants,
            lambda domain, meta, os_pid=os_pid: enc.worker_pid(os_pid, domain, meta),
            prefix,
            capture.label or None,
        )
        if capture.timeline:
            pid = enc.worker_pid(os_pid, "sim", enc.events)
            counter_events += enc.counters(capture.timeline, pid, prefix)

    other: dict = {"schema": "repro-trace-v1", "label": tracer.label}
    if enc.worker_index:
        other["workers"] = [
            enc.worker_index[os_pid] for os_pid in sorted(enc.worker_index)
        ]
    if counter_events:
        other["counter_events"] = counter_events
    if metrics is not None:
        other["metrics"] = metrics.to_dict()
    return other, enc.events


def _head(other: dict) -> str:
    """The document text up to the first event; ``"]}"`` closes it."""
    return f'{{"displayTimeUnit":"ms","otherData":{_encode(other)},"traceEvents":['


def chrome_trace(
    tracer: Tracer,
    metrics: "MetricsRegistry | None" = None,
    *,
    timeline: "Timeline | None" = None,
    workers: Iterable[WorkerCapture] = (),
) -> dict:
    """Render a tracer (plus registry / timeline / worker captures) as
    one merged Chrome trace document: the parse of the text
    :func:`write_chrome_trace` writes."""
    other, events = _encode_trace(tracer, metrics, timeline, workers)
    return json.loads(_head(other) + ",".join(events) + "]}")


class TraceEvents(Sequence):
    """The ``traceEvents`` of a written trace.

    ``len()`` is the event count; the event dicts are parsed from the
    written text (``body``, the comma-joined events) the first time
    anything reads them.
    """

    __slots__ = ("_body", "_count", "_events")

    def __init__(self, body: str, count: int) -> None:
        self._body = body
        self._count = count
        self._events: "list[dict] | None" = None

    def _parsed(self) -> list[dict]:
        if self._events is None:
            self._events = json.loads(f"[{self._body}]")
            self._body = ""
        return self._events

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._parsed()[index]

    def __iter__(self):
        return iter(self._parsed())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceEvents):
            other = other._parsed()
        return self._parsed() == other

    __hash__ = None  # type: ignore[assignment]


def write_chrome_trace(
    path: "str | Path",
    obs: "Observability | Tracer",
    metrics: "MetricsRegistry | None" = None,
) -> dict:
    """Write the trace JSON to ``path``; returns the document.

    Passing a full :class:`Observability` bundle exports its timeline
    and any adopted worker captures alongside the parent tracer.

    The file is compact, sorted-key JSON encoded straight from the
    tracer's columns; pipe it through ``python -m json.tool`` to read it
    by eye.  The returned document's ``traceEvents`` is a
    :class:`TraceEvents`: its length is known at once, the event dicts
    are parsed only when read.
    """
    timeline: "Timeline | None" = None
    workers: Iterable[WorkerCapture] = ()
    if isinstance(obs, Observability):
        tracer, metrics = obs.tracer, obs.metrics
        timeline, workers = obs.timeline, obs.workers
    else:
        tracer = obs
    other, events = _encode_trace(tracer, metrics, timeline, workers)
    count = len(events)
    body = ",".join(events)
    del events
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(_head(other))
        handle.write(body)
        handle.write("]}\n")
    return {
        "traceEvents": TraceEvents(body, count),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def validate_chrome_trace(data: object) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"top level must be a JSON object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, (list, TraceEvents)):
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
