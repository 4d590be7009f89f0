"""repro.obs — unified tracing + metrics for every backend.

Opt in around any run::

    from repro.obs import observe, write_chrome_trace

    with observe(label="classiccloud") as obs:
        result = framework.run(app, inputs)
    write_chrome_trace("out.json", obs)

Everything defaults to null objects (:data:`NULL_TRACER`,
:data:`NULL_METRICS`, :data:`NULL_TIMELINE`), so code instrumented with
this package costs an empty method call per event when nobody is
observing.  Parallel sweeps capture inside each worker process and
merge on the way out (see :mod:`repro.obs.context` and
:mod:`repro.obs.export`); :mod:`repro.obs.report`, a tool imported on
its own, renders the merged story as a self-contained HTML report.
"""

from repro.obs.context import (
    NULL_OBSERVABILITY,
    Observability,
    WorkerCapture,
    current,
    observe,
    run_captured,
    worker_payload,
)
from repro.obs.export import (
    chrome_trace,
    phase_fractions,
    phase_fractions_by_point,
    summarize_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.timeline import NULL_TIMELINE, NullTimeline, Timeline, series_from_trace
from repro.obs.tracer import NULL_TRACER, Instant, NullTracer, Records, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_OBSERVABILITY",
    "NULL_TIMELINE",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTimeline",
    "NullTracer",
    "Observability",
    "Records",
    "Span",
    "Timeline",
    "Tracer",
    "WorkerCapture",
    "chrome_trace",
    "current",
    "observe",
    "phase_fractions",
    "phase_fractions_by_point",
    "run_captured",
    "series_from_trace",
    "summarize_chrome_trace",
    "validate_chrome_trace",
    "worker_payload",
    "write_chrome_trace",
]
