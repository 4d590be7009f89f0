"""Fan sweep points out over worker processes, deterministically.

:func:`run_points` takes a mixed list of :class:`~repro.sweep.points.
PointSpec` and :class:`~repro.sweep.points.InlinePoint` and returns one
:class:`~repro.sweep.points.PointResult` per input, **in input order**,
regardless of which worker finishes first.  Specs are looked up in the
cache first (when one is given); the remaining ones are executed and
freshly computed results are stored back.  Parallel execution goes
through the persistent :class:`~repro.sweep.pool.SweepPool` in
*chunks* — each worker receives a contiguous slice of specs as a single
pickle instead of one submission per point — so repeated ``run_points``
calls reuse warm workers instead of respawning a pool every time.
Inline points always run in the parent process and are never cached.
When the ambient observability bundle is live, chunks are submitted
with worker-side capture: each worker installs a private tracer per
point and the parent adopts the shipped spans/metrics, so a traced
``--jobs N`` sweep exports one merged multi-process Chrome trace.

Sanitized runs (``REPRO_SANITIZE`` with a DES token) take the same
path: the sanitizer changes no simulated result, so they use the cache
and the pool like any other run, and pool workers run their points on
the instrumented event loop (see :mod:`repro.sweep.pool`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.obs.context import current as _current_obs
from repro.sim.engine import sanitize_requested
from repro.sweep.cache import ResultCache
from repro.sweep.fingerprint import point_fingerprint
from repro.sweep.points import (
    InlinePoint,
    PointResult,
    PointSpec,
    run_inline,
    run_point,
)

if TYPE_CHECKING:
    from repro.sweep.pool import SweepPool

__all__ = ["PointProgress", "resolve_jobs", "run_points"]

# Target chunks per worker: >1 so a slow chunk does not leave the other
# workers idle for its whole duration, small enough that the per-chunk
# dispatch overhead stays amortized.
_CHUNKS_PER_WORKER = 2


@dataclass(frozen=True)
class PointProgress:
    """One live progress notification from :func:`run_points`.

    ``status`` is ``"start"`` (the point began executing), ``"done"``
    (its result is in), or ``"cache-hit"`` (served from the result
    cache without executing).  Cache hits emit a single notification;
    executed points emit ``start`` then ``done``.
    """

    index: int  # position in the input list
    label: str
    status: str  # "start" | "done" | "cache-hit"
    total: int  # len(points), for "k/n" displays


def resolve_jobs(jobs: "int | None" = None) -> int:
    """Worker-count policy: explicit argument > ``REPRO_JOBS`` env var >
    ``os.cpu_count()``.

    Invalid values — zero, negatives, non-integers — are rejected with
    a clear error rather than silently clamped: a user who exported
    ``REPRO_JOBS=0`` asked for something impossible and should hear
    about it, not get a surprise serial run.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return os.cpu_count() or 1
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"REPRO_JOBS must be a positive integer, got {env!r}"
            )
        return value
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise TypeError(f"jobs must be a positive integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    return jobs


def _chunk_pending(
    pending: "list[tuple[int, PointSpec]]", workers: int
) -> "list[list[tuple[int, PointSpec]]]":
    """Split pending points into contiguous chunks, preserving order.

    Contiguity is what lets the collector stream ``done`` events in
    input order as each chunk future resolves.
    """
    n_chunks = min(len(pending), workers * _CHUNKS_PER_WORKER)
    base, extra = divmod(len(pending), n_chunks)
    chunks = []
    at = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(pending[at : at + size])
        at += size
    return chunks


def run_points(
    points: "list[PointSpec | InlinePoint]",
    *,
    jobs: "int | None" = None,
    cache: "ResultCache | None" = None,
    progress: "Callable[[PointProgress], None] | None" = None,
    pool: "SweepPool | None" = None,
) -> list[PointResult]:
    """Execute every point; results come back in input order.

    ``progress`` is invoked from the parent process with one
    :class:`PointProgress` per lifecycle event (start / done /
    cache-hit); exceptions it raises propagate to the caller.  ``pool``
    overrides the process-wide shared :class:`SweepPool`; callers that
    pass one own its lifecycle.
    """
    jobs = resolve_jobs(jobs)
    # A cache hit builds no event loop, so a bad REPRO_SANITIZE token
    # fails here whether or not the points are cached.
    sanitize_requested()
    use_cache = cache is not None
    total = len(points)
    obs = _current_obs()
    metrics = obs.metrics
    tracer = obs.tracer
    m_points = metrics.counter("sweep.points_run")

    def notify(index: int, label: str, status: str) -> None:
        if progress is not None:
            progress(PointProgress(index, label, status, total))

    results: "list[PointResult | None]" = [None] * len(points)
    pending: "list[tuple[int, PointSpec]]" = []
    # Each spec's fingerprint, computed once for its get and its put.
    fingerprints: "dict[int, dict]" = {}
    for index, point in enumerate(points):
        if isinstance(point, PointSpec):
            if use_cache:
                fingerprints[index] = point_fingerprint(point)
                hit = cache.get(point, fingerprints[index])
                if hit is not None:
                    results[index] = hit
                    # Annotate the hit on the parent's own track: the
                    # point never reaches a worker, so this instant is
                    # its only footprint in a merged trace.
                    tracer.instant(
                        "sweep.cache_hit",
                        track="sweep",
                        label=point.label,
                        index=index,
                    )
                    notify(index, point.label, "cache-hit")
                    continue
            pending.append((index, point))
        else:
            # Inline points hold live objects; run them here, uncached.
            notify(index, point.label, "start")
            results[index] = run_inline(point)
            m_points.inc()
            notify(index, point.label, "done")

    if len(pending) <= 1 or jobs == 1:
        for index, spec in pending:
            notify(index, spec.label, "start")
            results[index] = run_point(spec)
            m_points.inc()
            if use_cache:
                cache.put(spec, results[index], fingerprints[index])
            notify(index, spec.label, "done")
        return results  # type: ignore[return-value]

    if pool is None:
        from repro.sweep.pool import shared_pool

        pool = shared_pool(jobs)
    chunks = _chunk_pending(pending, min(jobs, len(pending)))
    metrics.counter("sweep.pool.runs").inc()
    # When the parent bundle is live, ask workers to capture their own
    # spans/metrics per point and ship them back with the results.
    capture = obs.enabled
    futures = []
    for chunk in chunks:
        futures.append(
            pool.submit_chunk([spec for _, spec in chunk], capture=capture)
        )
        tracer.instant(
            "sweep.chunk_dispatched", track="sweep", size=len(chunk)
        )
        for index, spec in chunk:
            notify(index, spec.label, "start")
    # Collect in submission order: chunks are contiguous slices of the
    # input, so result ordering is decided by the input list, never by
    # completion order.
    for chunk, future in zip(chunks, futures):
        value = future.result()
        if capture:
            chunk_results, payloads = value
            for payload in payloads:
                obs.adopt_worker(payload)
        else:
            chunk_results = value
        for (index, spec), result in zip(chunk, chunk_results):
            results[index] = result
            m_points.inc()
            if use_cache:
                cache.put(spec, result, fingerprints[index])
            notify(index, spec.label, "done")
    return results  # type: ignore[return-value]
