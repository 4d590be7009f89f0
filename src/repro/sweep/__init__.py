"""repro.sweep — process-parallel sweep execution with result caching.

Every figure in the paper is a sweep: instance types x backends x
workload sizes, each point an independent deterministic simulation —
pleasingly parallel in exactly the paper's sense.  This package makes
the reproduction harness exploit that itself:

* :mod:`repro.sweep.points` — declarative, picklable sweep points
  (``PointSpec``) that rebuild their simulator inside worker
  processes, and the plain-data ``PointResult`` they produce;
* :mod:`repro.sweep.runner` — :func:`run_points`: fan the points out
  in per-worker chunks (``--jobs`` / ``REPRO_JOBS``, default
  ``os.cpu_count()``) with deterministic result ordering;
* :mod:`repro.sweep.pool` — :class:`SweepPool`: the persistent,
  lazily-started worker pool those chunks (and serve fleet points)
  execute on, reused across ``run_points`` calls, studies, and the
  bench suite;
* :mod:`repro.sweep.cache` — the one content-addressed store under
  ``.repro-cache/``; its result face keys each point by app +
  perf-model + backend config + task digest + version salt, and the
  workload artifact store shares it (``REPRO_NO_CACHE`` escape hatch);
* :mod:`repro.sweep.bench` — ``python -m repro bench``: kernel
  microbenchmarks and per-app sweep timings, written to ``BENCH_*.json``.
"""

from repro.sweep.cache import CacheStats, ResultCache, default_cache
from repro.sweep.fingerprint import CACHE_SALT, point_fingerprint, task_digest
from repro.sweep.points import PointResult, PointSpec, point_for, run_point
from repro.sweep.pool import SweepPool, shared_pool, shutdown_shared_pool
from repro.sweep.runner import resolve_jobs, run_points

__all__ = [
    "CACHE_SALT",
    "CacheStats",
    "PointResult",
    "PointSpec",
    "ResultCache",
    "SweepPool",
    "default_cache",
    "point_fingerprint",
    "point_for",
    "resolve_jobs",
    "run_point",
    "run_points",
    "shared_pool",
    "shutdown_shared_pool",
    "task_digest",
]
