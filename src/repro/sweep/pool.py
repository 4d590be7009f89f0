"""Persistent worker pool for parallel sweeps.

The old runner paid a fresh ``ProcessPoolExecutor`` spawn — interpreter
start, ``repro`` import, pickle round-trips — for *every* ``run_points``
call, which is why BENCH_2 measured parallel sweeps *slower* than serial
on small point counts.  :class:`SweepPool` amortizes that cost: workers
are spawned lazily on the first submission, warmed by an initializer
that pre-imports the heavy ``repro`` modules, and then reused across
``run_points`` calls, studies, the serve frontier and the bench suite.
It is the only process pool in the package.

:meth:`SweepPool.submit` runs any picklable ``fn(*args)`` on a worker;
:meth:`SweepPool.submit_chunk` goes through it with a list of
:class:`~repro.sweep.points.PointSpec`, so each chunk crosses the
process boundary as one pickle, one future, and one result message
instead of n of each.

Workers inherit ``REPRO_SANITIZE`` when they spawn.  A pool whose
workers were spawned under a different sanitizer setting than the
parent's at submission time is recycled first, so every point runs the
way the parent asked — sanitized or plain — whenever the pool was
warmed.

Lifecycle: ``close()`` or use the pool as a context manager.  Most code
should go through :func:`shared_pool`, a process-wide singleton that is
recycled automatically when the requested worker count changes and torn
down at interpreter exit.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Sequence

from repro.obs.context import current as _current_obs
from repro.obs.context import run_captured
from repro.sim.engine import sanitize_requested
from repro.sweep.points import PointSpec, run_point

__all__ = ["SweepPool", "shared_pool", "shutdown_shared_pool"]


def _warm_worker() -> None:
    """Run once in every worker at spawn: pull the heavy imports forward
    so the first real point does not pay them.

    Under the default ``fork`` start method the modules are inherited
    from the parent anyway; under ``spawn``/``forkserver`` this is where
    the import cost is paid, once per worker instead of once per task.
    """
    import repro.apps.perfmodels  # noqa: F401
    import repro.classiccloud.framework  # noqa: F401
    import repro.core.backends  # noqa: F401
    import repro.sweep.points  # noqa: F401
    import repro.workloads.genome  # noqa: F401
    import repro.workloads.protein  # noqa: F401
    import repro.workloads.pubchem  # noqa: F401


def _run_chunk(specs: "list[PointSpec]", capture: bool = False):
    """Worker-side entry point: execute one chunk of specs in order.

    With ``capture=False`` (the default) returns a plain list of
    :class:`~repro.sweep.points.PointResult`.  With ``capture=True`` —
    set when the parent's observability bundle is live — each point runs
    under its own private bundle (see :func:`repro.obs.context.
    run_captured`) and the return value is ``(results, payloads)``,
    where each payload is the picklable capture the parent merges into
    its trace.
    """
    if not capture:
        return [run_point(spec) for spec in specs]
    pairs = [run_captured(spec.label, run_point, spec) for spec in specs]
    return [result for result, _ in pairs], [payload for _, payload in pairs]


class SweepPool:
    """A lazily-started, reusable process pool for sweep points.

    The underlying ``ProcessPoolExecutor`` is created on the first
    :meth:`submit` call, not in ``__init__``, so building a pool object
    is free and serial code paths never spawn processes.
    """

    def __init__(self, workers: int):
        if not isinstance(workers, int) or isinstance(workers, bool):
            raise TypeError(f"workers must be an int, got {workers!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: "ProcessPoolExecutor | None" = None
        self._sanitized = False  # REPRO_SANITIZE as the workers saw it
        self._lock = threading.Lock()
        self.spawns = 0  # cold executor starts over this pool's lifetime
        self.submissions = 0  # calls submitted
        self.reuses = 0  # submissions that found the executor already warm

    # -- lifecycle --------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        sanitized = "sim" in sanitize_requested()
        stale = None
        with self._lock:
            if self._executor is not None and self._sanitized != sanitized:
                # Workers spawned under the other sanitizer setting.
                stale, self._executor = self._executor, None
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_warm_worker
                )
                self._sanitized = sanitized
                self.spawns += 1
                _current_obs().metrics.counter("sweep.pool.spawns").inc()
            else:
                self.reuses += 1
                _current_obs().metrics.counter("sweep.pool.reuses").inc()
            executor = self._executor
        if stale is not None:
            stale.shutdown(wait=True)
        return executor

    @property
    def started(self) -> bool:
        return self._executor is not None

    def close(self) -> None:
        """Shut the workers down; the pool restarts lazily if reused."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- dispatch ---------------------------------------------------------
    def submit(self, fn: Callable, *args: object) -> "Future":
        """Run ``fn(*args)`` on a warm worker; ``fn`` and ``args`` must
        pickle.  A broken or shut-down executor is recycled once and the
        submission retried."""
        executor = self._ensure_executor()
        self.submissions += 1
        try:
            return executor.submit(fn, *args)
        except RuntimeError:
            self.close()
            return self._ensure_executor().submit(fn, *args)

    def submit_chunk(
        self, specs: Sequence[PointSpec], capture: bool = False
    ) -> "Future":
        """Submit one chunk; the future resolves to a list of
        :class:`~repro.sweep.points.PointResult` in the chunk's order (or
        to ``(results, payloads)`` when ``capture`` is set — see
        :func:`_run_chunk`)."""
        metrics = _current_obs().metrics
        metrics.counter("sweep.pool.chunks").inc()
        metrics.counter("sweep.pool.chunk_points").inc(len(specs))
        return self.submit(_run_chunk, list(specs), capture)

    def stats(self) -> "dict[str, int]":
        return {
            "workers": self.workers,
            "spawns": self.spawns,
            "submissions": self.submissions,
            "reuses": self.reuses,
        }


_shared: "SweepPool | None" = None
_shared_lock = threading.Lock()


def shared_pool(workers: int) -> SweepPool:
    """The process-wide pool, recycled when ``workers`` changes.

    Successive ``run_points`` calls (and whole studies, serve frontiers
    and bench suites) asking for the same worker count get the *same*
    warm pool back; asking for a different count closes the old pool and
    starts fresh.  A ``REPRO_SANITIZE`` change recycles the workers at
    the next submission (see :meth:`SweepPool.submit`).
    """
    global _shared
    with _shared_lock:
        if _shared is not None and _shared.workers != workers:
            stale, _shared = _shared, None
        else:
            stale = None
    if stale is not None:
        stale.close()
    with _shared_lock:
        if _shared is None:
            _shared = SweepPool(workers)
        return _shared


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (no-op when none was ever started)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.close()


atexit.register(shutdown_shared_pool)
