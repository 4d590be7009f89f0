"""The one-call public API.

::

    from repro.core.api import run
    from repro.core.application import get_application
    from repro.workloads.genome import cap3_task_specs

    app = get_application("cap3")
    tasks = cap3_task_specs(n_files=200, reads_per_file=200)
    result = run(app, tasks, backend="ec2", n_instances=2)
    print(result.makespan_seconds, result.billing.total_cost)
"""

from __future__ import annotations

from repro.core.application import Application
from repro.core.backends import Backend, make_backend
from repro.core.task import RunResult, TaskSpec

__all__ = ["evaluate", "run"]


def _resolve(backend: "str | Backend", backend_kwargs: dict) -> Backend:
    """Build a named backend, or pass a built one through (no kwargs)."""
    if isinstance(backend, str):
        return make_backend(backend, **backend_kwargs)
    if backend_kwargs:
        raise TypeError(
            "backend kwargs are only accepted with a backend name, "
            "not a pre-built backend instance"
        )
    return backend


def run(
    app: Application,
    tasks: list[TaskSpec],
    backend: "str | Backend" = "ec2",
    **backend_kwargs,
) -> RunResult:
    """Run ``tasks`` through ``app`` on the chosen backend.

    ``backend`` is a registry name (``ec2``, ``azure``, ``hadoop``,
    ``dryadlinq``, ``local``) with optional configuration kwargs, or a
    pre-built :class:`~repro.core.backends.Backend` instance.
    """
    return _resolve(backend, backend_kwargs).run(app, tasks)


def evaluate(
    app: Application,
    tasks: list[TaskSpec],
    backend: "str | Backend" = "ec2",
    **backend_kwargs,
) -> dict[str, float]:
    """Run and compute the paper's metrics in one call.

    Returns makespan, T1, parallel efficiency (Eq. 1) and the average
    time per file per core (Eq. 2).  ``backend`` is as for :func:`run`.
    """
    # Deferred: repro.sweep (and its process pool) stays out of
    # ``import repro``.
    from repro.sweep.points import InlinePoint, run_inline

    backend = _resolve(backend, backend_kwargs)
    r = run_inline(InlinePoint(app, backend, list(tasks), backend.name))
    return {
        "makespan_seconds": r.makespan_s,
        "t1_seconds": r.t1_s,
        "cores": float(r.cores),
        "parallel_efficiency": r.efficiency,
        "avg_time_per_file_per_core": r.per_file_per_core_s,
    }
