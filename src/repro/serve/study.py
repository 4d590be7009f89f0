"""The sustained-load cost-vs-latency frontier study.

For each fleet size, run one sustained-traffic window of the default
three-tenant mix (Cap3 Poisson, BLAST bursts, GTM diurnal) and record
where the deployment lands: per-tenant p50/p95/p99 latency against the
tenant's SLO, and dollars per thousand completed jobs.  Small fleets
are cheap per hour but miss SLOs and shed load; big fleets hit every
SLO and waste idle capacity — the frontier quantifies the trade the
paper's static batch sizing never sees.

Fleet points are independent seeded simulations, so the study fans them
out over the shared :class:`~repro.sweep.pool.SweepPool` that
:mod:`repro.sweep` fans sweep points out over; results are ordered by
the fleet-size grid, never by completion order, so any job count yields
byte-identical tables.  Under a live observability bundle every fleet
runs in a private bundle labelled ``serve-fleet-N`` — in a worker or,
at one job, in-process — and the parent adopts it, so the merged trace
has one capture per fleet at any job count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

from repro.autoscale.plan import AutoscalePlan
from repro.core.experiment import _project
from repro.core.report import format_table, serialize_rows
from repro.obs.context import current, run_captured
from repro.serve.service import ServeConfig, ServeResult, run_serve
from repro.serve.tenants import TenantSpec
from repro.sweep.pool import shared_pool
from repro.sweep.runner import resolve_jobs

__all__ = [
    "ServeStudyRow",
    "default_tenants",
    "frontier_rows",
    "serve_study",
    "render_frontier",
    "serialize_rows",
]

DEFAULT_FLEET_SIZES = (1, 2, 4)


def default_tenants() -> "tuple[TenantSpec, ...]":
    """The study's three-tenant mix — one per paper application.

    Rates sum to ~0.85 jobs/s, which saturates a single HCXL instance,
    comfortably fits two, and leaves four mostly idle: the three fleet
    points of :data:`DEFAULT_FLEET_SIZES` straddle the interesting part
    of the frontier.
    """
    return (
        TenantSpec(
            name="genomics",
            app="cap3",
            arrival="poisson",
            rate_per_s=0.40,
            weight=3.0,
            quota=64,
            slo_p95_s=60.0,
        ),
        TenantSpec(
            name="proteomics",
            app="blast",
            arrival="burst",
            rate_per_s=0.15,
            weight=2.0,
            quota=48,
            burst_factor=4.0,
            burst_duty=0.25,
            period_s=240.0,
            slo_p95_s=240.0,
        ),
        TenantSpec(
            name="chemistry",
            app="gtm",
            arrival="diurnal",
            rate_per_s=0.30,
            weight=1.0,
            quota=48,
            period_s=600.0,
            diurnal_amplitude=0.8,
            slo_p95_s=90.0,
        ),
    )


@dataclass(frozen=True)
class ServeStudyRow:
    """One (fleet size, tenant) cell of the frontier."""

    fleet: int
    tenant: str
    app: str
    arrival: str
    submitted: int
    admitted: int
    shed: int
    completed: int
    abandoned: int
    p50_s: "float | None"
    p95_s: "float | None"
    p99_s: "float | None"
    slo_p95_s: float
    slo_ok: "bool | None"
    makespan_s: float
    total_cost: float
    cost_per_1k_jobs: "float | None"

    def to_dict(self) -> dict:
        return asdict(self)


def _run_point(config: ServeConfig, capture: bool = False):
    """Run one fleet point and drop its bulky records; with ``capture``,
    under a private bundle, returning ``(result, payload)``."""
    if capture:
        label = f"serve-fleet-{config.n_instances}"
        return run_captured(label, _run_point, config)
    return replace(run_serve(config), records=[])


def serve_study(
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
    tenants: "tuple[TenantSpec, ...] | None" = None,
    *,
    provider: str = "aws",
    instance_type: str = "HCXL",
    workers_per_instance: int = 8,
    duration_s: float = 600.0,
    seed: int = 42,
    autoscale: "AutoscalePlan | None" = None,
    jobs: "int | None" = None,
) -> "tuple[list[ServeStudyRow], list[ServeResult]]":
    """Run the frontier and return (rows, one result per fleet size).

    Row order is the ``fleet_sizes x tenants`` product order, never
    worker completion order, so any ``jobs`` count serialises
    identically.  At ``jobs > 1`` the fleets run on the shared
    :class:`~repro.sweep.pool.SweepPool`.  Under a live bundle each
    fleet runs in a private ``serve-fleet-N`` bundle that the current
    bundle adopts, in fleet order.
    """
    if tenants is None:
        tenants = default_tenants()
    configs = [
        ServeConfig(
            tenants=tenants,
            provider=provider,
            instance_type=instance_type,
            n_instances=n,
            workers_per_instance=workers_per_instance,
            duration_s=duration_s,
            seed=seed,
            autoscale=autoscale,
        )
        for n in fleet_sizes
    ]
    n_jobs = min(resolve_jobs(jobs), len(configs))
    obs = current()
    capture = obs.enabled
    if n_jobs <= 1:
        results = [_run_point(config, capture) for config in configs]
    else:
        pool = shared_pool(n_jobs)
        futures = [pool.submit(_run_point, c, capture) for c in configs]
        results = [future.result() for future in futures]
    if capture:
        for _, payload in results:
            obs.adopt_worker(payload)
        results = [result for result, _ in results]
    return frontier_rows(results), results


def frontier_rows(results: "Sequence[ServeResult]") -> "list[ServeStudyRow]":
    """Flatten service results into (fleet, tenant) frontier rows."""
    return [
        _project(
            ServeStudyRow, stats, result,
            fleet=result.n_instances, tenant=stats.name,
        )
        for result in results
        for stats in result.tenants
    ]


def _fmt(value: "float | None", spec: str = ".1f") -> str:
    return "-" if value is None else format(value, spec)


def render_frontier(rows: Sequence[ServeStudyRow]) -> str:
    """The frontier as a printable table (the figure surface)."""
    return format_table(
        [
            "fleet", "tenant", "app", "arrival", "submitted", "shed",
            "completed", "p50 s", "p95 s", "p99 s", "SLO s", "SLO met",
            "$ / 1k jobs",
        ],
        [
            [
                r.fleet, r.tenant, r.app, r.arrival, r.submitted, r.shed,
                r.completed, _fmt(r.p50_s), _fmt(r.p95_s), _fmt(r.p99_s),
                f"{r.slo_p95_s:.0f}",
                "-" if r.slo_ok is None else ("yes" if r.slo_ok else "NO"),
                _fmt(r.cost_per_1k_jobs, ".2f"),
            ]
            for r in rows
        ],
        title="Serve study: sustained-load cost vs latency frontier",
    )
