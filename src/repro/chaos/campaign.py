"""The chaos campaign: fault intensity x mitigation resilience study.

For each application, fault intensity and mitigation setting, play one
Classic Cloud run under a seeded :class:`~repro.chaos.plan.ChaosPlan`
and measure what resilience cost: makespan inflation against the
fault-free baseline, mean time to recovery, the fraction of compute
spent on redundant (lost or duplicate) executions, and goodput.

Every cell routes through :mod:`repro.sweep` — points fan out over
worker processes and land in the content-addressed result cache — and
everything is seeded, so the same campaign reproduces the same report
byte for byte (``jobs=1`` and ``jobs=8`` included).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from repro.chaos.plan import ChaosPlan
from repro.chaos.retry import RetryPolicy
from repro.chaos.speculation import SpeculationPolicy
from repro.core.report import format_table, serialize_rows

__all__ = [
    "CAMPAIGN_MITIGATIONS",
    "ChaosStudyRow",
    "chaos_point",
    "chaos_study",
    "mitigation_settings",
    "render_resilience",
    "serialize_rows",
]

#: The sweepable mitigation axis, least to most defended.
CAMPAIGN_MITIGATIONS = ("none", "retry", "speculation", "retry+speculation")

#: The campaign's retry stance: budget-capped exponential backoff with
#: full jitter on every queue/storage client.
CAMPAIGN_RETRY = RetryPolicy(
    attempts=6, base_delay_s=0.5, max_delay_s=15.0, jitter="full"
)

DEFAULT_APPS = ("cap3",)
DEFAULT_INTENSITIES = (0.0, 0.5, 1.0)


def mitigation_settings(
    mitigation: str,
) -> "tuple[RetryPolicy | None, SpeculationPolicy | None]":
    """Map a mitigation label onto (retry_policy, speculation)."""
    if mitigation not in CAMPAIGN_MITIGATIONS:
        raise KeyError(
            f"unknown mitigation {mitigation!r}; "
            f"known: {CAMPAIGN_MITIGATIONS}"
        )
    retry = CAMPAIGN_RETRY if "retry" in mitigation else None
    speculation = (
        SpeculationPolicy() if "speculation" in mitigation else None
    )
    return retry, speculation


@dataclass(frozen=True)
class ChaosStudyRow:
    """One campaign cell: a deployment under one fault/mitigation mix."""

    app: str
    intensity: float
    mitigation: str
    makespan_s: float
    #: Makespan over the same app's fault-free unmitigated cell.
    makespan_inflation: float
    total_cost: float
    completed: float
    failed: float
    faults_injected: float
    mttr_s: float
    #: Fraction of total task-execution seconds spent on attempts whose
    #: result was discarded (redeliveries and losing backup copies).
    redundant_fraction: float
    speculative_launched: float
    speculative_wins: float
    #: Distinct completed tasks per simulated hour of makespan.
    goodput_tasks_per_hour: float

    def to_dict(self) -> dict:
        return asdict(self)


def chaos_point(
    app_name: str,
    intensity: float,
    mitigation: str,
    *,
    n_files: int,
    n_instances: int,
    workers_per_instance: int,
    seed: int,
    horizon_s: float,
):
    """The sweep point of one campaign cell (see :func:`chaos_study`).

    Raises :class:`ValueError` for a negative ``intensity``.
    """
    from repro.core.application import get_application
    from repro.core.backends import make_backend
    from repro.sweep import point_for
    from repro.workloads import study_task_specs

    if intensity < 0:
        raise ValueError(f"chaos intensity must be >= 0, got {intensity}")
    retry, speculation = mitigation_settings(mitigation)
    chaos = (
        ChaosPlan.at_intensity(intensity, seed=seed, horizon_s=horizon_s)
        if intensity > 0
        else None
    )
    backend = make_backend(
        "ec2",
        n_instances=n_instances,
        workers_per_instance=workers_per_instance,
        seed=seed,
        chaos=chaos,
        retry_policy=retry,
        speculation=speculation,
    )
    return point_for(
        get_application(app_name),
        backend,
        study_task_specs(app_name, n_files),
    )


def chaos_study(
    apps: Sequence[str] = DEFAULT_APPS,
    intensities: Iterable[float] = DEFAULT_INTENSITIES,
    mitigations: Sequence[str] = CAMPAIGN_MITIGATIONS,
    *,
    n_files: int = 48,
    n_instances: int = 2,
    workers_per_instance: int = 8,
    seed: int = 13,
    horizon_s: float = 240.0,
    jobs: "int | None" = None,
    cache=None,
) -> list[ChaosStudyRow]:
    """Run the campaign grid and return one row per cell.

    Row order is the ``apps x intensities x mitigations`` product order
    (with a fault-free unmitigated baseline cell prepended per app when
    the grid itself doesn't contain one), never worker completion
    order — a determinism requirement, like every study in this repo.
    """
    from repro.sweep import run_points

    grid = [
        (app_name, float(intensity), mitigation)
        for app_name in apps
        for intensity in intensities
        for mitigation in mitigations
    ]
    for app_name in apps:
        if (app_name, 0.0, "none") not in grid:
            grid.insert(0, (app_name, 0.0, "none"))

    points = [
        chaos_point(
            app_name,
            intensity,
            mitigation,
            n_files=n_files,
            n_instances=n_instances,
            workers_per_instance=workers_per_instance,
            seed=seed,
            horizon_s=horizon_s,
        )
        for app_name, intensity, mitigation in grid
    ]
    results = run_points(points, jobs=jobs, cache=cache)

    baseline_makespan = {
        key[0]: result.makespan_s
        for key, result in zip(grid, results)
        if key[1] == 0.0 and key[2] == "none"
    }
    rows = []
    for (app_name, intensity, mitigation), result in zip(grid, results):
        extras = result.extras
        makespan = result.makespan_s
        baseline = baseline_makespan[app_name]
        completed = extras.get("tasks_completed", float(result.n_tasks))
        rows.append(
            ChaosStudyRow(
                app=app_name,
                intensity=intensity,
                mitigation=mitigation,
                makespan_s=makespan,
                makespan_inflation=(
                    makespan / baseline if baseline > 0 else 0.0
                ),
                total_cost=result.total_cost,
                completed=completed,
                failed=extras.get("tasks_failed", 0.0),
                faults_injected=extras.get("chaos_faults_injected", 0.0),
                mttr_s=extras.get("chaos_mttr_s", 0.0),
                redundant_fraction=extras.get("redundant_fraction", 0.0),
                speculative_launched=extras.get("speculative_launched", 0.0),
                speculative_wins=extras.get("speculative_wins", 0.0),
                goodput_tasks_per_hour=(
                    completed / (makespan / 3600.0) if makespan > 0 else 0.0
                ),
            )
        )
    return rows


def render_resilience(rows: Sequence[ChaosStudyRow]) -> str:
    """The resilience report as a printable table (the figure surface)."""
    return format_table(
        ["app", "intensity", "mitigation", "makespan (s)", "inflation",
         "faults", "MTTR (s)", "redundant", "spec win/launch",
         "goodput/h"],
        [
            [r.app, f"{r.intensity:.2f}", r.mitigation,
             f"{r.makespan_s:,.0f}", f"{r.makespan_inflation:.2f}x",
             f"{r.faults_injected:.0f}", f"{r.mttr_s:.1f}",
             f"{r.redundant_fraction:.1%}",
             f"{r.speculative_wins:.0f}/{r.speculative_launched:.0f}",
             f"{r.goodput_tasks_per_hour:,.0f}"]
            for r in rows
        ],
        title="Chaos campaign: fault intensity vs mitigation",
    )
