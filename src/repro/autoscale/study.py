"""The autoscaling cost-vs-makespan frontier study.

For each application (Cap3 / BLAST / GTM), scaling policy and spot
fraction, run one elastic deployment and record where it lands on the
cost-vs-makespan plane.  The paper's static deployments price
everything at on-demand rates; this study quantifies the trade the
spot market offers instead: spot-heavy pools are markedly cheaper but
slower and noisier, because every price spike above the bid preempts
their instances and the interrupted tasks must wait out the visibility
timeout before another worker re-executes them.

Every point routes through :mod:`repro.sweep` — the runs fan out over
worker processes and land in the content-addressed result cache — and
everything is seeded, so the same seed reproduces the same frontier
byte for byte, preemption timing included.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from repro.autoscale.plan import AutoscalePlan
from repro.autoscale.policies import default_policy
from repro.cloud.failures import FaultPlan
from repro.cloud.spot import BidStrategy, SpotMarketModel
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.core.report import format_table, serialize_rows
from repro.sweep import point_for, run_points
from repro.workloads import study_task_specs

__all__ = [
    "AutoscaleStudyRow",
    "STUDY_MARKET",
    "autoscale_study",
    "render_frontier",
    "serialize_rows",
]

#: The market the study (and its figure) plays: livelier than the
#: :class:`~repro.cloud.spot.SpotMarketModel` defaults so study-sized
#: runs reliably see price spikes — and therefore preemptions.
STUDY_MARKET = SpotMarketModel(spike_probability=0.25, interval_s=120.0)

DEFAULT_APPS = ("cap3", "blast", "gtm")
DEFAULT_POLICIES = ("target-tracking", "step")
DEFAULT_SPOT_FRACTIONS = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class AutoscaleStudyRow:
    """One elastic deployment's landing spot on the frontier."""

    app: str
    policy: str
    bid: str
    spot_fraction: float
    makespan_s: float
    total_cost: float
    amortized_cost: float
    preemptions: float
    spot_unavailable: float
    instances_added: float
    instances_removed: float
    peak_instances: float

    def to_dict(self) -> dict:
        return asdict(self)


def autoscale_study(
    apps: Sequence[str] = DEFAULT_APPS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    spot_fractions: Iterable[float] = DEFAULT_SPOT_FRACTIONS,
    *,
    n_files: int = 128,
    n_instances: int = 2,
    max_instances: int = 8,
    seed: int = 17,
    market: SpotMarketModel = STUDY_MARKET,
    jobs: "int | None" = None,
    cache=None,
) -> list[AutoscaleStudyRow]:
    """Run the frontier sweep and return one row per deployment.

    Row order is the ``apps x policies x spot_fractions`` product
    order, never worker completion order.
    """
    grid = [
        (app_name, policy_name, float(fraction))
        for app_name in apps
        for policy_name in policies
        for fraction in spot_fractions
    ]
    points = []
    for app_name, policy_name, fraction in grid:
        plan = AutoscalePlan(
            policy=default_policy(policy_name),
            min_instances=1,
            max_instances=max_instances,
            bid=BidStrategy.mixed(fraction),
            spot_market=market,
        )
        backend = make_backend(
            "ec2",
            n_instances=n_instances,
            workers_per_instance=8,
            fault_plan=FaultPlan.none(),
            seed=seed,
            autoscale=plan,
        )
        points.append(
            point_for(
                get_application(app_name),
                backend,
                study_task_specs(app_name, n_files),
            )
        )
    results = run_points(points, jobs=jobs, cache=cache)
    rows = []
    for (app_name, policy_name, fraction), result in zip(grid, results):
        extras = result.extras
        rows.append(
            AutoscaleStudyRow(
                app=app_name,
                policy=policy_name,
                bid=BidStrategy.mixed(fraction).label,
                spot_fraction=fraction,
                makespan_s=result.makespan_s,
                total_cost=result.total_cost,
                amortized_cost=result.amortized_cost,
                preemptions=extras.get("autoscale_preemptions", 0.0),
                spot_unavailable=extras.get("autoscale_spot_unavailable", 0.0),
                instances_added=extras.get("autoscale_instances_added", 0.0),
                instances_removed=extras.get(
                    "autoscale_instances_removed", 0.0
                ),
                peak_instances=extras.get("autoscale_peak_instances", 0.0),
            )
        )
    return rows


def render_frontier(rows: Sequence[AutoscaleStudyRow]) -> str:
    """The frontier as a printable table (the figure surface)."""
    return format_table(
        ["app", "policy", "bid", "makespan (s)", "cost $", "amortized $",
         "preempt", "peak"],
        [
            [r.app, r.policy, r.bid, f"{r.makespan_s:,.0f}",
             f"{r.total_cost:.2f}", f"{r.amortized_cost:.2f}",
             f"{r.preemptions:.0f}", f"{r.peak_instances:.0f}"]
            for r in rows
        ],
        title="Autoscale study: cost vs makespan frontier",
    )
