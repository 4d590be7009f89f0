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
from itertools import product
from typing import Iterable, Sequence

from repro.autoscale.plan import AutoscalePlan
from repro.autoscale.policies import default_policy
from repro.cloud.spot import BidStrategy, SpotMarketModel
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.core.experiment import _grid_rows
from repro.core.report import format_table, serialize_rows
from repro.sweep import point_for
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
    grid = list(product(apps, policies, map(float, spot_fractions)))

    def point_of(cell):
        app_name, policy_name, fraction = cell
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
            seed=seed,
            autoscale=plan,
        )
        return point_for(
            get_application(app_name),
            backend,
            study_task_specs(app_name, n_files),
        )

    def values(cell, result):
        app_name, policy_name, fraction = cell
        return {
            "app": app_name,
            "policy": policy_name,
            "bid": BidStrategy.mixed(fraction).label,
            "spot_fraction": fraction,
            **{
                name: result.extras.get(f"autoscale_{name}", 0.0)
                for name in ("preemptions", "spot_unavailable",
                             "instances_added", "instances_removed",
                             "peak_instances")
            },
        }

    return _grid_rows(
        AutoscaleStudyRow, grid, point_of, values, jobs=jobs, cache=cache
    )


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
