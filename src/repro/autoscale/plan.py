"""The :class:`AutoscalePlan`: one deployment's elasticity contract.

A plan is plain frozen data — exactly like
:class:`~repro.classiccloud.framework.ClassicCloudConfig`, which embeds
it — so autoscaled runs remain picklable sweep points and their results
remain content-addressable in the :mod:`repro.sweep` cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.autoscale.policies import StepScalingPolicy, TargetTrackingPolicy
from repro.cloud.spot import BidStrategy, SpotMarketModel

__all__ = ["AutoscalePlan"]


@dataclass(frozen=True)
class AutoscalePlan:
    """Everything the autoscale controller needs to run a pool.

    ``ClassicCloudConfig.n_instances`` becomes the *initial* pool size
    (clamped into ``[min_instances, max_instances]``); from then on the
    policy decides, the bid strategy says which market to buy from, and
    ``billing`` selects the accounting rule for every instance the
    controller manages (initial fleet included).  The controller
    evaluates the policy every 30 s with a 60 s scale-up and a 120 s
    scale-down cooldown, and polls a draining instance every second.
    """

    policy: "TargetTrackingPolicy | StepScalingPolicy" = field(
        default_factory=TargetTrackingPolicy
    )
    min_instances: int = 1
    max_instances: int = 16
    bid: BidStrategy = field(default_factory=BidStrategy.on_demand)
    spot_market: SpotMarketModel = field(default_factory=SpotMarketModel)
    billing: str = "hourly"  # "hourly" | "per-second"

    def __post_init__(self) -> None:
        if self.min_instances < 1:
            raise ValueError("min_instances must be >= 1")
        if self.max_instances < self.min_instances:
            raise ValueError("max_instances must be >= min_instances")
        if self.billing not in ("hourly", "per-second"):
            raise ValueError(f"unknown billing mode {self.billing!r}")

    def clamp(self, n: int) -> int:
        """Force an instance count into the plan's bounds."""
        return max(self.min_instances, min(self.max_instances, n))

    @property
    def label(self) -> str:
        return f"{self.policy.label} / {self.bid.label}"
