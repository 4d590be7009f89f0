"""Deterministic spot-market price model and bid strategies.

The paper prices every run at on-demand rates; the cost axis of its
evaluation (Tables 1/2/4) therefore upper-bounds what an elastic pool
would pay.  This module adds the missing market: a seeded,
piecewise-constant spot-price trace per run (mean-reverting around a
fraction of the on-demand price, with occasional demand spikes above
it), and the bid strategies an autoscaling pool can follow.

Semantics follow the *classic* EC2 spot rules the paper's era used:

* an instance launches only while the market price is at or below the
  bid, and is **preempted** the moment the price rises above it;
* the market price is frozen per instance at launch time (re-pricing is
  deliberately not modelled — it would couple billing to query order);
* under hourly billing a *provider-initiated* preemption forgives the
  interrupted partial hour (:mod:`repro.cloud.billing`).

Everything is driven by one named RNG stream (``"spot-market"``) from
the run's :class:`~repro.sim.rng.RngRegistry`, and prices are generated
strictly in interval order regardless of query order, so a seed fully
determines the trace — preemption timing included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cloud.pricing import AWS_PRICES

__all__ = ["BidStrategy", "SpotMarketModel", "SpotPriceTrace"]


@dataclass(frozen=True)
class SpotMarketModel:
    """Parameters of the synthetic spot market for one instance type.

    Prices are expressed as *fractions of the on-demand price*.  The
    log-price follows a mean-reverting walk around ``price_fraction``;
    independently, each interval may start a demand spike that pushes
    the price to ``spike_multiplier`` times the long-run mean for
    ``spike_duration_intervals`` intervals — that is what preempts
    instances bid below it.
    """

    #: Long-run mean spot/on-demand ratio, anchored to the price book.
    price_fraction: float = AWS_PRICES.spot_discount_fraction
    volatility: float = 0.08  # std-dev of the per-interval log step
    reversion: float = 0.25  # pull toward the mean per interval
    spike_probability: float = 0.04  # per-interval chance a spike starts
    spike_multiplier: float = 4.0  # spike price / long-run mean
    spike_duration_intervals: int = 2
    interval_s: float = 300.0  # price-change granularity

    def __post_init__(self) -> None:
        if not 0.0 < self.price_fraction:
            raise ValueError("price_fraction must be positive")
        if self.volatility < 0 or not 0.0 <= self.reversion <= 1.0:
            raise ValueError("volatility >= 0 and 0 <= reversion <= 1")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ValueError("spike_probability must be a probability")
        if self.spike_multiplier < 1.0 or self.spike_duration_intervals < 1:
            raise ValueError("spikes must raise the price for >= 1 interval")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


class SpotPriceTrace:
    """A seeded piecewise-constant spot-price series.

    Interval ``i`` covers simulated time ``[i * interval_s,
    (i + 1) * interval_s)``.  Prices are materialized lazily but always
    *sequentially* (interval ``i`` consumes the RNG before ``i + 1``),
    so any query pattern sees the same trace for the same seed.
    """

    def __init__(
        self,
        model: SpotMarketModel,
        on_demand_price: float,
        rng: np.random.Generator,
    ):
        if on_demand_price <= 0:
            raise ValueError("on_demand_price must be positive")
        self.model = model
        self.on_demand_price = on_demand_price
        self.rng = rng
        self._fractions: list[float] = []
        self._log = math.log(model.price_fraction)
        self._spike_left = 0

    # -- generation -----------------------------------------------------------
    def _ensure(self, index: int) -> None:
        model = self.model
        mean_log = math.log(model.price_fraction)
        while len(self._fractions) <= index:
            step = float(self.rng.standard_normal()) * model.volatility
            self._log += model.reversion * (mean_log - self._log) + step
            if self._spike_left > 0:
                self._spike_left -= 1
            elif float(self.rng.random()) < model.spike_probability:
                self._spike_left = model.spike_duration_intervals
            if self._spike_left > 0:
                fraction = model.price_fraction * model.spike_multiplier
            else:
                fraction = min(math.exp(self._log), 1.0)
            self._fractions.append(fraction)

    def _interval(self, t: float) -> int:
        if t < 0:
            raise ValueError("time must be non-negative")
        return int(t // self.model.interval_s)

    # -- queries --------------------------------------------------------------
    def fraction_at(self, t: float) -> float:
        """Spot price at simulated time ``t`` as a fraction of on-demand."""
        index = self._interval(t)
        self._ensure(index)
        return self._fractions[index]

    def price_at(self, t: float) -> float:
        """Spot price in $/hour at simulated time ``t``."""
        return self.fraction_at(t) * self.on_demand_price

    def next_change_after(self, t: float) -> float:
        """The next interval boundary strictly after ``t``."""
        return (self._interval(t) + 1) * self.model.interval_s


@dataclass(frozen=True)
class BidStrategy:
    """How an elastic pool buys capacity.

    * ``"on-demand"`` — every instance at the on-demand price; never
      preempted.
    * ``"spot"`` — every instance bids ``bid_multiplier`` times the
      on-demand price; capacity is unavailable (the scale-up is skipped)
      while the market price exceeds the bid.
    * ``"mixed"`` — ``spot_fraction`` of each provisioning request goes
      to the spot market, the rest on-demand; unavailable spot capacity
      falls back to on-demand instead of being skipped.
    """

    kind: str = "on-demand"  # "on-demand" | "spot" | "mixed"
    spot_fraction: float = 0.0
    bid_multiplier: float = 0.5  # bid = bid_multiplier * on-demand price

    def __post_init__(self) -> None:
        if self.kind not in ("on-demand", "spot", "mixed"):
            raise ValueError(f"unknown bid strategy kind {self.kind!r}")
        if not 0.0 <= self.spot_fraction <= 1.0:
            raise ValueError("spot_fraction must be in [0, 1]")
        if self.bid_multiplier <= 0:
            raise ValueError("bid_multiplier must be positive")

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def on_demand() -> "BidStrategy":
        """All capacity at the on-demand price (the paper's setup)."""
        return BidStrategy(kind="on-demand", spot_fraction=0.0)

    @staticmethod
    def spot(bid_multiplier: float = 0.5) -> "BidStrategy":
        """All capacity from the spot market at the given bid."""
        return BidStrategy(
            kind="spot", spot_fraction=1.0, bid_multiplier=bid_multiplier
        )

    @staticmethod
    def mixed(
        spot_fraction: float, bid_multiplier: float = 0.5
    ) -> "BidStrategy":
        """``spot_fraction`` of the pool on spot, the rest on-demand."""
        if not 0.0 <= spot_fraction <= 1.0:
            raise ValueError("spot_fraction must be in [0, 1]")
        if spot_fraction <= 0.0:
            return BidStrategy.on_demand()
        if spot_fraction >= 1.0:
            return BidStrategy.spot(bid_multiplier)
        return BidStrategy(
            kind="mixed",
            spot_fraction=spot_fraction,
            bid_multiplier=bid_multiplier,
        )

    # -- queries --------------------------------------------------------------
    @property
    def spot_share(self) -> float:
        """Fraction of each provisioning request sent to the market."""
        return self.spot_fraction

    @property
    def uses_spot(self) -> bool:
        return self.kind != "on-demand" and self.spot_fraction > 0.0

    def bid_price(self, on_demand_price: float) -> float:
        """The absolute $/hour bid for this strategy."""
        return self.bid_multiplier * on_demand_price

    def split(self, count: int) -> tuple[int, int]:
        """Split a request for ``count`` instances into
        ``(n_spot, n_on_demand)`` according to ``spot_fraction``."""
        n_spot = int(round(count * self.spot_share))
        n_spot = max(0, min(count, n_spot))
        return n_spot, count - n_spot

    @property
    def label(self) -> str:
        if self.kind == "on-demand":
            return "on-demand"
        if self.kind == "spot":
            return f"spot(bid {self.bid_multiplier:g}x)"
        return f"mixed({self.spot_fraction:.0%} spot, bid {self.bid_multiplier:g}x)"
