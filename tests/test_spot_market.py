"""The seeded spot market: determinism, spikes, bid strategies."""

import numpy as np
import pytest

from repro.cloud.spot import BidStrategy, SpotMarketModel, SpotPriceTrace


def make_trace(seed=7, model=None, on_demand=0.68):
    return SpotPriceTrace(
        model or SpotMarketModel(), on_demand, np.random.default_rng(seed)
    )


class TestSpotPriceTrace:
    def test_same_seed_same_trace(self):
        a, b = make_trace(3), make_trace(3)
        times = [0.0, 900.0, 4500.0, 150.0, 9000.0]
        assert [a.price_at(t) for t in times] == [
            b.price_at(t) for t in times
        ]

    def test_query_order_does_not_change_the_trace(self):
        forward, backward = make_trace(11), make_trace(11)
        times = [float(i * 300) for i in range(20)]
        prices_forward = [forward.price_at(t) for t in times]
        prices_backward = [
            backward.price_at(t) for t in reversed(times)
        ]
        assert prices_forward == list(reversed(prices_backward))

    def test_piecewise_constant_within_interval(self):
        trace = make_trace(5)
        assert trace.price_at(0.0) == trace.price_at(299.9)

    def test_always_spiking_market_prices_above_bid(self):
        model = SpotMarketModel(spike_probability=1.0)
        trace = make_trace(model=model)
        expected = 0.68 * model.price_fraction * model.spike_multiplier
        # A spike lasts two intervals, then the market gets one calm
        # interval before (with probability 1 here) the next one starts:
        # spike, spike, gap, spike, spike, gap, ...
        for t in (0.0, 300.0, 900.0, 1200.0):
            assert trace.price_at(t) == pytest.approx(expected)
        assert trace.price_at(0.0) > BidStrategy.spot().bid_price(0.68)
        assert trace.price_at(600.0) < expected  # the gap interval

    def test_calm_market_never_exceeds_on_demand(self):
        model = SpotMarketModel(spike_probability=0.0)
        trace = make_trace(model=model)
        for i in range(50):
            assert trace.price_at(i * 300.0) <= 0.68

    def test_next_change_after(self):
        trace = make_trace()
        assert trace.next_change_after(0.0) == 300.0
        assert trace.next_change_after(299.9) == 300.0
        assert trace.next_change_after(300.0) == 600.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            make_trace().price_at(-1.0)


class TestBidStrategy:
    def test_mixed_degenerates_at_extremes(self):
        assert BidStrategy.mixed(0.0).kind == "on-demand"
        assert BidStrategy.mixed(1.0).kind == "spot"
        assert BidStrategy.mixed(0.5).kind == "mixed"

    def test_split(self):
        assert BidStrategy.on_demand().split(5) == (0, 5)
        assert BidStrategy.spot().split(5) == (5, 0)
        assert BidStrategy.mixed(0.5).split(5) == (2, 3)
        assert BidStrategy.mixed(0.75).split(4) == (3, 1)

    def test_bid_price(self):
        assert BidStrategy.spot(bid_multiplier=0.4).bid_price(0.68) == (
            pytest.approx(0.272)
        )

    def test_uses_spot(self):
        assert not BidStrategy.on_demand().uses_spot
        assert BidStrategy.spot().uses_spot
        assert BidStrategy.mixed(0.3).uses_spot

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            BidStrategy(kind="futures")
        with pytest.raises(ValueError, match="spot_fraction"):
            BidStrategy(kind="mixed", spot_fraction=1.5)
        with pytest.raises(ValueError, match="bid_multiplier"):
            BidStrategy(kind="spot", spot_fraction=1.0, bid_multiplier=0.0)

    @pytest.mark.parametrize("fraction", [-2.0, -0.01, 1.01, 7.0, float("nan")])
    def test_mixed_rejects_a_fraction_outside_0_1(self, fraction):
        # mixed() used to clamp: 7 gave an all-spot pool, -2 all on-demand.
        with pytest.raises(ValueError, match="spot_fraction"):
            BidStrategy.mixed(fraction)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("multiplier", [-1.0, 0.0, float("nan")])
    def test_bad_bid_multiplier_rejected_at_any_fraction(
        self, fraction, multiplier
    ):
        # mixed(0) returned on_demand() before looking at the bid, and
        # ``<= 0`` let NaN through.
        with pytest.raises(ValueError, match="bid_multiplier"):
            BidStrategy.mixed(fraction, bid_multiplier=multiplier)
        with pytest.raises(ValueError, match="bid_multiplier"):
            BidStrategy(kind="mixed", spot_fraction=0.5,
                        bid_multiplier=multiplier)


def test_price_fraction_anchored_to_the_price_book():
    from repro.cloud.pricing import AWS_PRICES

    assert SpotMarketModel().price_fraction == (
        AWS_PRICES.spot_discount_fraction
    )
    assert AWS_PRICES.spot_baseline(0.68) == pytest.approx(
        0.68 * AWS_PRICES.spot_discount_fraction
    )


def test_model_validation():
    with pytest.raises(ValueError):
        SpotMarketModel(price_fraction=0.0)
    with pytest.raises(ValueError):
        SpotMarketModel(spike_probability=1.5)
    with pytest.raises(ValueError):
        SpotMarketModel(interval_s=0.0)
    with pytest.raises(ValueError):
        SpotMarketModel(spike_multiplier=0.5)
