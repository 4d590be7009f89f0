"""Tests for the seeded chaos schedule (repro.chaos.plan)."""

import json

import pytest

from repro.chaos import ChaosEvent, ChaosPlan


class TestCompile:
    def test_same_seed_same_bytes(self):
        a = ChaosPlan.at_intensity(1.0, seed=7, horizon_s=300.0)
        b = ChaosPlan.at_intensity(1.0, seed=7, horizon_s=300.0)
        assert a.compile() == b.compile()
        assert a.events_json() == b.events_json()

    def test_different_seed_different_schedule(self):
        a = ChaosPlan.at_intensity(1.0, seed=1, horizon_s=300.0)
        b = ChaosPlan.at_intensity(1.0, seed=2, horizon_s=300.0)
        assert a.events_json() != b.events_json()

    def test_events_sorted_and_within_horizon(self):
        plan = ChaosPlan.at_intensity(2.0, seed=3, horizon_s=120.0)
        events = plan.compile()
        assert len(events) == plan.total_events > 0
        times = [e.at_s for e in events]
        assert times == sorted(times)
        assert all(0.0 <= t < 120.0 for t in times)

    def test_compile_is_pure(self):
        plan = ChaosPlan.at_intensity(1.0, seed=5)
        first = plan.compile()
        assert plan.compile() == first  # no hidden state between calls

    def test_events_json_round_trips(self):
        plan = ChaosPlan.at_intensity(1.0, seed=9)
        payload = json.loads(plan.events_json())
        assert len(payload) == plan.total_events
        assert all(
            set(e) == {"at_s", "kind", "target", "duration_s", "magnitude"}
            for e in payload
        )

    def test_event_to_dict(self):
        event = ChaosEvent(at_s=1.5, kind="worker_crash", target=42)
        assert event.to_dict() == {
            "at_s": 1.5,
            "kind": "worker_crash",
            "target": 42,
            "duration_s": 0.0,
            "magnitude": 0.0,
        }


class TestIntensityPresets:
    def test_zero_intensity_is_fault_free(self):
        plan = ChaosPlan.at_intensity(0.0, seed=11)
        assert plan.total_events == 0
        assert plan.compile() == ()
        assert json.loads(plan.events_json()) == []

    def test_unit_intensity_covers_every_family(self):
        plan = ChaosPlan.at_intensity(1.0, seed=11)
        kinds = {e.kind for e in plan.compile()}
        assert kinds == {
            "worker_crash",
            "preemption_wave",
            "queue_chaos",
            "storage_chaos",
            "slow_node",
        }

    def test_intensity_scales_event_counts(self):
        one = ChaosPlan.at_intensity(1.0, seed=11)
        three = ChaosPlan.at_intensity(3.0, seed=11)
        assert three.total_events > one.total_events
        assert three.worker_crashes == 9

    def test_probabilities_are_capped(self):
        plan = ChaosPlan.at_intensity(100.0, seed=11)
        assert plan.queue_miss_probability <= 0.5
        assert plan.storage_error_rate <= 0.8

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan.at_intensity(-0.1)


class TestValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            ChaosPlan(horizon_s=0.0)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            ChaosPlan(worker_crashes=-1)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            ChaosPlan(preemption_fraction=0.0)
        with pytest.raises(ValueError):
            ChaosPlan(slow_factor=1.5)
