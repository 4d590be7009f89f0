"""Elastic autoscaling: policies, the controller, and the study.

The heavyweight claims:

* scaling really adds/removes instances mid-run (and bills them);
* spot preemption loses no tasks — the completed set equals the
  fault-free run's set;
* the study frontier is deterministic byte-for-byte and shows
  spot-heavy pools cheaper but slower;
* results (including autoscale extras) survive the sweep cache.
"""

import pytest

from repro.autoscale import (
    AutoscalePlan,
    StepScalingPolicy,
    TargetTrackingPolicy,
    autoscale_study,
    default_policy,
    serialize_rows,
)
from repro.classiccloud.framework import (
    ClassicCloudConfig,
    ClassicCloudFramework,
)
from repro.cloud.spot import BidStrategy, SpotMarketModel
from repro.core.application import get_application
from repro.workloads.genome import cap3_task_specs

#: A lively market so short test runs reliably see price spikes.
SPIKY_MARKET = SpotMarketModel(spike_probability=0.5, interval_s=60.0)


def elastic_config(seed=5, n_instances=2, **plan_kwargs):
    plan_kwargs.setdefault("max_instances", 6)
    plan_kwargs.setdefault("spot_market", SPIKY_MARKET)
    return ClassicCloudConfig(
        provider="aws",
        instance_type="HCXL",
        n_instances=n_instances,
        workers_per_instance=8,
        seed=seed,
        autoscale=AutoscalePlan(**plan_kwargs),
    )


def run_cap3(config, n_files=96):
    app = get_application("cap3")
    tasks = cap3_task_specs(n_files, reads_per_file=400)
    result = ClassicCloudFramework(config).run(app, tasks)
    return result, {t.task_id for t in tasks}


class TestPolicies:
    def test_target_tracking_math(self):
        policy = TargetTrackingPolicy(target_backlog_per_worker=2.0)
        kwargs = dict(current_instances=1, workers_per_instance=8)
        assert policy.desired_instances(backlog=0, **kwargs) == 0
        assert policy.desired_instances(backlog=10, **kwargs) == 1
        assert policy.desired_instances(backlog=64, **kwargs) == 4
        assert policy.desired_instances(backlog=65, **kwargs) == 5

    def test_step_policy_adjustments(self):
        policy = StepScalingPolicy()
        kwargs = dict(current_instances=2, workers_per_instance=8)
        # 16 workers; backlog 120 -> metric 7.5 -> +4.
        assert policy.desired_instances(backlog=120, **kwargs) == 6
        # backlog 56 -> metric 3.5 -> +2.
        assert policy.desired_instances(backlog=56, **kwargs) == 4
        # backlog 28 -> metric 1.75 -> +1.
        assert policy.desired_instances(backlog=28, **kwargs) == 3
        # backlog 12 -> metric 0.75 -> hold.
        assert policy.desired_instances(backlog=12, **kwargs) == 2
        # backlog 2 -> metric 0.125 -> -1.
        assert policy.desired_instances(backlog=2, **kwargs) == 1

    def test_default_policy_names(self):
        assert isinstance(
            default_policy("target-tracking"), TargetTrackingPolicy
        )
        assert isinstance(default_policy("step"), StepScalingPolicy)
        with pytest.raises(KeyError):
            default_policy("predictive")

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            AutoscalePlan(min_instances=0)
        with pytest.raises(ValueError):
            AutoscalePlan(min_instances=4, max_instances=2)
        with pytest.raises(ValueError):
            AutoscalePlan(billing="weekly")
        assert AutoscalePlan(max_instances=4).clamp(10) == 4
        assert AutoscalePlan(min_instances=2).clamp(0) == 2


class TestElasticPool:
    def test_scales_up_and_down(self):
        result, task_ids = run_cap3(
            elastic_config(n_instances=1, bid=BidStrategy.on_demand())
        )
        extras = result.extras
        assert result.completed == task_ids
        assert extras["autoscale_instances_added"] >= 1
        assert extras["autoscale_peak_instances"] > 1
        # The pool grew beyond the initial instance and was billed for
        # every lifetime it started.
        assert extras["autoscale_on_demand_seconds"] > 0
        assert extras["autoscale_preemptions"] == 0

    def test_per_second_billing_flows_to_meter(self):
        config = elastic_config(
            n_instances=1, bid=BidStrategy.on_demand(), billing="per-second"
        )
        app = get_application("cap3")
        tasks = cap3_task_specs(48, reads_per_file=400)
        framework = ClassicCloudFramework(config)
        result = framework.run(app, tasks)
        # Per-second elastic pools bill (nearly) only what they use:
        # billed hours stay within the 60 s minimum of exact usage.
        billed = result.billing.compute_hour_units
        used = (
            result.extras["autoscale_on_demand_seconds"]
            + result.extras["autoscale_spot_seconds"]
        ) / 3600.0
        assert billed == pytest.approx(used, abs=0.1)

    def test_preemption_loses_no_tasks(self):
        spot, task_ids = run_cap3(elastic_config(bid=BidStrategy.spot()))
        assert spot.extras["autoscale_preemptions"] >= 1
        # Fault-free reference: the same workload, static on-demand.
        reference, _ = run_cap3(
            ClassicCloudConfig(
                provider="aws", instance_type="HCXL", n_instances=2,
                workers_per_instance=8, seed=5,
            )
        )
        assert reference.completed == task_ids
        assert spot.completed == reference.completed

    def test_spot_cheaper_but_slower(self):
        spot, _ = run_cap3(elastic_config(bid=BidStrategy.spot()))
        on_demand, _ = run_cap3(elastic_config(bid=BidStrategy.on_demand()))
        assert spot.billing.total_cost < on_demand.billing.total_cost
        assert spot.makespan_seconds > on_demand.makespan_seconds
        assert spot.extras["autoscale_preemptions"] >= 1

    def test_preempted_lifetimes_metered_as_preempted(self):
        import numpy as np

        from repro.cloud.billing import CostMeter
        from repro.cloud.compute import CloudProvider
        from repro.cloud.instance_types import get_instance_type
        from repro.cloud.pricing import AWS_PRICES
        from repro.sim.engine import Environment

        env = Environment()
        meter = CostMeter(AWS_PRICES)
        provider = CloudProvider(
            env, "aws", np.random.default_rng(0), meter=meter
        )
        itype = get_instance_type("aws", "HCXL")

        def scenario(env):
            batch = yield env.process(
                provider.provision(
                    itype, 1, market="spot", price_per_hour=0.2,
                )
            )
            yield env.timeout(1800.0)
            provider.terminate(batch[0], preempted=True)

        env.run(until=env.process(scenario(env)))
        (usage,) = meter.instance_usage
        assert usage.preempted
        assert usage.rate_per_hour == 0.2  # spot price frozen at launch
        # Preemption within the first hour is free.
        assert usage.billed_hours() == 0.0


class TestStudy:
    STUDY_KWARGS = dict(
        apps=("cap3",),
        policies=("target-tracking",),
        spot_fractions=(0.0, 1.0),
        n_files=96,
        seed=5,
        market=SPIKY_MARKET,
    )

    def test_deterministic_bytes_across_job_counts(self):
        rows_serial = autoscale_study(jobs=1, cache=None, **self.STUDY_KWARGS)
        rows_parallel = autoscale_study(
            jobs=2, cache=None, **self.STUDY_KWARGS
        )
        assert serialize_rows(rows_serial) == serialize_rows(rows_parallel)
        # The frontier includes real preemption timing, so byte equality
        # covers the preemption path too.
        assert sum(r.preemptions for r in rows_serial) >= 1

    def test_frontier_direction(self):
        rows = autoscale_study(jobs=1, cache=None, **self.STUDY_KWARGS)
        by_fraction = {r.spot_fraction: r for r in rows}
        assert by_fraction[1.0].total_cost < by_fraction[0.0].total_cost
        assert by_fraction[1.0].makespan_s > by_fraction[0.0].makespan_s
        assert by_fraction[1.0].preemptions >= 1
        assert by_fraction[0.0].preemptions == 0

    def test_extras_survive_the_result_cache(self, tmp_path):
        from repro.sweep.cache import ResultCache

        cache = ResultCache(tmp_path)
        cold = autoscale_study(jobs=1, cache=cache, **self.STUDY_KWARGS)
        warm = autoscale_study(jobs=1, cache=cache, **self.STUDY_KWARGS)
        assert serialize_rows(cold) == serialize_rows(warm)
        assert cache.stats().hits == len(cold)


def test_cli_autoscale_run(capsys):
    from repro.cli import main

    code = main(
        [
            "run", "--app", "cap3", "--files", "16", "--instances", "1",
            "--autoscale", "target-tracking", "--spot-fraction", "0.5",
            "--no-cache",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "spot preemptions" in out
    assert "peak instances" in out


def test_cli_autoscale_rejects_cluster_backends(capsys):
    from repro.cli import main

    code = main(
        ["run", "--backend", "hadoop", "--autoscale", "step", "--files", "4"]
    )
    assert code == 2
    assert "requires a cloud backend" in capsys.readouterr().out
