"""Edge-case tests for the legacy fault plan (repro.cloud.failures)."""

import pytest

from repro.classiccloud import ClassicCloudConfig, ClassicCloudFramework
from repro.cloud.failures import FaultPlan, WorkerCrash
from repro.core.application import get_application
from repro.workloads.genome import cap3_task_specs


def small_config(**kwargs):
    defaults = dict(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=8,
        seed=7,
        fault_plan=FaultPlan.none(),
        consistency_window_s=0.0,
    )
    defaults.update(kwargs)
    return ClassicCloudConfig(**defaults)


class TestPlanContracts:
    def test_bare_constructor_is_fault_free(self):
        plan = FaultPlan()
        assert plan.worker_crashes == []
        assert plan.queue_miss_probability == 0.0
        assert plan.message_duplicate_probability == 0.0
        assert plan.storage_error_rate == 0.0
        assert plan.straggler_probability == 0.0
        assert plan.poison_task_ids == frozenset()

    def test_none_is_an_alias_for_the_bare_constructor(self):
        assert FaultPlan.none() == FaultPlan()

    def test_paper_default_differs_only_in_queue_miss(self):
        assert FaultPlan.paper_default() == FaultPlan(
            queue_miss_probability=0.02
        )
        assert FaultPlan.paper_default() != FaultPlan.none()

    def test_crashes_for_filters_and_sorts(self):
        plan = FaultPlan(
            worker_crashes=[
                WorkerCrash(worker_index=1, at_time=50.0),
                WorkerCrash(worker_index=0, at_time=20.0),
                WorkerCrash(worker_index=1, at_time=10.0),
            ]
        )
        assert [c.at_time for c in plan.crashes_for(1)] == [10.0, 50.0]
        assert [c.at_time for c in plan.crashes_for(0)] == [20.0]
        assert plan.crashes_for(5) == []

    def test_empty_plan_crashes_for_any_worker(self):
        assert FaultPlan.none().crashes_for(0) == []

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("message_duplicate_probability", -0.1),
            ("message_duplicate_probability", 1.5),
            ("straggler_probability", 2.0),
            ("straggler_probability", -0.5),
            ("queue_miss_probability", 1.0),
            ("queue_miss_probability", 1.5),
            ("storage_error_rate", 1.0),
            ("storage_error_rate", 3),
            ("storage_error_rate", float("nan")),
            ("straggler_slowdown", 0.5),
            ("straggler_slowdown", -1.0),
            ("poison_restart_s", -5),
            ("worker_crashes", [WorkerCrash(0, 10.0, restart_after=-1.0)]),
        ],
    )
    def test_rejects_out_of_range_settings(self, field, value):
        name = "restart_after" if field == "worker_crashes" else field
        with pytest.raises(ValueError, match=name):
            FaultPlan(**{field: value})

    def test_accepts_the_bounds(self):
        FaultPlan(
            worker_crashes=[WorkerCrash(0, 10.0, restart_after=0.0)],
            message_duplicate_probability=1.0,
            straggler_probability=1.0,
            queue_miss_probability=0.999,
            storage_error_rate=0.999,
            straggler_slowdown=1.0,
            poison_restart_s=0.0,
        )

    def test_out_of_range_straggler_fails_at_construction(self):
        # It used to build, and the run died mid-simulation with
        # "negative timeout delay".
        with pytest.raises(ValueError, match="straggler_probability"):
            small_config(fault_plan=FaultPlan(
                straggler_probability=2.0, straggler_slowdown=-1.0
            ))


class TestEdgeCaseRuns:
    def test_crash_at_time_zero_still_completes(self):
        tasks = cap3_task_specs(16, reads_per_file=200)
        config = small_config(
            fault_plan=FaultPlan(
                worker_crashes=[WorkerCrash(worker_index=0, at_time=0.0)]
            )
        )
        result = ClassicCloudFramework(config).run(
            get_application("cap3"), tasks
        )
        assert result.completed_task_ids == {t.task_id for t in tasks}

    def test_crash_beyond_run_end_never_fires(self):
        tasks = cap3_task_specs(16, reads_per_file=200)
        quiet = ClassicCloudFramework(small_config()).run(
            get_application("cap3"), tasks
        )
        late = ClassicCloudFramework(
            small_config(
                fault_plan=FaultPlan(
                    worker_crashes=[
                        WorkerCrash(worker_index=0, at_time=1e9)
                    ]
                )
            )
        ).run(get_application("cap3"), tasks)
        assert late.completed_task_ids == {t.task_id for t in tasks}
        # The pending crash never perturbs the run.
        assert late.makespan_seconds == quiet.makespan_seconds  # repro: noqa[RPR005] exact: determinism contract
