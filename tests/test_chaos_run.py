"""End-to-end chaos injection against the simulated Classic Cloud."""

import hashlib
import json

import pytest

from repro.chaos import ChaosPlan, RetryPolicy, SpeculationPolicy
from repro.classiccloud import (
    ClassicCloudConfig,
    ClassicCloudFramework,
    LocalAugmentation,
)
from repro.cloud.failures import FaultPlan, WorkerCrash
from repro.core.application import get_application
from repro.obs import Observability, observe
from repro.workloads.genome import cap3_task_specs


def chaos_config(**kwargs):
    defaults = dict(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=8,
        seed=13,
        fault_plan=FaultPlan.none(),
        consistency_window_s=0.0,
    )
    defaults.update(kwargs)
    return ClassicCloudConfig(**defaults)


@pytest.fixture
def cap3():
    return get_application("cap3")


def run(config, n_files=24):
    tasks = cap3_task_specs(n_files, reads_per_file=200)
    result = ClassicCloudFramework(config).run(
        get_application("cap3"), tasks
    )
    return tasks, result


class TestInjection:
    def test_chaos_run_completes_every_task(self, cap3):
        plan = ChaosPlan.at_intensity(1.0, seed=5, horizon_s=100.0)
        tasks, result = run(chaos_config(chaos=plan))
        assert result.completed_task_ids == {t.task_id for t in tasks}
        assert result.extras["chaos_faults_injected"] > 0

    def test_chaos_inflates_makespan(self, cap3):
        _, quiet = run(chaos_config())
        plan = ChaosPlan.at_intensity(1.0, seed=5, horizon_s=100.0)
        _, noisy = run(chaos_config(chaos=plan))
        assert noisy.makespan_seconds > quiet.makespan_seconds

    def test_chaos_run_is_deterministic(self, cap3):
        plan = ChaosPlan.at_intensity(1.0, seed=5, horizon_s=100.0)
        _, a = run(chaos_config(chaos=plan))
        _, b = run(chaos_config(chaos=plan))
        assert a.makespan_seconds == b.makespan_seconds  # repro: noqa[RPR005] exact: determinism contract
        assert a.extras == b.extras

    def test_legacy_extras_unchanged_without_chaos(self, cap3):
        _, result = run(chaos_config())
        assert not any(
            key.startswith("chaos_") or key.startswith("speculative")
            for key in result.extras
        )
        assert "redundant_fraction" not in result.extras


class TestSpeculation:
    def test_backups_never_double_count(self, cap3):
        config = chaos_config(
            fault_plan=FaultPlan(
                straggler_probability=0.3, straggler_slowdown=8.0
            ),
            speculation=SpeculationPolicy(
                poll_s=10.0, min_completed=3, threshold_multiplier=1.5
            ),
        )
        tasks, result = run(config)
        extras = result.extras
        # Every admitted task completes exactly once, however many
        # backup copies ran: completed == admitted, never more.
        assert result.completed_task_ids == {t.task_id for t in tasks}
        assert extras["tasks_completed"] == len(tasks)
        assert extras["speculative_wins"] <= extras["speculative_launched"]
        # One kept result per task: exactly len(tasks) distinct ids in
        # the record stream, and no task is counted completed twice.
        assert len({r.task_id for r in result.records}) == len(tasks)
        assert len(result.completed) == len(tasks)

    def test_retry_mitigation_preserves_completion(self, cap3):
        plan = ChaosPlan.at_intensity(1.0, seed=5, horizon_s=100.0)
        config = chaos_config(
            chaos=plan,
            retry_policy=RetryPolicy(
                attempts=6, base_delay_s=0.5, max_delay_s=15.0
            ),
        )
        tasks, result = run(config)
        assert result.completed_task_ids == {t.task_id for t in tasks}


class TestBusyGauge:
    def test_mid_task_crash_closes_the_busy_gauge(self, cap3):
        """Regression: a worker interrupted mid-task must emit the
        paired ``-1`` busy sample; historically the end sentinel was
        skipped and the gauge read one busy worker forever."""
        config = chaos_config(
            fault_plan=FaultPlan(
                worker_crashes=[
                    WorkerCrash(worker_index=0, at_time=5.0),
                    WorkerCrash(worker_index=3, at_time=9.0),
                ]
            )
        )
        tasks = cap3_task_specs(24, reads_per_file=200)
        with observe(Observability.make(label="busy-gauge")) as obs:
            result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}
        series = obs.timeline.series("workers.busy")
        assert series, "busy gauge never sampled"
        assert series[-1][1] == 0
        assert min(value for _, value in series) >= 0


def run_digest(result) -> str:
    """SHA-256 over the makespan, the sorted extras and every record's
    identity and timing fields."""
    payload = {
        "makespan_seconds": result.makespan_seconds,
        "extras": sorted(result.extras.items()),
        "records": [
            (
                r.task_id,
                r.worker,
                r.started_at,
                r.finished_at,
                r.attempt,
                r.was_duplicate,
                r.speculative,
                r.won,
            )
            for r in result.records
        ],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGolden:
    """Seeded outputs of the polling worker, pinned byte for byte."""

    def test_chaos_retry_speculation_digest(self, cap3):
        config = chaos_config(
            fault_plan=FaultPlan(
                straggler_probability=0.3, straggler_slowdown=8.0
            ),
            chaos=ChaosPlan.at_intensity(1.0, seed=5, horizon_s=100.0),
            retry_policy=RetryPolicy(
                attempts=6, base_delay_s=0.5, max_delay_s=15.0
            ),
            speculation=SpeculationPolicy(
                poll_s=10.0, min_completed=3, threshold_multiplier=1.5
            ),
        )
        _, result = run(config)
        assert result.extras["speculative_launched"] > 0
        assert result.extras["chaos_faults_injected"] > 0
        assert run_digest(result) == (
            "91616541a684c4e69b6931ae294a473dd7cfc839260ccf0a74ca7f1f87b95118"
        )

    # Each window's length, the queue window's extra delivery delay, the
    # crash restart delay and the speculation percentile keep their
    # default values here, and each digest moves when one of them does.
    # With 16 workers mostly idle, backups sent inside a queue window
    # wait out its extra delay. With 8 workers busy past every window,
    # the slow node's window ends mid-task and the percentile decides
    # which stragglers are backed up.
    @pytest.mark.parametrize(
        "n_instances, workers, n_files, reads, horizon_s, queue_windows, "
        "seed, digest",
        [
            pytest.param(
                2, 8, 32, 100, 200.0, 2, 1,
                "551b87c81438a15c9e0da2f61132392306bf942d930d0d767f868d6d411dfa14",
                id="idle-workers",
            ),
            pytest.param(
                2, 4, 32, 200, 400.0, 3, 0,
                "b02b9e97c3ed65cca8c74e1ecb2fe87a4ff0f0e79b351b103dbfecd368c2ec95",
                id="busy-workers",
            ),
        ],
    )
    def test_chaos_windows_digest(
        self, cap3, n_instances, workers, n_files, reads, horizon_s,
        queue_windows, seed, digest,
    ):
        config = chaos_config(
            n_instances=n_instances,
            workers_per_instance=workers,
            fault_plan=FaultPlan(
                straggler_probability=0.3, straggler_slowdown=8.0
            ),
            chaos=ChaosPlan(
                seed=seed,
                horizon_s=horizon_s,
                worker_crashes=1,
                queue_chaos_windows=queue_windows,
                storage_chaos_windows=1,
                slow_nodes=1,
            ),
            retry_policy=RetryPolicy(
                attempts=6, base_delay_s=0.5, max_delay_s=15.0
            ),
            speculation=SpeculationPolicy(
                poll_s=10.0, min_completed=3, threshold_multiplier=1.5
            ),
        )
        tasks = cap3_task_specs(n_files, reads_per_file=reads)
        result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.extras["chaos_slow_nodes"] == 1
        assert result.extras["speculative_launched"] > 0
        assert run_digest(result) == digest

    def test_poison_crash_augmentation_digest(self, cap3):
        # Poison respawn, a crash with restart, the dead-letter queue and
        # WAN-attached local workers in one run.
        tasks = cap3_task_specs(24, reads_per_file=200)
        config = chaos_config(
            workers_per_instance=4,
            fault_plan=FaultPlan(
                poison_task_ids=frozenset({tasks[3].task_id}),
                worker_crashes=[
                    WorkerCrash(worker_index=1, at_time=5.0, restart_after=10.0)
                ],
            ),
            max_task_attempts=3,
            visibility_timeout_s=60.0,
            local_augmentation=LocalAugmentation(n_workers=2),
        )
        result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.failed == {tasks[3].task_id}
        assert any(r.worker.startswith("local-") for r in result.records)
        assert run_digest(result) == (
            "d472f80dce1040b6940ae5a0a7684d1860454f35f1aee069c1b1179f1f45603a"
        )
