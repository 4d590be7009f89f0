"""Tests for the simulated Classic Cloud framework."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.classiccloud import ClassicCloudConfig, ClassicCloudFramework
from repro.classiccloud.worker import WorkerFleet
from repro.cloud.failures import FaultPlan, WorkerCrash
from repro.cloud.queue import MessageQueue, _PollEntry
from repro.cloud.storage import BlobStore
from repro.core.application import get_application
from repro.lint.sanitizer import SanitizedEnvironment
from repro.obs import Observability
from repro.sim.rng import RngRegistry
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


@pytest.fixture
def cap3():
    return get_application("cap3")


class TestConfig:
    def test_label_matches_paper_axis_format(self):
        assert small_config().label == "HCXL - 2 x 8"

    def test_worker_slots_bounded_by_cores(self):
        with pytest.raises(ValueError, match="exceed"):
            small_config(workers_per_instance=9)
        with pytest.raises(ValueError, match="exceed"):
            small_config(workers_per_instance=5, threads_per_worker=2)

    def test_totals(self):
        config = small_config()
        assert config.total_cores == 16
        assert config.total_workers == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(n_instances=0)
        with pytest.raises(ValueError):
            small_config(threads_per_worker=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("visibility_timeout_s", -3.0),
            ("poll_backoff_s", -1.0),
            ("consistency_window_s", -1.0),
            ("max_sim_seconds", -1.0),
            ("perf_jitter", -0.01),
        ],
    )
    def test_out_of_range_setting_rejected_when_built(self, field, value):
        # Each of these used to be accepted: the run completed (negative
        # timeout, window or jitter) or failed only mid-run.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            small_config(**{field: value})


class TestHappyPath:
    def test_all_tasks_complete_exactly_once(self, cap3):
        tasks = cap3_task_specs(40, reads_per_file=200)
        result = ClassicCloudFramework(small_config()).run(cap3, tasks)
        assert result.n_tasks == 40
        assert result.completed_task_ids == {t.task_id for t in tasks}
        winners = [r for r in result.records if r.won]
        assert len(winners) == 40
        assert result.makespan_seconds > 0

    def test_makespan_scales_with_tasks(self, cap3):
        fw = ClassicCloudFramework(small_config())
        small = fw.run(cap3, cap3_task_specs(16, reads_per_file=200))
        fw2 = ClassicCloudFramework(small_config())
        large = fw2.run(cap3, cap3_task_specs(64, reads_per_file=200))
        # 4x the tasks on the same cores: roughly 4x the time.
        ratio = large.makespan_seconds / small.makespan_seconds
        assert 2.5 < ratio < 6.0

    def test_more_instances_finish_faster(self, cap3):
        tasks = cap3_task_specs(64, reads_per_file=200)
        two = ClassicCloudFramework(small_config(n_instances=2)).run(cap3, tasks)
        eight = ClassicCloudFramework(small_config(n_instances=8)).run(cap3, tasks)
        assert eight.makespan_seconds < two.makespan_seconds
        speedup = two.makespan_seconds / eight.makespan_seconds
        assert speedup > 2.5  # ideal 4x, allow substantial overhead

    def test_deterministic_given_seed(self, cap3):
        tasks = cap3_task_specs(20, reads_per_file=200)
        a = ClassicCloudFramework(small_config(seed=42)).run(cap3, tasks)
        b = ClassicCloudFramework(small_config(seed=42)).run(cap3, tasks)
        assert a.makespan_seconds == b.makespan_seconds  # repro: noqa[RPR005] exact: determinism contract
        assert a.billing.total_cost == b.billing.total_cost

    def test_billing_populated(self, cap3):
        tasks = cap3_task_specs(20, reads_per_file=200)
        result = ClassicCloudFramework(small_config()).run(cap3, tasks)
        report = result.billing
        assert report.compute_cost >= 2 * 0.68  # two HCXL, >= 1 hour each
        assert report.queue_requests > 3 * 20  # send+receive+delete+monitor
        assert report.storage_requests >= 2 * 20  # get input + put output
        assert report.total_cost > report.compute_cost

    def test_task_records_have_phases(self, cap3):
        tasks = cap3_task_specs(10, reads_per_file=200)
        result = ClassicCloudFramework(small_config()).run(cap3, tasks)
        for record in result.records:
            assert record.download_time > 0
            assert record.compute_time > 0
            assert record.upload_time > 0
            assert record.finished_at > record.started_at

    def test_empty_task_list_rejected(self, cap3):
        with pytest.raises(ValueError, match="no tasks"):
            ClassicCloudFramework(small_config()).run(cap3, [])


class TestAzure:
    def test_azure_small_fleet(self, cap3):
        config = ClassicCloudConfig(
            provider="azure",
            instance_type="Small",
            n_instances=16,
            workers_per_instance=1,
            seed=3,
            fault_plan=FaultPlan.none(),
            consistency_window_s=0.0,
        )
        tasks = cap3_task_specs(32, reads_per_file=200)
        result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}
        assert result.backend == "classiccloud-azure"
        # Azure Small: $0.12/hour, 16 instances.
        assert result.billing.compute_cost == pytest.approx(16 * 0.12)


class TestPreload:
    def test_blast_preload_excluded_from_makespan(self):
        blast = get_application("blast")
        from repro.workloads.protein import blast_task_specs

        tasks = blast_task_specs(16, inhomogeneous_base=False)
        config = small_config(n_instances=2)
        result = ClassicCloudFramework(config).run(blast, tasks)
        assert result.extras["preload_seconds"] > 0
        # The 2.9 GB download at 1 Gbps NIC takes ~25s + 120s extract.
        assert result.extras["preload_seconds"] > 100


class TestFaultTolerance:
    def test_worker_crash_recovers_via_visibility_timeout(self, cap3):
        tasks = cap3_task_specs(24, reads_per_file=200)
        plan = FaultPlan(
            worker_crashes=[WorkerCrash(worker_index=0, at_time=30.0)],
            queue_miss_probability=0.0,
        )
        config = small_config(fault_plan=plan, visibility_timeout_s=120.0)
        result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}
        # The crashed worker's in-flight message reappeared.
        assert result.extras["reappearances"] >= 1

    def test_crash_with_restart(self, cap3):
        tasks = cap3_task_specs(24, reads_per_file=200)
        plan = FaultPlan(
            worker_crashes=[
                WorkerCrash(worker_index=0, at_time=30.0, restart_after=60.0)
            ],
            queue_miss_probability=0.0,
        )
        config = small_config(fault_plan=plan, visibility_timeout_s=120.0)
        result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}

    def test_many_crashes_still_complete(self, cap3):
        tasks = cap3_task_specs(32, reads_per_file=200)
        plan = FaultPlan(
            worker_crashes=[
                WorkerCrash(worker_index=i, at_time=20.0 + i * 5) for i in range(8)
            ],
            queue_miss_probability=0.0,
        )
        config = small_config(fault_plan=plan, visibility_timeout_s=150.0)
        result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}

    def test_short_visibility_timeout_causes_duplicates(self, cap3):
        """A visibility timeout shorter than the task time guarantees
        re-deliveries — the ablation the paper's design implies."""
        tasks = cap3_task_specs(12, reads_per_file=200)
        config = small_config(visibility_timeout_s=10.0)  # tasks take ~50s
        result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}
        assert result.extras["reappearances"] > 0
        assert result.duplicate_executions > 0

    def test_storage_errors_retried(self, cap3):
        tasks = cap3_task_specs(12, reads_per_file=200)
        plan = FaultPlan(storage_error_rate=0.2, queue_miss_probability=0.0)
        config = small_config(fault_plan=plan)
        result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}

    def test_eventual_consistency_tolerated(self, cap3):
        tasks = cap3_task_specs(12, reads_per_file=200)
        config = small_config(consistency_window_s=5.0)
        result = ClassicCloudFramework(config).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}


class TestIdleWorkerInterrupt:
    CRASH_AT = 5.3

    def crash_idle_worker(self):
        """One worker idle-polls an empty queue and is crashed at
        ``CRASH_AT``; returns what the checks need."""
        env = SanitizedEnvironment(strict=True)
        obs = Observability.make(label="idle-crash")
        queue = MessageQueue(env, "tasks", np.random.default_rng(2))
        fleet = WorkerFleet(
            env=env,
            rng=RngRegistry(2),
            obs=obs,
            task_queue=queue,
            storage=BlobStore(env, "blobs", np.random.default_rng(3)),
            perf_model=lambda task: None,
            keep_polling=lambda: True,
            on_complete=lambda task_id: None,
            workers_per_instance=1,
        )
        worker = fleet.spawn(SimpleNamespace(draining=False, is_running=True))
        requests_at_crash = []

        def crasher():
            yield env.timeout(self.CRASH_AT)
            requests_at_crash.append(queue.stats.requests)
            worker.interrupt("chaos-preempted")

        env.process(crasher(), name="crasher")
        env.run(until=100.0)

        assert not worker.is_alive
        assert worker.ok and worker.value is None  # the handler returned
        assert env.peek() == float("inf")  # nothing left armed
        assert queue.stats.requests == requests_at_crash[0] > 1
        assert obs.timeline.series("workers.busy") == []
        report = env.sanitizer_report()
        assert report.pending_processes == []
        assert report.double_triggers == []
        return env, queue

    def poll_steps_after_crash(self, env):
        return [
            line for line in env.trace
            if line.endswith(" queue.poll")
            and float(line.split()[0]) > self.CRASH_AT
        ]

    def test_crash_while_parked_in_poll(self, eager_polling):
        """Eager polling: a worker crashed while idle-polling ends
        through its Interrupt handler; its armed poll entry fires once
        as a no-op and is not re-armed, so the event heap drains."""
        env, _ = self.crash_idle_worker()
        assert len(self.poll_steps_after_crash(env)) == 1

    def test_crash_while_parked_off_the_heap(self):
        """Parked polling: the interrupt replays the worker's cycles up
        to the crash and drops it — requests stop at the crash, no poll
        step runs after it, and the eager request count is kept."""
        env, queue = self.crash_idle_worker()
        assert self.poll_steps_after_crash(env) == []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_PollEntry, "_may_park", lambda self: False)
            _, eager_queue = self.crash_idle_worker()
        assert queue.stats == eager_queue.stats


class TestSequentialEstimate:
    def test_t1_close_to_ideal_parallel_work(self, cap3):
        tasks = cap3_task_specs(32, reads_per_file=200)
        fw = ClassicCloudFramework(small_config())
        t1 = fw.estimate_sequential_time(cap3, tasks)
        result = fw.run(cap3, tasks)
        cores = fw.config.total_cores
        efficiency = t1 / (cores * result.makespan_seconds)
        # Low parallelization overheads, as the paper finds for Cap3.
        assert 0.6 < efficiency <= 1.0
