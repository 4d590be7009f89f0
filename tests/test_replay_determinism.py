"""Deterministic-replay regression: same seed, byte-identical traces.

Runs one Cap3 Classic Cloud scenario twice under the runtime sanitizer
and asserts the recorded event traces — every fired event with its
timestamp, scheduling sequence number and label — are byte-identical.
This is the executable form of the kernel's determinism promise.
"""

import hashlib
import json

from repro.classiccloud import (
    ClassicCloudConfig,
    ClassicCloudFramework,
    LocalAugmentation,
)
from repro.cloud.failures import FaultPlan, WorkerCrash
from repro.cluster import get_cluster
from repro.core.application import get_application
from repro.hadoop import HadoopJobConfig, HadoopSimulator
from repro.workloads.genome import cap3_task_specs


def play_cap3(seed: int):
    config = ClassicCloudConfig(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=8,
        seed=seed,
        fault_plan=FaultPlan.none(),
        consistency_window_s=0.0,
        sanitize=True,
    )
    framework = ClassicCloudFramework(config)
    app = get_application("cap3")
    tasks = cap3_task_specs(24, seed=seed)
    result = framework.run(app, tasks)
    env = framework.last_environment
    return result, env


def test_cap3_trace_is_byte_identical_across_replays():
    result1, env1 = play_cap3(seed=7)
    result2, env2 = play_cap3(seed=7)
    trace1, trace2 = env1.trace_text(), env2.trace_text()
    assert trace1  # the sanitizer actually recorded something
    assert trace1.encode("utf-8") == trace2.encode("utf-8")
    assert result1.makespan_seconds == result2.makespan_seconds  # repro: noqa[RPR005] exact: determinism contract


def test_different_seed_changes_the_trace():
    _, env1 = play_cap3(seed=7)
    _, env2 = play_cap3(seed=8)
    assert env1.trace_text() != env2.trace_text()


def test_sanitizer_finds_no_kernel_violations_in_cap3_run():
    _, env = play_cap3(seed=7)
    report = env.sanitizer_report()
    assert report.double_triggers == []
    assert report.events_fired == len(env.trace)


# -- golden digests -------------------------------------------------------
#
# The kernel's scheduling program, pinned: the (time, seq) column of the
# sanitized trace (labels dropped, so renaming an event type does not
# move them) and each queue's request accounting.  A change that adds,
# drops or reorders one scheduling action, or one queue request, shows
# up here.


def trace_slots_digest(env) -> str:
    """SHA-256 over the ``time #seq`` columns of the kernel trace."""
    slots = "\n".join(" ".join(line.split(" ", 2)[:2]) for line in env.trace)
    return hashlib.sha256(slots.encode("utf-8")).hexdigest()


def queue_stats_digest(env) -> str:
    """SHA-256 over every registered queue's request counters."""
    rows = [
        (
            queue.name,
            queue.stats.requests,
            queue.stats.empty_receives,
            queue.stats.received,
            queue.stats.deleted,
        )
        for queue in env._queues
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def play_poison_crash_augmentation():
    """Poison respawn, a crash with restart, the dead-letter queue and
    WAN-attached local workers, on the instrumented loop."""
    tasks = cap3_task_specs(24, reads_per_file=200)
    config = ClassicCloudConfig(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=4,
        seed=13,
        fault_plan=FaultPlan(
            poison_task_ids=frozenset({tasks[3].task_id}),
            worker_crashes=[
                WorkerCrash(worker_index=1, at_time=5.0, restart_after=10.0)
            ],
        ),
        consistency_window_s=0.0,
        max_task_attempts=3,
        visibility_timeout_s=60.0,
        local_augmentation=LocalAugmentation(n_workers=2),
        sanitize=True,
    )
    framework = ClassicCloudFramework(config)
    result = framework.run(get_application("cap3"), tasks)
    assert result.failed == {tasks[3].task_id}
    return result, framework.last_environment


class TestGoldenSchedule:
    """Idle pollers park off the heap, so the default schedule has far
    fewer slots than the eager one; both are pinned.  The eager digests
    are the ones pinned before parking existed, checked under the
    ``eager_polling`` oracle.  Request accounting is the same in both
    modes."""

    def test_cap3_trace_slots_digest(self):
        _, env = play_cap3(seed=7)
        assert trace_slots_digest(env) == (
            "6226be2664c7bebcdf2562a5052bd30337da961abe5c7e0dd57767634572fc6a"
        )

    def test_cap3_trace_slots_digest_eager(self, eager_polling):
        _, env = play_cap3(seed=7)
        assert trace_slots_digest(env) == (
            "93a0ab13a7b7b1570520976aa9cf723b783815b63e4e390ed16ed9915268e738"
        )

    def test_cap3_queue_stats_digest(self):
        _, env = play_cap3(seed=7)
        assert queue_stats_digest(env) == (
            "4e59c3f5203f937ee6078bced763027cf68c3ce3ac7ed1b0644964853fc7bb01"
        )

    def test_cap3_queue_stats_digest_eager(self, eager_polling):
        _, env = play_cap3(seed=7)
        assert queue_stats_digest(env) == (
            "4e59c3f5203f937ee6078bced763027cf68c3ce3ac7ed1b0644964853fc7bb01"
        )

    def test_poison_crash_augmentation_trace_slots_digest(self):
        _, env = play_poison_crash_augmentation()
        assert trace_slots_digest(env) == (
            "5bf674b61e4abacf3bf1775eef41583b4731b402fc3a80e6da63d56621cd809d"
        )

    def test_poison_crash_augmentation_trace_slots_digest_eager(
        self, eager_polling
    ):
        _, env = play_poison_crash_augmentation()
        assert trace_slots_digest(env) == (
            "7d9a68bf418c1e9c995596ea95381cfd431aaf6390546a7966b2d16fd10949bb"
        )

    def test_poison_crash_augmentation_queue_stats_digest(self):
        _, env = play_poison_crash_augmentation()
        assert queue_stats_digest(env) == (
            "dc4f45dfb9e8f6c009bd94fa93b2bb2f7745d8013bbf7e88a6b0debad822293c"
        )

    def test_poison_crash_augmentation_queue_stats_digest_eager(
        self, eager_polling
    ):
        _, env = play_poison_crash_augmentation()
        assert queue_stats_digest(env) == (
            "dc4f45dfb9e8f6c009bd94fa93b2bb2f7745d8013bbf7e88a6b0debad822293c"
        )


# -- Hadoop schedule digests ----------------------------------------------
#
# Idle map slots sleep off the heap, so the kernel trace of a Hadoop run
# moves with the idle mechanism; the schedule it produces must not.
# These pin the run's JSON trace (every attempt's slot, times, attempt
# number and outcome), recorded with 1 s idle polling and checked in
# both modes.


def run_digest(result) -> str:
    """SHA-256 over the run's sorted-key JSON trace."""
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def play_hadoop(seed: int, **overrides):
    """48 heavy-tailed Cap3 files on four 8-slot nodes, with failures,
    stragglers and speculation at a 0.95 progress threshold."""
    config = HadoopJobConfig(
        cluster=get_cluster("cap3-baremetal").subset(4),
        seed=seed,
        task_failure_probability=0.2,
        straggler_probability=0.3,
        straggler_slowdown=6.0,
        max_attempts=10,
        speculative_progress_threshold=0.95,
        **overrides,
    )
    tasks = cap3_task_specs(
        48, reads_per_file=200, inhomogeneous=True, seed=seed
    )
    return HadoopSimulator(config).run(get_application("cap3"), tasks)


HADOOP_FIFO_DIGEST = (
    "96640c45cdfde966327097159b6f7da16465de65885618e6158297c66f6242b6"
)
HADOOP_LPT_DIGEST = (
    "f3405094c961651bf517d0e5b068737c737a19ba76eb02e9871171b1567978ac"
)


class TestGoldenHadoopSchedule:
    def test_fifo_faults_speculation_digest(self):
        assert run_digest(play_hadoop(3)) == HADOOP_FIFO_DIGEST

    def test_fifo_faults_speculation_digest_eager(self, eager_hadoop):
        assert run_digest(play_hadoop(3)) == HADOOP_FIFO_DIGEST

    def test_lpt_locality_off_digest(self):
        run = play_hadoop(11, scheduling_policy="lpt", locality_aware=False)
        assert run_digest(run) == HADOOP_LPT_DIGEST

    def test_lpt_locality_off_digest_eager(self, eager_hadoop):
        run = play_hadoop(11, scheduling_policy="lpt", locality_aware=False)
        assert run_digest(run) == HADOOP_LPT_DIGEST
