"""Deterministic-replay regression: same seed, byte-identical traces.

Runs one Cap3 Classic Cloud scenario twice under the runtime sanitizer
and asserts the recorded event traces — every fired event with its
timestamp, scheduling sequence number and label — are byte-identical.
This is the executable form of the kernel's determinism promise.
"""

import hashlib
import json

import pytest

from repro.autoscale.plan import AutoscalePlan
from repro.autoscale.policies import default_policy
from repro.autoscale.study import STUDY_MARKET
from repro.classiccloud import (
    ClassicCloudConfig,
    ClassicCloudFramework,
    LocalAugmentation,
)
from repro.cloud.failures import FaultPlan, WorkerCrash
from repro.cloud.spot import BidStrategy
from repro.cluster import get_cluster
from repro.core.application import get_application
from repro.dryad import DryadLinqConfig, DryadLinqSimulator
from repro.hadoop import HadoopJobConfig, HadoopSimulator
from repro.lint.sanitizer import SanitizedEnvironment
from repro.obs.context import observe
from repro.twister.simulator import TwisterAzureSimulator, TwisterSimConfig
from repro.workloads import study_task_specs
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
    )
    framework = ClassicCloudFramework(config)
    app = get_application("cap3")
    tasks = cap3_task_specs(24, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SANITIZE", "1")
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
    )
    framework = ClassicCloudFramework(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SANITIZE", "1")
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
# number and outcome), checked in both modes.  They were re-recorded
# when a failed attempt stopped re-queuing a task whose other attempt
# still runs (that attempt may be backed up again instead).


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
    "c94491d4c088ab450a3f30d5e1972de9793e990ac1cc6c13bc9bd84c42f150ff"
)
HADOOP_LPT_DIGEST = (
    "62dec0f925cc4917dcd56542c06a8570f9f90b58a04d296c7b339a710647b505"
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


# -- backend attempt digests ----------------------------------------------
#
# Every backend plays the same download -> compute -> upload attempt.
# These pin what each one emits from it: a DryadLINQ schedule with
# vertex failures and stragglers, and the traced span and instant stream
# (name, track, exact start/end, args, in record order) of Hadoop,
# DryadLINQ, Classic Cloud and both Twister modes.


def trace_stream_digest(obs) -> str:
    """SHA-256 over every span and instant the run recorded, leaving
    out the kernel events a sanitized loop adds to the same tracer."""
    lines = [
        f"{s.name}|{s.track}|{s.domain}|{s.start!r}|{s.end!r}|{s.args!r}"
        for s in obs.tracer.spans
    ] + [
        f"{i.name}|{i.track}|{i.domain}|{i.ts!r}|{i.args!r}"
        for i in obs.tracer.instants
        if i.track != SanitizedEnvironment.KERNEL_TRACK
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def play_dryad(seed: int):
    """48 heavy-tailed Cap3 files on four Windows nodes, with vertex
    failures and stragglers."""
    config = DryadLinqConfig(
        cluster=get_cluster("cap3-baremetal-windows").subset(4),
        seed=seed,
        vertex_failure_probability=0.2,
        straggler_probability=0.3,
        straggler_slowdown=6.0,
        max_attempts=10,
    )
    tasks = cap3_task_specs(
        48, reads_per_file=200, inhomogeneous=True, seed=seed
    )
    return DryadLinqSimulator(config).run(get_application("cap3"), tasks)


def play_classic_stragglers(seed: int):
    config = ClassicCloudConfig(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=4,
        seed=seed,
        fault_plan=FaultPlan(
            straggler_probability=0.3, straggler_slowdown=4.0
        ),
        consistency_window_s=0.0,
    )
    tasks = cap3_task_specs(24, reads_per_file=200, seed=seed)
    return ClassicCloudFramework(config).run(get_application("cap3"), tasks)


DRYAD_FAULTS_DIGEST = (
    "ac43b5555af0c9675df094c4bc7ecae324cdaa9c0e13b6d84a309ad366654ec5"
)
HADOOP_SPANS_DIGEST = (
    "e6bba63d188d032caa5163a29986ad0a7eb6f96f9ae35bb38b3fed04b1c93b25"
)
DRYAD_SPANS_DIGEST = (
    "e03d9bc834a4fecf2cbe8e93b369668a6537873541faea7f976b46c76f95cdf4"
)
CLASSIC_SPANS_DIGEST = (
    "c4da7387bc7ed3a599c056db72096ddae6e4391bbd1806d8d47dc10092a29ba4"
)
TWISTER_SPANS_DIGESTS = {
    "naive": "d65a5c9188951d32b68454b6588740ce8a260cc0fea49310d06e4238f8891f85",
    "twister": (
        "35521e80df51b8c4031f83662a834824c3c4e438a128a7a46ba7990500c0cd67"
    ),
}


class TestGoldenAttempts:
    def test_dryad_faults_digest(self):
        assert run_digest(play_dryad(5)) == DRYAD_FAULTS_DIGEST

    def test_hadoop_spans_digest(self):
        with observe(label="hadoop") as obs:
            play_hadoop(3)
        assert trace_stream_digest(obs) == HADOOP_SPANS_DIGEST

    def test_dryad_spans_digest(self):
        with observe(label="dryad") as obs:
            play_dryad(5)
        assert trace_stream_digest(obs) == DRYAD_SPANS_DIGEST

    def test_classic_stragglers_spans_digest(self):
        with observe(label="classic") as obs:
            play_classic_stragglers(9)
        assert trace_stream_digest(obs) == CLASSIC_SPANS_DIGEST

    @pytest.mark.parametrize("mode", ["naive", "twister"])
    def test_twister_spans_digest(self, mode):
        sim = TwisterAzureSimulator(
            TwisterSimConfig(n_workers=4, n_iterations=3, seed=2)
        )
        with observe(label=mode) as obs:
            sim.run(mode)
        assert trace_stream_digest(obs) == TWISTER_SPANS_DIGESTS[mode]


# -- autoscaled Classic Cloud digests -------------------------------------
#
# An elastic run provisions its first fleet through the autoscale
# controller, not the provider; a mixed bid on the study's spot market
# launches half of it as spot, and the policy drains one instance once
# the backlog falls.  These pin what the run records:
# the span and instant stream, and every timeline series (pool size,
# backlog, busy workers, utilization, queue depth).


def play_classic_autoscaled(n_files: int = 16):
    plan = AutoscalePlan(
        policy=default_policy("target-tracking"),
        min_instances=1,
        max_instances=4,
        bid=BidStrategy.mixed(0.5),
        spot_market=STUDY_MARKET,
    )
    config = ClassicCloudConfig(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=8,
        seed=17,
        autoscale=plan,
    )
    tasks = study_task_specs("cap3", n_files)
    return ClassicCloudFramework(config).run(get_application("cap3"), tasks)


def timeline_digest(obs) -> str:
    """SHA-256 over every timeline series the run sampled."""
    return hashlib.sha256(obs.timeline.to_csv().encode("utf-8")).hexdigest()


CLASSIC_AUTOSCALED_SPANS_DIGEST = (
    "cde4f1fef1aff5e6fdb3a7f529b5731d5d85cce56e6f3668d602cb417fc0a146"
)
CLASSIC_AUTOSCALED_TIMELINE_DIGEST = (
    "f57d83d53cd70aef75e66f82310356dd51367a9c67c9754cc21b1018c4152d9b"
)


class TestGoldenAutoscaled:
    @pytest.fixture(scope="class")
    def autoscaled(self):
        with observe(label="autoscaled") as obs:
            result = play_classic_autoscaled()
        return obs, result

    def test_the_controller_provisioned_the_fleet(self, autoscaled):
        obs, result = autoscaled
        assert result.extras["autoscale_peak_instances"] == 2
        assert result.extras["autoscale_spot_seconds"] > 0
        assert result.extras["autoscale_instances_removed"] == 1
        assert obs.timeline.series("autoscale.pool_instances")
        assert obs.timeline.series("workers.utilization")

    def test_spans_digest(self, autoscaled):
        obs, _ = autoscaled
        assert trace_stream_digest(obs) == CLASSIC_AUTOSCALED_SPANS_DIGEST

    def test_timeline_digest(self, autoscaled):
        obs, _ = autoscaled
        assert timeline_digest(obs) == CLASSIC_AUTOSCALED_TIMELINE_DIGEST


# An on-demand pool grows from one instance to six and shrinks again.
# Under the step policy the scale-up cooldown holds back a second
# scale-out; under target tracking the scale-down cooldown spaces the
# scale-ins. Both digests also move with the evaluation interval and
# the drain poll.


def play_classic_cooldowns(policy: str):
    """240 heavy-tailed Cap3 files from one 4-worker instance, scaled
    between one and six instances by ``policy``."""
    config = ClassicCloudConfig(
        provider="aws",
        instance_type="HCXL",
        n_instances=1,
        workers_per_instance=4,
        seed=1,
        autoscale=AutoscalePlan(
            policy=default_policy(policy), min_instances=1, max_instances=6
        ),
    )
    tasks = cap3_task_specs(
        240, reads_per_file=200, inhomogeneous=True, seed=1
    )
    return ClassicCloudFramework(config).run(get_application("cap3"), tasks)


COOLDOWN_DIGESTS = {
    "step": (
        "14ed954db6f076c37ca2070a3473bea6624d969a65558b2f0300d02f6081b35a",
        "45318ca2a1c3ee0171a0a758529aa6d18b85be704f746de4caef34ca3fb90855",
    ),
    "target-tracking": (
        "fe45b2f697c52f74e6fa46c0105864a6aecc856d41d0e8c5ad279c30614b04cd",
        "31643a56af9016398668962ed389cd4e86e8a2233d8215b547504c2617c7ad8f",
    ),
}


class TestGoldenCooldowns:
    @pytest.mark.parametrize("policy", sorted(COOLDOWN_DIGESTS))
    def test_spans_and_timeline_digests(self, policy):
        with observe(label=policy) as obs:
            result = play_classic_cooldowns(policy)
        assert result.extras["autoscale_instances_added"] == 5
        assert result.extras["autoscale_scale_down_events"] >= 1
        assert (
            trace_stream_digest(obs), timeline_digest(obs)
        ) == COOLDOWN_DIGESTS[policy]
