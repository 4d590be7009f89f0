"""Parked idle polling replays the eager poll loop exactly.

An idle :meth:`MessageQueue.poll` leaves the event heap and the queue
replays its cycles when it is next observed.  The ``eager_polling``
fixture (tests/conftest.py) turns parking off, which is the oracle:
every seeded run must produce the same results, request counts, poller
resume times and final queue generator states either way.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.autoscale.plan import AutoscalePlan
from repro.chaos.plan import ChaosPlan
from repro.chaos.retry import RetryPolicy
from repro.chaos.speculation import SpeculationPolicy
from repro.classiccloud import (
    ClassicCloudConfig,
    ClassicCloudFramework,
    LocalAugmentation,
)
from repro.cloud.billing import CostMeter
from repro.cloud.failures import FaultPlan, WorkerCrash
from repro.cloud.pricing import AWS_PRICES
from repro.cloud.queue import MessageQueue, _PollEntry
from repro.cloud.spot import BidStrategy, SpotMarketModel
from repro.core.application import get_application
from repro.serve import ServeConfig, default_tenants
from repro.serve.service import JobService
from repro.sim.engine import Environment
from repro.workloads.genome import cap3_task_specs


class Spy:
    """Every queue built and every poll's return, for one run."""

    def __init__(self, monkeypatch):
        self.queues: list[MessageQueue] = []
        self.resumes: list[tuple] = []
        init, poll = MessageQueue.__init__, MessageQueue.poll
        spy = self

        def spy_init(queue, *args, **kwargs):
            init(queue, *args, **kwargs)
            spy.queues.append(queue)

        def spy_poll(queue, *args, **kwargs):
            message = yield from poll(queue, *args, **kwargs)
            spy.resumes.append(
                (
                    queue.name,
                    queue.env.now,
                    None if message is None else message.message_id,
                )
            )
            return message

        monkeypatch.setattr(MessageQueue, "__init__", spy_init)
        monkeypatch.setattr(MessageQueue, "poll", spy_poll)

    def observed(self) -> dict:
        # The meter first: reading stats or rng would replay parked
        # cycles, and the run's own settling must already have done so.
        return {
            "resumes": self.resumes,
            "queues": [
                (
                    queue.name,
                    None if queue.meter is None else queue.meter.queue_requests,
                    asdict(queue.stats),
                    queue.rng.bit_generator.state,
                )
                for queue in self.queues
            ],
        }


def both_modes(monkeypatch, play) -> tuple[dict, dict]:
    """``play()`` with parking on, then under the eager oracle."""
    observed = []
    for eager in (False, True):
        with monkeypatch.context() as patch:
            if eager:
                patch.setattr(_PollEntry, "_may_park", lambda self: False)
            spy = Spy(patch)
            outcome = play()
            observed.append({"outcome": outcome, **spy.observed()})
    return observed[0], observed[1]


def classic(config: ClassicCloudConfig, n_files: int, reads_per_file=200):
    def play():
        tasks = cap3_task_specs(n_files, reads_per_file=reads_per_file)
        try:
            result = ClassicCloudFramework(config).run(
                get_application("cap3"), tasks
            )
        except RuntimeError as error:  # the watchdog deadline
            return repr(error)
        return result.to_dict()

    return play


def base(seed: int, **overrides) -> ClassicCloudConfig:
    fields = dict(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=4,
        seed=seed,
        fault_plan=FaultPlan.none(),
    )
    fields.update(overrides)
    return ClassicCloudConfig(**fields)


SCENARIOS = {
    "crash-restart": lambda seed: classic(
        base(
            seed,
            fault_plan=FaultPlan(
                worker_crashes=[
                    WorkerCrash(worker_index=0, at_time=3.0, restart_after=20.0),
                    WorkerCrash(worker_index=5, at_time=40.0),
                ]
            ),
        ),
        24,
    ),
    "spot-preemption": lambda seed: classic(
        base(
            seed,
            workers_per_instance=8,
            autoscale=AutoscalePlan(
                max_instances=4,
                bid=BidStrategy.spot(),
                spot_market=SpotMarketModel(
                    spike_probability=0.5, interval_s=60.0
                ),
            ),
        ),
        48,
    ),
    "autoscale-drain": lambda seed: classic(
        base(
            seed,
            n_instances=1,
            workers_per_instance=8,
            autoscale=AutoscalePlan(
                max_instances=4, bid=BidStrategy.on_demand()
            ),
        ),
        64,
    ),
    # Scale-in while the drained instance's workers are parked.
    "autoscale-scale-in": lambda seed: classic(
        base(
            seed,
            n_instances=3,
            workers_per_instance=8,
            autoscale=AutoscalePlan(
                min_instances=1, max_instances=4, bid=BidStrategy.on_demand()
            ),
        ),
        20,
        reads_per_file=800,
    ),
    "dead-letter": lambda seed: classic(
        base(
            seed,
            fault_plan=FaultPlan(poison_task_ids=frozenset({"cap3-00002"})),
            max_task_attempts=2,
            visibility_timeout_s=60.0,
        ),
        16,
    ),
    "wan-latency": lambda seed: classic(
        base(seed, n_instances=1, local_augmentation=LocalAugmentation(3)),
        16,
    ),
    "retry-jitter": lambda seed: classic(
        base(
            seed,
            retry_policy=RetryPolicy(base_delay_s=0.5, max_delay_s=8.0),
            fault_plan=FaultPlan(storage_error_rate=0.1),
        ),
        24,
    ),
    "watchdog-deadline": lambda seed: classic(
        base(
            seed,
            n_instances=1,
            workers_per_instance=2,
            max_sim_seconds=400.0,
            fault_plan=FaultPlan(
                worker_crashes=[
                    WorkerCrash(worker_index=0, at_time=2.0),
                    WorkerCrash(worker_index=1, at_time=2.5),
                ]
            ),
        ),
        8,
    ),
    "chaos-speculation": lambda seed: classic(
        base(
            seed,
            chaos=ChaosPlan.at_intensity(1.0, seed=seed, horizon_s=300.0),
            retry_policy=RetryPolicy(),
            speculation=SpeculationPolicy(min_completed=3, poll_s=10.0),
        ),
        32,
    ),
}


def serve_stop(seed: int):
    def play():
        return JobService(
            ServeConfig(
                tenants=default_tenants(),
                n_instances=1,
                duration_s=120.0,
                seed=seed,
            )
        ).run().to_dict()

    return play


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_matches_eager_polling(monkeypatch, scenario):
    parked, eager = both_modes(monkeypatch, SCENARIOS[scenario](seed=3))
    assert parked == eager
    assert any(stats["empty_receives"] for _, _, stats, _ in parked["queues"])


def test_watchdog_deadline_fires_while_parked(monkeypatch):
    parked, eager = both_modes(monkeypatch, SCENARIOS["watchdog-deadline"](3))
    assert "max_sim_seconds=400.0" in parked["outcome"]
    assert parked == eager


def test_serve_stop_matches_eager_polling(monkeypatch):
    parked, eager = both_modes(monkeypatch, serve_stop(seed=5))
    assert parked == eager


def test_seeded_fuzz_matches_eager_polling(monkeypatch):
    """Random scenario x seed draws, with no new dependency."""
    draw = np.random.default_rng(2024)
    names = sorted(SCENARIOS)
    for _ in range(6):
        name = names[int(draw.integers(len(names)))]
        seed = int(draw.integers(1, 10_000))
        parked, eager = both_modes(monkeypatch, SCENARIOS[name](seed))
        assert parked == eager, (name, seed)


def test_parking_removes_most_idle_events(monkeypatch):
    """The point of parking: an idle fleet costs few heap steps.  Nine
    tasks on eight workers leave seven workers polling an empty queue
    while the ninth task runs."""
    counts = []
    for eager in (False, True):
        with monkeypatch.context() as patch:
            if eager:
                patch.setattr(_PollEntry, "_may_park", lambda self: False)
            framework = ClassicCloudFramework(base(7))
            framework.run(
                get_application("cap3"), cap3_task_specs(9, reads_per_file=400)
            )
            counts.append(framework.last_environment.events_scheduled)
    parked, eager = counts
    assert parked < eager / 5


class TestMidRunReads:
    def test_stats_read_from_a_process_sees_eager_counts(self, monkeypatch):
        """``queue.stats`` replays parked cycles before it answers."""

        def play():
            env = Environment()
            meter = CostMeter(AWS_PRICES)
            queue = MessageQueue(env, "q", np.random.default_rng(4), meter)
            seen = []
            for _ in range(3):
                env.process(
                    queue.poll(lambda: True, 1.0, stable_until=float("inf"))
                )

            def reader():
                for _ in range(6):
                    yield env.timeout(2.7)
                    stats = queue.stats
                    seen.append((env.now, stats.requests, stats.empty_receives))
                yield from queue.send("late")

            env.process(reader())
            env.run(until=30.0)
            # Billed as the run returns, with no stats read in between.
            return seen, meter.queue_requests

        parked, eager = both_modes(monkeypatch, play)
        assert parked == eager
        seen, billed = parked["outcome"]
        assert seen[-1][1] > 3 * 6
        assert billed > seen[-1][1]

    def test_bounded_poller_leaves_at_its_bound(self, monkeypatch):
        """``stable_until`` bounds a time-reading ``keep_going``."""

        def play():
            env = Environment()
            queue = MessageQueue(env, "q", np.random.default_rng(9))
            poller = env.process(
                queue.poll(lambda: env.now <= 25.0, 1.0, stable_until=25.0)
            )
            return env.run(until=poller), env.now

        parked, eager = both_modes(monkeypatch, play)
        assert parked == eager
        message, now = parked["outcome"]
        assert message is None and 25.0 < now < 27.0

    def test_recheck_stops_parked_pollers_on_their_grid(self, monkeypatch):
        def play():
            env = Environment()
            queue = MessageQueue(env, "q", np.random.default_rng(6))
            flag = {"go": True}
            pollers = [
                env.process(
                    queue.poll(
                        lambda: flag["go"], 1.0, stable_until=float("inf")
                    )
                )
                for _ in range(4)
            ]

            def stopper():
                yield env.timeout(12.34)
                flag["go"] = False
                queue.recheck()

            env.process(stopper())
            env.run(until=env.all_of(pollers))
            return env.now

        parked, eager = both_modes(monkeypatch, play)
        assert parked == eager
        assert 12.34 < parked["outcome"] < 14.0


class TestBatchedLatency:
    def test_block_draws_equal_scalar_draws(self):
        scalar, block = np.random.default_rng(5), np.random.default_rng(5)
        values = [float(scalar.lognormal(0.0, 0.35)) for _ in range(37)]
        assert block.lognormal(0.0, 0.35, size=37).tolist() == values
        assert block.bit_generator.state == scalar.bit_generator.state

    def test_other_draws_see_the_scalar_sequence(self):
        """A take after a few latency draws rewinds the unused block."""
        env = Environment()
        queue = MessageQueue(env, "q", np.random.default_rng(8))
        reference = np.random.default_rng(8)
        latencies = [queue._latency() for _ in range(3)]
        expected = [
            queue.request_latency_s * float(reference.lognormal(0.0, 0.35))
            for _ in range(3)
        ]
        assert latencies == expected
        assert queue.rng.random() == reference.random()
        assert queue.rng.bit_generator.state == reference.bit_generator.state


class TestRngOwnership:
    """Batched latency draws assume each queue is the only consumer of
    its generator, and :meth:`RngRegistry.stream` hands one generator
    to every caller of a name.  So each queue's stream must be requested
    exactly once per registry."""

    QUEUE_STREAMS = ("queue", "monitor", "dlq")

    def requests(self, monkeypatch, play) -> dict:
        from collections import Counter

        from repro.sim.rng import RngRegistry

        counts: Counter = Counter()
        stream = RngRegistry.stream

        def spy_stream(registry, name):
            counts[(id(registry), name)] += 1
            return stream(registry, name)

        monkeypatch.setattr(RngRegistry, "stream", spy_stream)
        play()
        return {
            key: count
            for key, count in counts.items()
            if key[1] in self.QUEUE_STREAMS
        }

    def test_classic_cloud_queue_streams(self, monkeypatch):
        counts = self.requests(
            monkeypatch,
            SCENARIOS["dead-letter"](seed=1),
        )
        assert sorted(name for _, name in counts) == ["dlq", "monitor", "queue"]
        assert set(counts.values()) == {1}

    def test_serve_queue_stream(self, monkeypatch):
        counts = self.requests(monkeypatch, serve_stop(seed=1))
        assert [name for _, name in counts] == ["queue"]
        assert set(counts.values()) == {1}

    def test_twister_queue_stream(self, monkeypatch):
        from repro.twister.simulator import (
            TwisterAzureSimulator,
            TwisterSimConfig,
        )

        simulator = TwisterAzureSimulator(TwisterSimConfig(n_iterations=2))
        counts = self.requests(monkeypatch, lambda: simulator.run("twister"))
        assert [name for _, name in counts] == ["queue"]
        assert set(counts.values()) == {1}
