"""Tests for the TwisterAzure iterative-MapReduce extension."""

import numpy as np
import pytest

from repro.cloud.queue import MessageQueue
from repro.obs.context import observe
from repro.twister import (
    IterativeMapReduce,
    TwisterAzureSimulator,
    TwisterSimConfig,
    kmeans_mapreduce,
)


class TestIterativeMapReduce:
    def make_engine(self):
        # Distributed mean estimation: state converges to the data mean.
        return IterativeMapReduce(
            map_fn=lambda part, state: [
                ("sum", (float(np.sum(part)), len(part)))
            ],
            reduce_fn=lambda key, values: (
                sum(v[0] for v in values),
                sum(v[1] for v in values),
            ),
            merge_fn=lambda reduced, state: (
                state + 0.5 * (reduced["sum"][0] / reduced["sum"][1] - state)
            ),
        )

    def test_converges_to_fixpoint(self):
        data = np.arange(100.0)
        partitions = list(np.array_split(data, 4))
        engine = self.make_engine()
        result = engine.run(
            partitions,
            initial_state=0.0,
            max_iterations=100,
            converged=lambda old, new: abs(new - old) < 1e-9,
        )
        assert result.converged
        assert result.final_state == pytest.approx(data.mean())
        assert result.iterations < 100

    def test_max_iterations_respected(self):
        data = np.arange(10.0)
        engine = self.make_engine()
        result = engine.run(
            [data], initial_state=0.0, max_iterations=3
        )
        assert result.iterations == 3
        assert not result.converged

    def test_history_kept_when_requested(self):
        engine = self.make_engine()
        result = engine.run(
            [np.arange(10.0)],
            initial_state=0.0,
            max_iterations=5,
            keep_history=True,
        )
        assert len(result.history) == 5

    def test_validation(self):
        engine = self.make_engine()
        with pytest.raises(ValueError):
            engine.run([], initial_state=0.0)
        with pytest.raises(ValueError):
            engine.run([np.arange(3.0)], initial_state=0.0, max_iterations=0)


class TestKMeans:
    def clustered_points(self, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        return (
            np.concatenate(
                [c + rng.normal(scale=0.4, size=(80, 2)) for c in centers]
            ),
            centers,
        )

    def test_recovers_cluster_centers(self):
        points, truth = self.clustered_points()
        centroids, result = kmeans_mapreduce(points, n_clusters=3, seed=3)
        assert result.converged
        # Each true center matched by some centroid within the noise.
        for center in truth:
            nearest = np.linalg.norm(centroids - center, axis=1).min()
            assert nearest < 0.5

    def test_deterministic(self):
        points, _ = self.clustered_points()
        a, _ = kmeans_mapreduce(points, 3, seed=7)
        b, _ = kmeans_mapreduce(points, 3, seed=7)
        np.testing.assert_allclose(a, b)

    def test_partitioning_invariance(self):
        """Twister's caching contract: the answer must not depend on how
        the static data is partitioned."""
        points, _ = self.clustered_points(seed=1)
        one, _ = kmeans_mapreduce(points, 3, n_partitions=1, seed=5)
        many, _ = kmeans_mapreduce(points, 3, n_partitions=7, seed=5)
        np.testing.assert_allclose(one, many, rtol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans_mapreduce(np.zeros(5), 2)
        with pytest.raises(ValueError):
            kmeans_mapreduce(np.zeros((5, 2)), 6)


class TestTwisterSimulator:
    def test_caching_wins_after_first_iteration(self):
        sim = TwisterAzureSimulator(TwisterSimConfig(n_iterations=10))
        results = sim.compare()
        naive, twister = results["naive"], results["twister"]
        # Iteration 1 pays the static download either way.
        assert twister.first_iteration_seconds == pytest.approx(
            naive.first_iteration_seconds, rel=0.10
        )
        # Steady-state iterations skip the 64 MB static download.
        assert (
            twister.steady_iteration_seconds
            < naive.steady_iteration_seconds * 0.85
        )
        assert twister.total_seconds < naive.total_seconds

    def test_advantage_grows_with_iterations(self):
        short = TwisterAzureSimulator(
            TwisterSimConfig(n_iterations=2)
        ).compare()
        long = TwisterAzureSimulator(
            TwisterSimConfig(n_iterations=20)
        ).compare()

        def saving(results):
            return (
                results["naive"].total_seconds
                / results["twister"].total_seconds
            )

        assert saving(long) > saving(short)

    @pytest.mark.parametrize("mode", ["naive", "twister"])
    def test_every_map_task_runs_once_per_iteration(self, monkeypatch, mode):
        """A worker whose first receive comes back empty keeps polling
        instead of skipping its map task."""
        queues = []
        init = MessageQueue.__init__

        def spy(queue, *args, **kwargs):
            init(queue, *args, **kwargs)
            queues.append(queue)

        monkeypatch.setattr(MessageQueue, "__init__", spy)
        config = TwisterSimConfig(n_workers=4, seed=0)
        with observe() as obs:
            TwisterAzureSimulator(config).run(mode)
        (queue,) = queues
        expected = config.n_workers * config.n_iterations
        assert queue.stats.sent == queue.stats.deleted == expected
        assert queue.approximate_size() == 0
        computes = [s for s in obs.tracer.spans if s.name == "task.compute"]
        per_iteration = [
            sum(1 for s in computes if s.args["iteration"] == i)
            for i in range(config.n_iterations)
        ]
        assert per_iteration == [config.n_workers] * config.n_iterations

    def test_validation(self):
        with pytest.raises(ValueError):
            TwisterSimConfig(n_workers=0)
        with pytest.raises(ValueError):
            TwisterSimConfig(n_iterations=0)
        with pytest.raises(ValueError):
            TwisterSimConfig(static_partition_bytes=-1)
        sim = TwisterAzureSimulator(TwisterSimConfig())
        with pytest.raises(ValueError):
            sim.run("warp-speed")
        with pytest.raises(KeyError):
            TwisterAzureSimulator(TwisterSimConfig(instance_type="Huge"))
