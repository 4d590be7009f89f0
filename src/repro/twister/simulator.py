"""Per-iteration cost of iterative MapReduce on the Azure substrate.

Contrasts the two architectures the TwisterAzure work motivates:

* **naive** — each iteration is a fresh Classic Cloud job: every map
  task's message goes through the queue, and every worker re-downloads
  its static data partition from blob storage before computing;
* **twister** — workers are long-lived: static partitions download once
  (iteration 1); subsequent iterations only fetch the small dynamic
  state (broadcast via blob) and ship back small reduced outputs, with
  tasks dispatched through lightweight per-iteration messages.

The simulator plays both on the simulated Azure queue/blob services and
reports per-iteration and total times — quantifying why the paper's
authors bothered building TwisterAzure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.instance_types import get_instance_type
from repro.cloud.queue import MessageQueue
from repro.cloud.storage import BlobStore
from repro.core.attempt import add_phases
from repro.obs.context import current as _current_obs
from repro.sim.engine import make_environment
from repro.sim.rng import RngRegistry

__all__ = ["TwisterAzureSimulator", "TwisterSimConfig"]

#: Bytes of dynamic state (e.g. centroids) broadcast each iteration; each
#: worker's reduced output is the same size.
_DYNAMIC_STATE_BYTES = 100_000
#: Seconds each worker computes per iteration.
_COMPUTE_S = 5.0


@dataclass(frozen=True)
class TwisterSimConfig:
    """One iterative job's shape."""

    n_workers: int = 16
    instance_type: str = "Small"
    n_iterations: int = 10
    static_partition_bytes: int = 256_000_000  # per worker
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_workers < 1 or self.n_iterations < 1:
            raise ValueError("workers and iterations must be >= 1")
        if self.static_partition_bytes < 0:
            raise ValueError("static_partition_bytes must be non-negative")


@dataclass(frozen=True)
class TwisterSimResult:
    """Outcome of one simulated iterative run."""

    mode: str
    total_seconds: float
    first_iteration_seconds: float
    steady_iteration_seconds: float
    per_iteration: tuple[float, ...]


class TwisterAzureSimulator:
    """Play an iterative job in 'naive' or 'twister' mode."""

    def __init__(self, config: TwisterSimConfig):
        self.config = config
        # Validate the instance type exists (Azure catalog).
        get_instance_type("azure", config.instance_type)

    def run(self, mode: str) -> TwisterSimResult:
        """``mode`` is 'naive' (re-download static data every iteration)
        or 'twister' (cache it on long-lived workers)."""
        if mode not in ("naive", "twister"):
            raise ValueError(f"unknown mode {mode!r}")
        config = self.config
        obs = _current_obs()
        tracer = obs.tracer
        env = make_environment()
        rng = RngRegistry(config.seed)
        storage = BlobStore(
            env, "twister-storage", rng.stream("storage"),
            consistency_window_s=0.0,
        )
        queue = MessageQueue(
            env, "twister-tasks", rng.stream("queue"), miss_probability=0.0
        )
        storage.stage("static", config.static_partition_bytes)
        storage.stage("dynamic", _DYNAMIC_STATE_BYTES)
        iteration_times: list[float] = []

        def worker(first: bool, index: int, iteration: int):
            """One worker's single iteration: poll (Classic Cloud's
            default 1 s backoff) until its map task's message arrives."""
            msg = yield from queue.poll(
                lambda: True, 1.0, stable_until=math.inf
            )
            t0 = env.now
            if mode == "naive" or first:
                yield env.process(storage.get("static"))
            yield env.process(storage.get("dynamic"))
            download_end = env.now
            yield env.timeout(_COMPUTE_S)
            compute_end = env.now
            # Ship the (small) reduced output back.
            yield env.process(storage.put("out", _DYNAMIC_STATE_BYTES))
            upload_end = env.now
            yield env.process(queue.delete(msg))
            add_phases(
                tracer,
                f"{mode}-worker-{index}",
                (t0, download_end, compute_end, upload_end),
                iteration=iteration,
            )

        def driver():
            for iteration in range(config.n_iterations):
                start = env.now
                for _ in range(config.n_workers):
                    yield env.process(queue.send("map"))
                barrier = env.all_of(
                    [
                        env.process(
                            worker(
                                first=(iteration == 0),
                                index=index,
                                iteration=iteration,
                            )
                        )
                        for index in range(config.n_workers)
                    ]
                )
                yield barrier
                # Merge + convergence check at the driver.
                yield env.process(storage.get("out"))
                yield env.process(storage.put("dynamic", _DYNAMIC_STATE_BYTES))
                iteration_times.append(env.now - start)
                tracer.add(
                    "twister.iteration",
                    track=f"{mode}-driver",
                    start=start,
                    end=env.now,
                    iteration=iteration,
                    mode=mode,
                )

        process = env.process(driver())
        env.run(until=process)
        obs.metrics.counter("sim.events").inc(env.events_scheduled)
        iteration_hist = obs.metrics.histogram(
            f"twister.{mode}.iteration_seconds"
        )
        for seconds in iteration_times:
            iteration_hist.observe(seconds)
        return TwisterSimResult(
            mode=mode,
            total_seconds=env.now,
            first_iteration_seconds=iteration_times[0],
            steady_iteration_seconds=(
                iteration_times[-1]
                if len(iteration_times) == 1
                else sum(iteration_times[1:]) / (len(iteration_times) - 1)
            ),
            per_iteration=tuple(iteration_times),
        )

    def compare(self) -> dict[str, TwisterSimResult]:
        """Run both modes on identical parameters."""
        return {mode: self.run(mode) for mode in ("naive", "twister")}
