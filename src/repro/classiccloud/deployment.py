"""One simulated Classic Cloud deployment (paper Figure 1), shared by
the batch :class:`~repro.classiccloud.framework.ClassicCloudFramework`
and the multi-tenant :class:`~repro.serve.service.JobService`."""

from __future__ import annotations

from typing import Callable, Iterable

from repro.autoscale.controller import AutoscaleController, active_in
from repro.classiccloud.worker import WorkerFleet
from repro.cloud.billing import BillingReport, CostMeter
from repro.cloud.compute import CloudProvider
from repro.cloud.failures import check_bounds
from repro.cloud.pricing import AWS_PRICES, AZURE_PRICES
from repro.cloud.queue import MessageQueue
from repro.cloud.storage import BlobStore
from repro.obs.context import current as _current_obs
from repro.sim.engine import make_environment
from repro.sim.rng import RngRegistry

__all__ = ["Deployment", "check_deployment"]


def check_deployment(config) -> None:
    """Reject the out-of-range settings a ``ClassicCloudConfig`` and a
    ``ServeConfig`` share, when the config is built rather than mid-run."""
    check_bounds([
        ("visibility_timeout_s", config.visibility_timeout_s is None
         or config.visibility_timeout_s >= 0, ">= 0 or None"),
        ("poll_backoff_s", config.poll_backoff_s >= 0, ">= 0"),
        ("consistency_window_s", config.consistency_window_s >= 0, ">= 0"),
        ("max_sim_seconds", config.max_sim_seconds > 0, "> 0"),
        ("perf_jitter", config.perf_jitter is None or config.perf_jitter >= 0,
         ">= 0 or None"),
    ])


class Deployment:
    """Event loop, RNG streams, meter and storage of one run; then the
    provider, worker fleet and optional autoscale controller.

    ``config`` is a ``ClassicCloudConfig`` or a ``ServeConfig``.  The
    owner creates its queues (:meth:`queue`) in its own order before
    :meth:`add_fleet`; then :meth:`provision`, :meth:`start` and
    :meth:`finish` play the run.  Callbacks handed to the services close
    over locals, never over the deployment or its owner, which hold the
    services: such a cycle only the cyclic collector could free.
    """

    def __init__(
        self, config, *, storage_error_rate: float = 0.0, retry_policy=None
    ):
        self.config = config
        self.obs = _current_obs()  # the ambient bundle, captured once
        self.env = make_environment()
        self.rng = RngRegistry(config.seed)
        self.meter = CostMeter(
            AWS_PRICES if config.provider == "aws" else AZURE_PRICES
        )
        self.storage = BlobStore(
            self.env,
            "storage",
            self.rng.stream("storage"),
            meter=self.meter,
            consistency_window_s=config.consistency_window_s,
            error_rate=storage_error_rate,
            retry_policy=retry_policy,
        )
        #: The fleet booted at the start.
        self.instances: list = []

    def queue(self, name: str, stream: str, **options) -> MessageQueue:
        """A metered queue on this run's loop, drawing from ``stream``."""
        return MessageQueue(
            self.env, name, self.rng.stream(stream), meter=self.meter,
            **options,
        )

    def visibility_timeout(self, runtimes: Iterable[float]) -> float:
        """The configured timeout, else three times the worst of
        ``runtimes`` (read only then) and at least a minute: headroom
        for download, upload and stragglers."""
        if self.config.visibility_timeout_s is not None:
            return self.config.visibility_timeout_s
        return max(60.0, 3.0 * max(runtimes))

    def add_fleet(
        self,
        task_queue: MessageQueue,
        *,
        is_done: Callable[[], bool],
        backlog: Callable[[], int],
        utilization: bool = False,
        **fleet_options,
    ) -> None:
        """The provider, a :class:`WorkerFleet` polling ``task_queue``
        (``fleet_options`` are its owner-supplied fields) and, with an
        autoscale plan, the controller chasing ``backlog()`` until
        ``is_done()``.  With ``utilization`` the fleet samples
        ``workers.utilization`` against the configured worker count, or
        the elastic pool's live slots."""
        config, env = self.config, self.env
        self.task_queue = task_queue
        self.cloud = cloud = CloudProvider(
            env,
            config.provider,
            self.rng.stream("provision"),
            meter=self.meter,
            perf_jitter=config.perf_jitter,
            on_host_change=task_queue.recheck,
        )
        per_instance = config.workers_per_instance
        self.workers = workers = WorkerFleet(
            env=env,
            rng=self.rng,
            obs=self.obs,
            task_queue=task_queue,
            storage=self.storage,
            workers_per_instance=per_instance,
            poll_backoff_s=config.poll_backoff_s,
            **fleet_options,
        )
        self.controller: AutoscaleController | None = None
        pool = self.instances
        if config.autoscale is not None:
            self.controller = AutoscaleController(
                env,
                config.autoscale,
                cloud,
                config.resolve_instance_type(),
                per_instance,
                backlog,
                self.rng.stream("spot-market"),
                spawn_workers=workers.spawn_instance,
                is_done=is_done,
            )
            pool = self.controller.pool
        #: Worker slots on the running, non-draining instances.
        self.capacity_slots = lambda: len(active_in(pool)) * per_instance
        if utilization and self.controller is not None:
            workers.slots = self.capacity_slots
        elif utilization:
            configured = config.n_instances * per_instance
            workers.slots = lambda: configured

    def provision(self):
        """Boot the configured fleet into :attr:`instances` (a process
        step): through the controller when autoscaled, else statically;
        an empty fleet boots nothing."""
        config, instances = self.config, []
        if self.controller is not None:
            instances = yield self.env.process(
                self.controller.launch_initial(config.n_instances)
            )
        elif config.n_instances > 0:
            instances = yield self.env.process(
                self.cloud.provision(
                    config.resolve_instance_type(), config.n_instances
                )
            )
        self.instances.extend(instances)

    def start(self, at: float) -> None:
        """Bill the booted fleet from ``at``, the start of the measured
        window (the paper leaves environment preparation out of the
        hourly charges), start its workers, then the controller."""
        for instance in self.instances:
            instance.launched_at = at
        for instance in self.instances:
            procs = self.workers.spawn_instance(instance)
            if self.controller is not None:
                self.controller.track(instance, procs)
        if self.controller is not None:
            self.controller.start()

    def finish(
        self, *, detailed: bool = False
    ) -> "tuple[BillingReport, dict[str, float]]":
        """Tear the fleet down; return the bill and the run's extras:
        the task queue's empty receives, reappearances, stale deletes
        and visibility timeout, then the controller's summary.
        ``detailed`` keeps duplicate deliveries, stale storage reads and
        dead letters among them, in the batch run's order."""
        self.cloud.terminate_all()
        report = self.meter.report()
        self.obs.metrics.counter("sim.events").inc(self.env.events_scheduled)
        stats = self.task_queue.stats
        extras = {
            "empty_receives": float(stats.empty_receives),
            "reappearances": float(stats.reappearances),
            "duplicate_deliveries": float(stats.duplicate_deliveries),
            "stale_deletes": float(stats.stale_deletes),
            "stale_reads": float(self.storage.stats.stale_reads),
            "visibility_timeout_s": self.task_queue.visibility_timeout_s,
            "dead_lettered": float(stats.dead_lettered),
        }
        if not detailed:
            for key in ("duplicate_deliveries", "stale_reads", "dead_lettered"):
                del extras[key]
        if self.controller is not None:
            extras.update(self.controller.summary())
        return report, extras
