"""The :class:`AutoscaleController`: an elastic worker pool, in-sim.

The paper's deployments are static — "HCXL - 16 x 8" stays sixteen
instances from provisioning to teardown.  The controller replaces that
with the elastic shape modern clouds sell: it watches the scheduling
queue's backlog, asks an :mod:`~repro.autoscale.policies` policy for a
desired pool size once per evaluation interval, and provisions or drains
simulated instances mid-run, paying real boot latency
(:class:`~repro.cloud.compute.CloudProvider`) and honouring scale-up /
scale-down cooldowns.

When the plan's :class:`~repro.cloud.spot.BidStrategy` uses the spot
market, the controller also plays the market: a preemption watcher steps
the seeded :class:`~repro.cloud.spot.SpotPriceTrace` at its change
points and, the moment the price exceeds the bid, reclaims every spot
instance by interrupting its workers — exactly the
:class:`~repro.sim.engine.Interrupt` path fault-injected crashes use, so
a preempted worker's in-flight task message reappears after the
visibility timeout and another worker re-executes it.  Preemption
therefore never loses tasks; it only costs time.

Everything the controller does is driven by ``env.now`` and named RNG
streams, so a seed fully determines pool sizes, preemption times, and
the resulting bill.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autoscale.plan import AutoscalePlan
from repro.cloud.compute import CloudProvider, VmInstance
from repro.cloud.instance_types import InstanceType
from repro.cloud.spot import SpotPriceTrace
from repro.obs.context import current as _current_obs
from repro.sim.engine import Environment

__all__ = ["AutoscaleController", "active_in"]

#: Seconds of simulated time between policy evaluations.
_EVALUATION_INTERVAL_S = 30.0
#: Minimum seconds between two scale-ups, and between two scale-downs.
_SCALE_UP_COOLDOWN_S = 60.0
_SCALE_DOWN_COOLDOWN_S = 120.0
#: Seconds between liveness polls while draining a scaled-in instance
#: (its workers finish their current task first).
_DRAIN_POLL_S = 1.0


def active_in(pool: "list[VmInstance]") -> "list[VmInstance]":
    """Running, non-draining members of ``pool`` (launch order)."""
    return [i for i in pool if i.is_running and not i.draining]


class AutoscaleController:
    """Drives one elastic pool for the lifetime of a run.

    The framework hands the controller callbacks instead of itself, so
    the controller stays ignorant of worker internals:

    * ``backlog()`` — the work the pool chases: the scheduling queue's
      approximate size for a batch run, the jobs in the system for the
      job service (whose scheduler holds jobs back from the queue);
    * ``spawn_workers(instance)`` — start the configured workers on a
      freshly booted instance, returning their processes;
    * ``is_done()`` — True once every task is accounted for (the
      controller's background processes stop evaluating then).
    """

    def __init__(
        self,
        env: Environment,
        plan: AutoscalePlan,
        provider: CloudProvider,
        instance_type: InstanceType,
        workers_per_instance: int,
        backlog: Callable[[], int],
        spot_rng: np.random.Generator,
        spawn_workers: Callable[[VmInstance], list],
        is_done: Callable[[], bool],
    ):
        self.env = env
        self.plan = plan
        self.provider = provider
        self.instance_type = instance_type
        self.workers_per_instance = workers_per_instance
        self.backlog = backlog
        self.spawn_workers = spawn_workers
        self.is_done = is_done

        on_demand_price = instance_type.cost_per_hour
        self.trace: SpotPriceTrace | None = None
        self.bid_price = on_demand_price
        if plan.bid.uses_spot:
            self.trace = SpotPriceTrace(
                plan.spot_market, on_demand_price, spot_rng
            )
            self.bid_price = plan.bid.bid_price(on_demand_price)

        #: Every instance the controller ever launched, in launch order.
        self.pool: list[VmInstance] = []
        self._workers: dict[str, list] = {}  # instance_id -> processes
        self._last_scale_up = -float("inf")
        self._last_scale_down = -float("inf")

        # Outcome counters, reported through RunResult extras.
        self.preemptions = 0
        self.scale_up_events = 0
        self.scale_down_events = 0
        self.instances_added = 0
        self.instances_removed = 0
        self.spot_unavailable = 0
        self.peak_instances = 0

        obs = _current_obs()
        self._tracer = obs.tracer
        self._timeline = obs.timeline
        self._g_pool = obs.metrics.gauge("autoscale.pool_instances")
        self._g_spot = obs.metrics.gauge("autoscale.pool_spot_instances")
        self._g_backlog = obs.metrics.gauge("autoscale.backlog")
        self._c_preempt = obs.metrics.counter("autoscale.preemptions")
        self._c_added = obs.metrics.counter("autoscale.instances_added")
        self._c_removed = obs.metrics.counter("autoscale.instances_removed")
        self._c_unavailable = obs.metrics.counter("autoscale.spot_unavailable")

    # -- pool accounting -------------------------------------------------------
    def active_instances(self) -> list[VmInstance]:
        """Running, non-draining members of the pool (launch order)."""
        return active_in(self.pool)

    def _update_gauges(self) -> None:
        active = self.active_instances()
        n_spot = sum(1 for i in active if i.market == "spot")
        if len(active) > self.peak_instances:
            self.peak_instances = len(active)
        self._g_pool.set(float(len(active)))
        self._g_spot.set(float(n_spot))
        now = self.env.now
        self._timeline.sample("autoscale.pool_instances", now, len(active))
        self._timeline.sample("autoscale.pool_spot_instances", now, n_spot)

    def track(self, instance: VmInstance, workers: list) -> None:
        """Adopt an externally provisioned instance and its workers."""
        if instance not in self.pool:
            self.pool.append(instance)
        self._workers[instance.instance_id] = list(workers)
        self._update_gauges()

    # -- provisioning ----------------------------------------------------------
    def _spot_price_now(self) -> float:
        assert self.trace is not None
        return self.trace.price_at(self.env.now)

    def _market_split(self, count: int) -> tuple[int, int]:
        """(n_spot, n_on_demand) for a request, after availability.

        Spot capacity is unavailable while the market price exceeds the
        bid; a mixed strategy falls back to on-demand for that portion,
        a pure-spot strategy simply gets fewer instances.
        """
        n_spot, n_od = self.plan.bid.split(count)
        if n_spot and self._spot_price_now() > self.bid_price:
            self.spot_unavailable += n_spot
            self._c_unavailable.inc(n_spot)
            if self.plan.bid.kind == "mixed":
                n_od += n_spot
            n_spot = 0
        return n_spot, n_od

    def _provision(self, count: int, market: str):
        """Boot ``count`` instances in one market (process)."""
        price = None
        if market == "spot":
            price = self._spot_price_now()
        batch = yield self.env.process(
            self.provider.provision(
                self.instance_type,
                count,
                market=market,
                price_per_hour=price,
                billing=self.plan.billing,
            )
        )
        return batch

    def launch_initial(self, count: int):
        """Boot the initial fleet (process); returns the instances.

        The initial fleet falls back to on-demand when the spot market
        is above bid — a run must be able to start.  Workers are spawned
        by the caller (the framework driver), which then adopts the
        instances via :meth:`track`.
        """
        count = self.plan.clamp(count)
        n_spot, n_od = self.plan.bid.split(count)
        if n_spot and self._spot_price_now() > self.bid_price:
            self.spot_unavailable += n_spot
            self._c_unavailable.inc(n_spot)
            n_od += n_spot
            n_spot = 0
        batches = []
        if n_od:
            batches.append(self.env.process(self._provision(n_od, "on-demand")))
        if n_spot:
            batches.append(self.env.process(self._provision(n_spot, "spot")))
        instances: list[VmInstance] = []
        for proc in batches:
            batch = yield proc
            instances.extend(batch)
        self.pool.extend(instances)
        return instances

    # -- background processes --------------------------------------------------
    def start(self) -> None:
        """Spawn the evaluation loop and (if bidding) the market watcher."""
        self.env.process(self._evaluate_loop(), name="autoscaler")
        if self.trace is not None:
            self.env.process(self._market_watcher(), name="spot-market")
        self._update_gauges()

    def _evaluate_loop(self):
        plan = self.plan
        while not self.is_done():
            yield self.env.timeout(_EVALUATION_INTERVAL_S)
            if self.is_done():
                return
            backlog = self.backlog()
            self._g_backlog.set(float(backlog))
            self._timeline.sample("autoscale.backlog", self.env.now, backlog)
            active = self.active_instances()
            current = len(active)
            desired = plan.clamp(
                plan.policy.desired_instances(
                    backlog=backlog,
                    current_instances=current,
                    workers_per_instance=self.workers_per_instance,
                )
            )
            now = self.env.now
            if desired > current:
                if now - self._last_scale_up < _SCALE_UP_COOLDOWN_S:
                    continue
                yield from self._scale_up(desired - current)
            elif desired < current:
                if now - self._last_scale_down < _SCALE_DOWN_COOLDOWN_S:
                    continue
                self._scale_down(current - desired)

    def _scale_up(self, count: int):
        """Add ``count`` instances (runs inside the evaluation loop)."""
        n_spot, n_od = self._market_split(count)
        if n_spot + n_od == 0:
            return  # pure-spot above bid: retry next evaluation
        start = self.env.now
        batches = []
        if n_od:
            batches.append(self.env.process(self._provision(n_od, "on-demand")))
        if n_spot:
            batches.append(self.env.process(self._provision(n_spot, "spot")))
        fresh: list[VmInstance] = []
        for proc in batches:
            batch = yield proc
            fresh.extend(batch)
        for instance in fresh:
            self.pool.append(instance)
            self._workers[instance.instance_id] = list(
                self.spawn_workers(instance)
            )
        # The market may have moved above bid during the boot wait; the
        # provider cancels such launches immediately (watcher processes
        # only wake at price-change boundaries, so catch it here).
        if self.trace is not None and self._spot_price_now() > self.bid_price:
            for instance in fresh:
                if instance.market == "spot" and instance.is_running:
                    self._preempt(instance)
        self.scale_up_events += 1
        self.instances_added += len(fresh)
        self._c_added.inc(len(fresh))
        self._last_scale_up = self.env.now
        self._tracer.add(
            "autoscale.scale_up",
            track="autoscale",
            start=start,
            end=self.env.now,
            count=len(fresh),
            spot=n_spot,
            on_demand=n_od,
        )
        self._update_gauges()

    def _scale_down(self, count: int) -> None:
        """Drain the ``count`` newest instances (finish current tasks)."""
        victims = sorted(
            self.active_instances(),
            key=lambda i: (i.launched_at, i.instance_id),
        )[-count:]
        for instance in victims:
            self.provider.drain(instance)
            self.env.process(
                self._drainer(instance),
                name=f"drain-{instance.instance_id}",
            )
        self.scale_down_events += 1
        self.instances_removed += len(victims)
        self._c_removed.inc(len(victims))
        self._last_scale_down = self.env.now
        self._tracer.instant(
            "autoscale.scale_down",
            track="autoscale",
            ts=self.env.now,
            count=len(victims),
        )
        self._update_gauges()

    def _drainer(self, instance: VmInstance):
        """Terminate a draining instance once its workers have exited."""
        while any(
            w.is_alive for w in self._workers.get(instance.instance_id, [])
        ):
            yield self.env.timeout(_DRAIN_POLL_S)
        if instance.is_running:
            self.provider.terminate(instance)
        self._update_gauges()

    # -- the spot market -------------------------------------------------------
    def _market_watcher(self):
        """Step the price trace; reclaim spot capacity bid below it."""
        assert self.trace is not None
        while not self.is_done():
            if self._spot_price_now() > self.bid_price:
                for instance in list(self.pool):
                    if instance.market == "spot" and instance.is_running:
                        self._preempt(instance)
                self._update_gauges()
            next_change = self.trace.next_change_after(self.env.now)
            yield self.env.timeout(next_change - self.env.now)

    def _preempt(self, instance: VmInstance) -> None:
        """Provider-initiated reclaim: kill workers mid-task, forgive
        the interrupted partial hour (hourly billing)."""
        for worker in self._workers.get(instance.instance_id, []):
            if worker.is_alive:
                worker.interrupt("spot-preempted")
        self.provider.terminate(instance, preempted=True)
        self.preemptions += 1
        self._c_preempt.inc()
        self._tracer.instant(
            "autoscale.preemption",
            track="autoscale",
            ts=self.env.now,
            instance=instance.instance_id,
            price=self._spot_price_now(),
            bid=self.bid_price,
        )

    # -- reporting -------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Float extras for :class:`~repro.core.task.RunResult`."""
        spot_seconds = sum(
            i.uptime() for i in self.pool if i.market == "spot"
        )
        od_seconds = sum(
            i.uptime() for i in self.pool if i.market == "on-demand"
        )
        return {
            "autoscale_preemptions": float(self.preemptions),
            "autoscale_scale_up_events": float(self.scale_up_events),
            "autoscale_scale_down_events": float(self.scale_down_events),
            "autoscale_instances_added": float(self.instances_added),
            "autoscale_instances_removed": float(self.instances_removed),
            "autoscale_spot_unavailable": float(self.spot_unavailable),
            "autoscale_peak_instances": float(self.peak_instances),
            "autoscale_spot_seconds": float(spot_seconds),
            "autoscale_on_demand_seconds": float(od_seconds),
        }
