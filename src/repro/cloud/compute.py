"""Simulated VM compute service (EC2 / Azure Compute).

Instances boot with a provider-dependent delay, run with a small
per-instance performance jitter (the sustained-performance study in
Gunarathne et al. [12] measured std-dev 1.56 % on AWS and 2.25 % on
Azure), and are billed by the full wall-clock hour from boot to
termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from repro.cloud.billing import CostMeter
from repro.cloud.instance_types import InstanceType
from repro.obs.context import current as _current_obs
from repro.sim.engine import Environment

__all__ = ["CloudProvider", "VmInstance"]

# Measured relative std-dev of sustained performance per provider.
_PERF_JITTER_STDDEV = {"aws": 0.0156, "azure": 0.0225}
_BOOT_TIME_S = {"aws": 90.0, "azure": 150.0}


@dataclass
class VmInstance:
    """One running virtual machine."""

    instance_id: str
    instance_type: InstanceType
    env: Environment
    speed_factor: float
    launched_at: float
    terminated_at: float | None = None
    #: Capacity market: "on-demand" (the paper's setup) or "spot".
    market: str = "on-demand"
    #: Hourly rate override (spot price at launch); None bills the
    #: instance type's on-demand price.
    price_per_hour: float | None = None
    #: Accounting mode handed to the meter: "hourly" | "per-second".
    billing: str = "hourly"
    #: Scale-in signal: workers on a draining host stop taking new
    #: tasks and exit, after which the autoscaler terminates the VM.
    draining: bool = False
    #: Set when the provider reclaimed this (spot) instance.
    preempted: bool = False

    @property
    def machine(self):
        """The underlying hardware model."""
        return self.instance_type.machine

    @property
    def is_running(self) -> bool:
        return self.terminated_at is None

    @property
    def hourly_rate(self) -> float:
        """The rate this instance is metered at ($/hour)."""
        if self.price_per_hour is not None:
            return self.price_per_hour
        return self.instance_type.cost_per_hour

    def effective_clock_ghz(self) -> float:
        """Clock rate adjusted by this instance's performance jitter."""
        return self.machine.clock_ghz * self.speed_factor

    def uptime(self) -> float:
        """Seconds from launch until termination (or now)."""
        end = self.terminated_at if self.terminated_at is not None else self.env.now
        return max(0.0, end - self.launched_at)


class CloudProvider:
    """Provisions, drains and terminates VMs, metering their billable
    hours.

    ``on_host_change()``, when given, runs after an instance starts
    draining or is terminated: the workers' ``keep_going`` reads both,
    so the owner rechecks its parked pollers there.
    """

    def __init__(
        self,
        env: Environment,
        provider: str,
        rng: np.random.Generator,
        meter: CostMeter | None = None,
        boot_time_s: float | None = None,
        perf_jitter: float | None = None,
        on_host_change: Callable[[], None] | None = None,
    ):
        if provider not in ("aws", "azure"):
            raise ValueError(f"unknown provider {provider!r}")
        self.env = env
        self.provider = provider
        self.rng = rng
        self.meter = meter
        self.boot_time_s = (
            _BOOT_TIME_S[provider] if boot_time_s is None else boot_time_s
        )
        self.perf_jitter = (
            _PERF_JITTER_STDDEV[provider] if perf_jitter is None else perf_jitter
        )
        self.instances: list[VmInstance] = []
        self._counter = 0
        self._on_host_change = on_host_change
        obs = _current_obs()
        self._tracer = obs.tracer
        self._m_provisioned = obs.metrics.counter(
            f"compute.{provider}.instances_provisioned"
        )
        self._m_terminated = obs.metrics.counter(
            f"compute.{provider}.instances_terminated"
        )
        self._m_boot = obs.metrics.histogram(f"compute.{provider}.boot_seconds")

    def provision(
        self,
        instance_type: InstanceType,
        count: int,
        market: str = "on-demand",
        price_per_hour: float | None = None,
        billing: str = "hourly",
    ) -> Generator:
        """Boot ``count`` instances of ``instance_type`` (process).

        All instances boot concurrently; the process completes when the
        slowest is up.  Returns the list of :class:`VmInstance`.

        ``market`` / ``price_per_hour`` / ``billing`` tag the whole
        batch for the meter: spot instances carry the market price in
        effect at launch, and elastic pools may opt into per-second
        accounting (:mod:`repro.cloud.billing`).
        """
        if market not in ("on-demand", "spot"):
            raise ValueError(f"unknown market {market!r}")
        if instance_type.provider != self.provider:
            raise ValueError(
                f"{instance_type.name} belongs to {instance_type.provider}, "
                f"not {self.provider}"
            )
        if count < 1:
            raise ValueError("count must be >= 1")
        # Boot times are mildly variable; take the max across the fleet.
        boot_times = self.boot_time_s * self.rng.uniform(0.8, 1.4, size=count)
        boot_start = self.env.now
        yield self.env.timeout(float(boot_times.max()) if count else 0.0)
        self._tracer.add(
            "compute.provision",
            track=f"provider.{self.provider}",
            start=boot_start,
            end=self.env.now,
            count=count,
            instance_type=instance_type.name,
        )
        self._m_provisioned.inc(count)
        self._m_boot.observe(self.env.now - boot_start)
        batch: list[VmInstance] = []
        for _ in range(count):
            self._counter += 1
            jitter = 1.0 + self.perf_jitter * float(self.rng.standard_normal())
            instance = VmInstance(
                instance_id=f"{self.provider}-{instance_type.name}-{self._counter}",
                instance_type=instance_type,
                env=self.env,
                speed_factor=max(0.5, jitter),
                launched_at=self.env.now,
                market=market,
                price_per_hour=price_per_hour,
                billing=billing,
            )
            self.instances.append(instance)
            batch.append(instance)
        return batch

    def drain(self, instance: VmInstance) -> None:
        """Scale-in: workers on ``instance`` finish their current task
        and take no new one."""
        instance.draining = True
        if self._on_host_change is not None:
            self._on_host_change()

    def terminate(self, instance: VmInstance, preempted: bool = False) -> None:
        """Stop an instance and meter its billable uptime.

        ``preempted=True`` records a provider-initiated spot preemption:
        under hourly billing the interrupted partial hour is forgiven
        (:class:`~repro.cloud.billing.InstanceUsage`).
        """
        if not instance.is_running:
            raise ValueError(f"{instance.instance_id} already terminated")
        instance.terminated_at = self.env.now
        instance.preempted = preempted
        self._m_terminated.inc()
        if self.meter is not None:
            self.meter.record_instance_usage(
                instance.instance_type.name,
                instance.uptime(),
                instance.hourly_rate,
                billing=instance.billing,
                preempted=preempted,
            )
        if self._on_host_change is not None:
            self._on_host_change()

    def terminate_all(self) -> None:
        """Stop every still-running instance."""
        for instance in self.instances:
            if instance.is_running:
                self.terminate(instance)
