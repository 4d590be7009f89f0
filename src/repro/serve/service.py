"""The always-on job service: arrivals → admission → fair share → fleet.

One :class:`JobService` run plays a sustained-traffic window on the
simulated cloud substrate: per-tenant arrival processes submit Cap3 /
BLAST / GTM jobs, the :class:`~repro.serve.admission.AdmissionController`
sheds what the quotas and the global backlog cap refuse, the
:class:`~repro.serve.scheduler.FairShareScheduler` dispatches admitted
jobs into the same at-least-once message queue the ClassicCloud
framework uses, and the ClassicCloud polling workers themselves — the
fleet of one :class:`~repro.classiccloud.deployment.Deployment`, static
or autoscaled, spot preemption included, built as for a batch run —
execute them exactly as in a batch run.

Fault tolerance is inherited, not reimplemented: a worker preempted
mid-job simply dies with its message in flight, the message reappears
after the visibility timeout, and another worker re-executes the
idempotent job — completions are counted once per job id, extra
executions are counted as duplicates.

The arrival window closes after ``duration_s`` of simulated time; the
service then *drains* (no new submissions, the fleet finishes the
backlog) and finally writes off anything still unfinished as
``abandoned`` so the accounting identities close exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from repro.apps.perfmodels import task_runtime_seconds
from repro.autoscale.plan import AutoscalePlan
from repro.classiccloud.deployment import Deployment, check_deployment
from repro.cloud.instance_types import InstanceType, get_instance_type
from repro.core.application import Application, get_application
from repro.core.task import TaskRecord
from repro.obs.metrics import Counter
from repro.serve.admission import AdmissionController, AdmissionOutcome
from repro.serve.scheduler import FairShareScheduler
from repro.serve.tenants import APP_JOB_SHAPES, TenantSpec, peak_rate, rate_at

__all__ = [
    "ServeConfig",
    "JobService",
    "ServeResult",
    "TenantStats",
    "run_serve",
]

@dataclass(frozen=True)
class ServeConfig:
    """One service deployment: tenants, fleet shape, control knobs."""

    tenants: "tuple[TenantSpec, ...]"
    provider: str = "aws"
    instance_type: str = "HCXL"
    #: Fleet size.  ``0`` models a zero-capacity service (everything
    #: queues, sheds, and finally abandons) and requires no autoscale.
    n_instances: int = 2
    workers_per_instance: int = 8
    #: Seconds the arrival window stays open (simulated).
    duration_s: float = 600.0
    #: Service-wide cap on jobs in the system (queued + in flight).
    max_backlog: int = 256
    quantum: float = 4.0
    dispatch_window_factor: float = 2.0
    visibility_timeout_s: float | None = None  # None: auto from perf model
    poll_backoff_s: float = 1.0
    dispatch_poll_s: float = 0.5
    #: How long past the arrival window the drain may run before the
    #: remaining backlog is written off as abandoned.
    drain_timeout_s: float = 1800.0
    seed: int = 0
    autoscale: AutoscalePlan | None = None
    consistency_window_s: float = 1.0
    max_sim_seconds: float = 10_000_000.0
    perf_jitter: float | None = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if self.n_instances < 0:
            raise ValueError("n_instances must be >= 0")
        if self.workers_per_instance < 1:
            raise ValueError("workers_per_instance must be >= 1")
        if self.n_instances == 0 and self.autoscale is not None:
            raise ValueError(
                "zero-capacity runs cannot autoscale: the plan's "
                "min_instances floor would immediately re-provision"
            )
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be non-negative")
        check_deployment(self)
        itype = self.resolve_instance_type()
        if self.workers_per_instance > itype.machine.cores:
            raise ValueError(
                f"{self.workers_per_instance} workers exceed the "
                f"{itype.machine.cores} cores of {itype.name}"
            )

    def resolve_instance_type(self) -> InstanceType:
        return get_instance_type(self.provider, self.instance_type)

    @property
    def label(self) -> str:
        return (
            f"{self.instance_type} - {self.n_instances} x "
            f"{self.workers_per_instance}"
            + (" (autoscaled)" if self.autoscale is not None else "")
        )


@dataclass(frozen=True)
class TenantStats:
    """One tenant's outcome for one service run."""

    name: str
    app: str
    arrival: str
    weight: float
    submitted: int
    admitted: int
    shed_quota: int
    shed_backlog: int
    completed: int
    abandoned: int
    duplicates: int
    mean_latency_s: "float | None"
    p50_s: "float | None"
    p95_s: "float | None"
    p99_s: "float | None"
    slo_p95_s: float
    slo_ok: "bool | None"  # None when nothing completed

    @property
    def shed(self) -> int:
        return self.shed_quota + self.shed_backlog

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "app": self.app,
            "arrival": self.arrival,
            "weight": self.weight,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed_quota": self.shed_quota,
            "shed_backlog": self.shed_backlog,
            "completed": self.completed,
            "abandoned": self.abandoned,
            "duplicates": self.duplicates,
            "mean_latency_s": self.mean_latency_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "slo_p95_s": self.slo_p95_s,
            "slo_ok": self.slo_ok,
        }


@dataclass(frozen=True)
class ServeResult:
    """Everything one sustained-traffic run produced."""

    label: str
    provider: str
    n_instances: int
    workers_per_instance: int
    autoscaled: bool
    duration_s: float
    makespan_s: float
    tenants: "tuple[TenantStats, ...]"
    total_cost: float
    amortized_cost: float
    extras: "dict[str, float]" = field(default_factory=dict)
    records: "list[TaskRecord]" = field(default_factory=list, repr=False)

    # -- totals ------------------------------------------------------------
    @property
    def submitted(self) -> int:
        return sum(t.submitted for t in self.tenants)

    @property
    def admitted(self) -> int:
        return sum(t.admitted for t in self.tenants)

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants)

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants)

    @property
    def abandoned(self) -> int:
        return sum(t.abandoned for t in self.tenants)

    @property
    def duplicates(self) -> int:
        return sum(t.duplicates for t in self.tenants)

    @property
    def cost_per_1k_jobs(self) -> "float | None":
        """Dollars per thousand *completed* jobs (None if none did)."""
        if self.completed == 0:
            return None
        return self.total_cost / self.completed * 1000.0

    def to_dict(self) -> dict:
        """Canonical plain data — the determinism surface for tests."""
        return {
            "label": self.label,
            "provider": self.provider,
            "n_instances": self.n_instances,
            "workers_per_instance": self.workers_per_instance,
            "autoscaled": self.autoscaled,
            "duration_s": self.duration_s,
            "makespan_s": self.makespan_s,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "abandoned": self.abandoned,
            "duplicates": self.duplicates,
            "total_cost": self.total_cost,
            "amortized_cost": self.amortized_cost,
            "cost_per_1k_jobs": self.cost_per_1k_jobs,
            "tenants": [t.to_dict() for t in self.tenants],
            "extras": dict(sorted(self.extras.items())),
        }


def _percentile(sorted_values: "list[float]", p: float) -> "float | None":
    """Exact nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class _JobMeta:
    """Submission-side state for one admitted job."""

    tenant: str
    app: Application
    submitted_at: float


class JobService:
    """One sustained-traffic run of the multi-tenant service."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.tenants = config.tenants
        self.deployment = deployment = Deployment(config)
        self.obs = deployment.obs
        self.tracer = self.obs.tracer
        self.env = env = deployment.env
        self.rng = deployment.rng
        # Per-job counters, fetched from the registry on first use: one
        # created up front would export as a zero-valued metric.
        self._count = count = partial(_count, {}, self.obs.metrics)
        self._apps = apps = {
            spec.app: get_application(spec.app) for spec in self.tenants
        }
        machine = config.resolve_instance_type().machine
        # The visibility envelope: three mean work units cover the
        # lognormal tail at the configured coefficients of variation.
        self.task_queue = task_queue = deployment.queue(
            "serve-tasks",
            "queue",
            visibility_timeout_s=deployment.visibility_timeout(
                task_runtime_seconds(
                    apps[spec.app].perf_model,
                    3.0 * APP_JOB_SHAPES[spec.app][0],
                    machine,
                    concurrent_workers=config.workers_per_instance,
                )
                for spec in self.tenants
            ),
        )
        self.admission = admission = AdmissionController(
            self.tenants, config.max_backlog
        )
        # The callbacks below close over locals, never over the service.
        self._jobs = jobs = {}
        completed: set[str] = set()
        self.measure_start = 0.0

        def record_completion(task_id: str) -> None:
            """Count each job once, however many times it executed."""
            meta = jobs[task_id]
            if task_id in completed:
                admission.duplicate(meta.tenant)
                count("serve.duplicates")
                return
            completed.add(task_id)
            admission.complete(meta.tenant, env.now - meta.submitted_at)
            count("serve.completed")

        # No utilization series: serve reports fleet slots from its own
        # monitor.
        deployment.add_fleet(
            task_queue,
            perf_model=lambda task: jobs[task.task_id].app.perf_model,
            keep_polling=lambda: not scheduler.stopping,
            on_complete=record_completion,
            is_done=lambda: scheduler.stopping,
            backlog=admission.total_in_system,
        )
        self.scheduler = scheduler = FairShareScheduler(
            env,
            self.tenants,
            task_queue,
            quantum=config.quantum,
            dispatch_window_factor=config.dispatch_window_factor,
            dispatch_poll_s=config.dispatch_poll_s,
            capacity_slots=deployment.capacity_slots,
            finished=lambda: len(completed),
        )

    # -- public API --------------------------------------------------------
    def run(self) -> ServeResult:
        driver = self.env.process(self._driver(), name="driver")
        makespan = self.env.run(until=driver)
        report, extras = self.deployment.finish()
        self.admission.check()
        self._publish_latencies()
        tenant_stats = tuple(
            self._tenant_stats(spec) for spec in self.tenants
        )
        return ServeResult(
            label=self.config.label,
            provider=self.config.provider,
            n_instances=self.config.n_instances,
            workers_per_instance=self.config.workers_per_instance,
            autoscaled=self.config.autoscale is not None,
            duration_s=self.config.duration_s,
            makespan_s=makespan,
            tenants=tenant_stats,
            total_cost=report.total_cost,
            amortized_cost=report.total_amortized_cost,
            extras=extras,
            records=self.deployment.workers.records,
        )

    def _tenant_stats(self, spec: TenantSpec) -> TenantStats:
        account = self.admission.accounts[spec.name]
        latencies = sorted(account.latencies)
        p95 = _percentile(latencies, 95)
        mean = (
            sum(latencies) / len(latencies) if latencies else None
        )
        return TenantStats(
            name=spec.name,
            app=spec.app,
            arrival=spec.arrival,
            weight=spec.weight,
            submitted=account.submitted,
            admitted=account.admitted,
            shed_quota=account.shed_quota,
            shed_backlog=account.shed_backlog,
            completed=account.completed,
            abandoned=account.abandoned,
            duplicates=account.duplicates,
            mean_latency_s=mean,
            p50_s=_percentile(latencies, 50),
            p95_s=p95,
            p99_s=_percentile(latencies, 99),
            slo_p95_s=spec.slo_p95_s,
            slo_ok=(None if p95 is None else p95 <= spec.slo_p95_s),
        )

    def _publish_latencies(self) -> None:
        metrics = self.obs.metrics
        for spec in self.tenants:
            account = self.admission.accounts[spec.name]
            hist = metrics.histogram(f"serve.latency.{spec.name}")
            for latency in account.latencies:
                hist.observe(latency)

    # -- driver ------------------------------------------------------------
    def _driver(self):
        config = self.config
        yield from self.deployment.provision()
        self.measure_start = self.env.now
        for spec in self.tenants:
            self.env.process(
                self._arrivals(spec), name=f"arrivals-{spec.name}"
            )
        self.env.process(self.scheduler.run(), name="scheduler")
        self.deployment.start(at=self.measure_start)
        if self.obs.enabled:
            self.env.process(self._monitor(), name="serve-monitor")

        # The arrival window, then the drain.
        yield self.env.timeout(config.duration_s)
        drain_deadline = self.env.now + config.drain_timeout_s
        while self.admission.total_in_system() > 0:
            if self.env.now >= drain_deadline:
                break
            if self.env.now - self.measure_start > config.max_sim_seconds:
                raise RuntimeError(
                    f"serve run exceeded max_sim_seconds="
                    f"{config.max_sim_seconds} with "
                    f"{self.admission.total_in_system()} jobs in system"
                )
            yield self.env.timeout(config.dispatch_poll_s)
        abandoned = self.admission.abandon_remaining()
        if abandoned and self.tracer.enabled:
            self.tracer.instant(
                "serve.abandoned",
                track="service",
                ts=self.env.now,
                count=abandoned,
            )
        self.scheduler.stop()
        self.task_queue.recheck()  # the workers' keep_polling() flipped
        return self.env.now - self.measure_start

    # -- arrivals ----------------------------------------------------------
    def _arrivals(self, spec: TenantSpec):
        """Open-loop thinned-Poisson submission stream for one tenant."""
        rng = self.rng.stream(f"arrivals-{spec.name}")
        env = self.env
        end = self.measure_start + self.config.duration_s
        peak = peak_rate(spec)
        index = 0
        while True:
            yield env.timeout(float(rng.exponential(1.0 / peak)))
            now = env.now
            if now >= end:
                return
            accept = rate_at(spec, now - self.measure_start) / peak
            if float(rng.random()) > accept:
                continue  # thinned away: off-peak instant
            index += 1
            self._submit(spec, index, rng, now)

    def _submit(self, spec, index, rng, now) -> None:
        outcome = self.admission.submit(spec.name)
        self._count("serve.submitted")
        self._count(f"serve.{outcome.value}")
        if outcome is not AdmissionOutcome.ADMITTED:
            if self.tracer.enabled:
                self.tracer.instant(
                    "serve.shed",
                    track="service",
                    ts=self.env.now,
                    tenant=spec.name,
                    outcome=outcome.value,
                )
            return
        task = spec.make_task(index, rng)
        self.deployment.storage.stage(task.input_key, task.input_size)
        self.deployment.meter.record_transfer(bytes_in=task.input_size)
        self._jobs[task.task_id] = _JobMeta(
            tenant=spec.name, app=self._apps[spec.app], submitted_at=now
        )
        self.scheduler.enqueue(spec.name, task)

    # -- telemetry ---------------------------------------------------------
    def _monitor(self):
        """Timeline sampling: backlog / sheds / fleet, every 5 sim-s."""
        timeline = self.obs.timeline
        while not self.scheduler.stopping:
            now = self.env.now
            shed = sum(a.shed for a in self.admission.accounts.values())
            done = sum(
                a.completed for a in self.admission.accounts.values()
            )
            timeline.sample(
                "serve.backlog", now, self.admission.total_in_system()
            )
            timeline.sample("serve.queued", now, self.scheduler.queued_total())
            timeline.sample("serve.shed_total", now, shed)
            timeline.sample("serve.completed_total", now, done)
            timeline.sample(
                "serve.fleet_slots", now, self.deployment.capacity_slots()
            )
            yield self.env.timeout(5.0)


def _count(counters: "dict[str, Counter]", metrics, name: str) -> None:
    counter = counters.get(name)
    if counter is None:
        counter = counters[name] = metrics.counter(name)
    counter.inc()


def run_serve(config: ServeConfig) -> ServeResult:
    """One seeded service run.

    The service is built here and nothing else can reach it, so once the
    result exists its event loop is closed (:meth:`Environment.close
    <repro.sim.engine.Environment.close>`) and reference counting frees
    the whole simulation at once.  Build a :class:`JobService` directly
    to keep the live loop.
    """
    service = JobService(config)
    result = service.run()
    service.env.close()
    return result
