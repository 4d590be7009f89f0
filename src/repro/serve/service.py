"""The always-on job service: arrivals → admission → fair share → fleet.

One :class:`JobService` run plays a sustained-traffic window on the
simulated cloud substrate: per-tenant arrival processes submit Cap3 /
BLAST / GTM jobs, the :class:`~repro.serve.admission.AdmissionController`
sheds what the quotas and the global backlog cap refuse, the
:class:`~repro.serve.scheduler.FairShareScheduler` dispatches admitted
jobs into the same at-least-once message queue the ClassicCloud
framework uses, and the ClassicCloud polling workers themselves — one
:class:`~repro.classiccloud.worker.WorkerFleet`, static or autoscaled,
spot preemption included — execute them exactly as in a batch run.

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

from repro.apps.perfmodels import task_runtime_seconds
from repro.autoscale.controller import AutoscaleController
from repro.autoscale.plan import AutoscalePlan
from repro.classiccloud.worker import WorkerFleet
from repro.cloud.billing import CostMeter
from repro.cloud.compute import CloudProvider
from repro.cloud.instance_types import InstanceType, get_instance_type
from repro.cloud.pricing import AWS_PRICES, AZURE_PRICES
from repro.cloud.queue import MessageQueue
from repro.cloud.storage import BlobStore
from repro.core.application import Application, get_application
from repro.core.task import TaskRecord
from repro.obs.context import current as _current_obs
from repro.obs.metrics import Counter
from repro.sim.engine import Environment, make_environment
from repro.sim.rng import RngRegistry
from repro.serve.admission import AdmissionController, AdmissionOutcome
from repro.serve.scheduler import FairShareScheduler
from repro.serve.tenants import TenantSpec, peak_rate, rate_at

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
    sanitize: bool = False

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


class _BacklogView:
    """Duck-typed backlog signal for the autoscale controller.

    The controller only calls ``approximate_size()`` on its queue; the
    raw cloud queue under-reports service pressure because the fair
    scheduler deliberately holds jobs back (the dispatch window).  This
    view reports *total jobs in the system* instead, which is the
    quantity an elastic service must chase.
    """

    def __init__(self, admission: AdmissionController):
        self._admission = admission

    def approximate_size(self) -> int:
        return self._admission.total_in_system()


class JobService:
    """One sustained-traffic run of the multi-tenant service."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.tenants = config.tenants
        self.obs = _current_obs()
        self.tracer = self.obs.tracer
        # Per-job counters, fetched from the registry on first use: one
        # created up front would export as a zero-valued metric.
        self._counters: dict[str, Counter] = {}
        self.env: Environment = make_environment(
            sanitize=True if config.sanitize else None
        )
        self.rng = RngRegistry(config.seed)
        prices = AWS_PRICES if config.provider == "aws" else AZURE_PRICES
        self.meter = CostMeter(prices)
        self.cloud = CloudProvider(
            self.env,
            config.provider,
            self.rng.stream("provision"),
            meter=self.meter,
            perf_jitter=config.perf_jitter,
            on_host_change=lambda: self.task_queue.recheck(),
        )
        self.storage = BlobStore(
            self.env,
            "storage",
            self.rng.stream("storage"),
            meter=self.meter,
            consistency_window_s=config.consistency_window_s,
        )
        self._apps: dict[str, Application] = {
            spec.app: get_application(spec.app) for spec in self.tenants
        }
        self.task_queue = MessageQueue(
            self.env,
            "serve-tasks",
            self.rng.stream("queue"),
            meter=self.meter,
            visibility_timeout_s=self._visibility_timeout(),
        )
        self.admission = AdmissionController(
            self.tenants, config.max_backlog
        )
        self.scheduler = FairShareScheduler(
            self.env,
            self.tenants,
            self.task_queue,
            quantum=config.quantum,
            dispatch_window_factor=config.dispatch_window_factor,
            dispatch_poll_s=config.dispatch_poll_s,
            capacity_slots=self._capacity_slots,
            in_flight=self._in_flight,
        )
        self._jobs: dict[str, _JobMeta] = {}
        self._completed: set[str] = set()
        self.measure_start = 0.0
        self._instances: list = []
        self._stopping = False
        # The Classic Cloud polling worker, shared with the batch
        # framework.  No utilization series: serve reports fleet slots
        # from its own monitor.
        self.workers = WorkerFleet(
            env=self.env,
            rng=self.rng,
            obs=self.obs,
            task_queue=self.task_queue,
            storage=self.storage,
            perf_model=lambda task: self._jobs[task.task_id].app.perf_model,
            keep_polling=lambda: not self._stopping,
            on_complete=self._record_completion,
            workers_per_instance=config.workers_per_instance,
            poll_backoff_s=config.poll_backoff_s,
        )
        self.controller: AutoscaleController | None = None
        if config.autoscale is not None:
            self.controller = AutoscaleController(
                self.env,
                config.autoscale,
                self.cloud,
                config.resolve_instance_type(),
                config.workers_per_instance,
                _BacklogView(self.admission),
                self.rng.stream("spot-market"),
                spawn_workers=self.workers.spawn_instance,
                is_done=lambda: self._stopping,
            )

    # -- derived knobs -----------------------------------------------------
    def _visibility_timeout(self) -> float:
        if self.config.visibility_timeout_s is not None:
            return self.config.visibility_timeout_s
        machine = self.config.resolve_instance_type().machine
        # Envelope: three mean work units covers the lognormal tail at
        # the configured coefficients of variation.
        worst = max(
            task_runtime_seconds(
                self._apps[spec.app].perf_model,
                3.0 * spec.job_work_units,
                machine,
                concurrent_workers=self.config.workers_per_instance,
            )
            for spec in self.tenants
        )
        return max(60.0, 3.0 * worst)

    def _capacity_slots(self) -> int:
        if self.controller is not None:
            return (
                len(self.controller.active_instances())
                * self.config.workers_per_instance
            )
        alive = sum(
            1 for i in self._instances if i.is_running and not i.draining
        )
        return alive * self.config.workers_per_instance

    def _in_flight(self) -> int:
        """Jobs past the scheduler but not yet completed."""
        return self.scheduler.dispatched_total() - len(self._completed)

    # -- public API --------------------------------------------------------
    def run(self) -> ServeResult:
        driver = self.env.process(self._driver(), name="driver")
        makespan = self.env.run(until=driver)
        self.cloud.terminate_all()
        report = self.meter.report()
        self.admission.check()
        self._publish_run_metrics(makespan)
        extras: dict[str, float] = {
            "empty_receives": float(self.task_queue.stats.empty_receives),
            "reappearances": float(self.task_queue.stats.reappearances),
            "stale_deletes": float(self.task_queue.stats.stale_deletes),
            "visibility_timeout_s": self.task_queue.visibility_timeout_s,
        }
        if self.controller is not None:
            extras.update(self.controller.summary())
        tenant_stats = tuple(
            self._tenant_stats(spec) for spec in self.tenants
        )
        return ServeResult(
            label=self.config.label,
            provider=self.config.provider,
            n_instances=self.config.n_instances,
            workers_per_instance=self.config.workers_per_instance,
            autoscaled=self.controller is not None,
            duration_s=self.config.duration_s,
            makespan_s=makespan,
            tenants=tenant_stats,
            total_cost=report.total_cost,
            amortized_cost=report.total_amortized_cost,
            extras=extras,
            records=self.workers.records,
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

    def _publish_run_metrics(self, makespan: float) -> None:
        metrics = self.obs.metrics
        metrics.counter("sim.events").inc(self.env.events_scheduled)
        for spec in self.tenants:
            account = self.admission.accounts[spec.name]
            hist = metrics.histogram(f"serve.latency.{spec.name}")
            for latency in account.latencies:
                hist.observe(latency)

    # -- driver ------------------------------------------------------------
    def _driver(self):
        config = self.config
        itype = config.resolve_instance_type()
        instances = []
        if self.controller is not None:
            instances = yield self.env.process(
                self.controller.launch_initial(config.n_instances)
            )
        elif config.n_instances > 0:
            instances = yield self.env.process(
                self.cloud.provision(itype, config.n_instances)
            )
        self.measure_start = self.env.now
        for instance in instances:
            instance.launched_at = self.measure_start
        self._instances = list(instances)

        for spec in self.tenants:
            self.env.process(
                self._arrivals(spec), name=f"arrivals-{spec.name}"
            )
        self.env.process(self.scheduler.run(), name="scheduler")
        for instance in instances:
            procs = self.workers.spawn_instance(instance)
            if self.controller is not None:
                self.controller.track(instance, procs)
        if self.controller is not None:
            self.controller.start()
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
        self._stopping = True
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
        self.storage.stage(task.input_key, task.input_size)
        self.meter.record_transfer(bytes_in=task.input_size)
        self._jobs[task.task_id] = _JobMeta(
            tenant=spec.name, app=self._apps[spec.app], submitted_at=now
        )
        self.scheduler.enqueue(spec.name, task)

    # -- telemetry ---------------------------------------------------------
    def _monitor(self):
        """Timeline sampling: backlog / sheds / fleet, every 5 sim-s."""
        timeline = self.obs.timeline
        while not self._stopping:
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
                "serve.fleet_slots", now, self._capacity_slots()
            )
            yield self.env.timeout(5.0)

    # -- completions -------------------------------------------------------
    def _record_completion(self, task_id: str) -> None:
        """Count each job once, however many times it executed."""
        meta = self._jobs[task_id]
        if task_id in self._completed:
            self.admission.duplicate(meta.tenant)
            self._count("serve.duplicates")
            return
        self._completed.add(task_id)
        latency = self.env.now - meta.submitted_at
        self.admission.complete(meta.tenant, latency)
        self._count("serve.completed")

    def _count(self, name: str) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.obs.metrics.counter(name)
        counter.inc()


def run_serve(config: ServeConfig) -> ServeResult:
    """Convenience wrapper: one seeded service run."""
    return JobService(config).run()
