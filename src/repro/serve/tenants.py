"""Tenant specifications and seeded open-loop arrival models.

The paper measures one-shot batch runs; a service sees *streams*.  Each
tenant of the job service is a :class:`TenantSpec`: which application it
submits (Cap3 / BLAST / GTM), how its requests arrive (Poisson, bursty
on/off, or diurnal), its fair-share weight, and its admission quota.

Arrival processes are generated by *thinning*: candidate arrivals are
drawn from a homogeneous Poisson process at the tenant's peak rate and
accepted with probability ``rate_at(t) / peak_rate``, which realises any
bounded time-varying rate exactly.  All draws come from a named RNG
stream, so a seed fully determines every arrival time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.task import TaskSpec

__all__ = ["TenantSpec", "APP_JOB_SHAPES", "peak_rate", "rate_at"]

ARRIVAL_KINDS = ("poisson", "burst", "diurnal")

#: Job shape per application: (mean work units, input_bytes,
#: output_bytes).  Work units follow the perf-model calibrations — reads
#: for Cap3, queries for BLAST, thousands of points for GTM — sized so a
#: single job is seconds, not minutes: a service request, not a batch.
APP_JOB_SHAPES: dict[str, tuple[float, int, int]] = {
    "cap3": (24.0, 300_000, 60_000),
    "blast": (2.0, 60_000, 120_000),
    "gtm": (10.0, 800_000, 200_000),
}

#: Shape of the lognormal work-unit draw: a coefficient of variation of
#: 0.3 around the application's mean.
_WORK_UNITS_SIGMA = math.sqrt(math.log(1.0 + 0.3**2))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's contract with the job service.

    ``rate_per_s`` is the *mean* arrival rate for every arrival kind —
    the burst and diurnal shapes redistribute that mean over time
    without changing it, so tenants stay comparable across shapes.
    """

    name: str
    app: str  # "cap3" | "blast" | "gtm"
    arrival: str = "poisson"  # "poisson" | "burst" | "diurnal"
    rate_per_s: float = 0.2
    weight: float = 1.0  # fair-share (WDRR) weight
    quota: int = 64  # max jobs in system before SHED_QUOTA
    #: Burst shape: the on-phase runs at ``rate * burst_factor`` for
    #: ``burst_duty`` of every ``period_s``; the off-phase rate is
    #: lowered to preserve the overall mean.
    burst_factor: float = 4.0
    burst_duty: float = 0.2
    period_s: float = 600.0
    #: Diurnal shape: ``rate * (1 + amplitude * sin(2*pi*t/period))``.
    diurnal_amplitude: float = 0.8
    #: The tenant's latency objective, checked against measured p95.
    slo_p95_s: float = 120.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.app not in APP_JOB_SHAPES:
            raise ValueError(
                f"unknown tenant application {self.app!r}; "
                f"expected one of {sorted(APP_JOB_SHAPES)}"
            )
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.arrival!r}; "
                f"expected one of {ARRIVAL_KINDS}"
            )
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.quota < 1:
            raise ValueError("quota must be >= 1")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not 0.0 < self.burst_duty < 1.0:
            raise ValueError("burst_duty must be in (0, 1)")
        if self.burst_factor * self.burst_duty > 1.0:
            raise ValueError(
                "burst_factor * burst_duty must be <= 1 or the off-phase "
                "rate would have to be negative to preserve the mean"
            )
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if self.slo_p95_s <= 0:
            raise ValueError("slo_p95_s must be positive")

    def make_task(self, index: int, rng: np.random.Generator) -> TaskSpec:
        """Materialise one submitted job as a simulator task.

        Work units are lognormal around the application's mean with a
        coefficient of variation of 0.3 (clamped at a single unit), so
        service times vary like real request mixes do.
        """
        mean, input_bytes, output_bytes = APP_JOB_SHAPES[self.app]
        sigma = _WORK_UNITS_SIGMA
        mu = math.log(mean) - 0.5 * sigma * sigma
        units = max(1.0, float(rng.lognormal(mu, sigma)))
        task_id = f"{self.name}-{index:06d}"
        return TaskSpec(
            task_id=task_id,
            input_key=f"serve/{self.name}/in/{index:06d}",
            output_key=f"serve/{self.name}/out/{index:06d}",
            input_size=input_bytes,
            output_size=output_bytes,
            work_units=units,
        )


def rate_at(spec: TenantSpec, t: float) -> float:
    """The tenant's instantaneous arrival rate at sim time ``t``."""
    if spec.arrival == "poisson":
        return spec.rate_per_s
    if spec.arrival == "burst":
        phase = t % spec.period_s
        if phase < spec.burst_duty * spec.period_s:
            return spec.rate_per_s * spec.burst_factor
        # Off-phase rate chosen so the overall mean stays rate_per_s.
        off = (
            spec.rate_per_s
            * (1.0 - spec.burst_factor * spec.burst_duty)
            / (1.0 - spec.burst_duty)
        )
        return max(0.0, off)
    # diurnal
    wave = math.sin(2.0 * math.pi * t / spec.period_s)
    return max(0.0, spec.rate_per_s * (1.0 + spec.diurnal_amplitude * wave))


def peak_rate(spec: TenantSpec) -> float:
    """Upper bound of :func:`rate_at`, the thinning envelope."""
    if spec.arrival == "poisson":
        return spec.rate_per_s
    if spec.arrival == "burst":
        return spec.rate_per_s * spec.burst_factor
    return spec.rate_per_s * (1.0 + spec.diurnal_amplitude)
