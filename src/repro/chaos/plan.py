"""Seeded chaos plans: a deterministic schedule of injected faults.

A :class:`ChaosPlan` describes *how much* of each fault family a run
should suffer; :meth:`ChaosPlan.compile` turns it into the concrete,
time-sorted tuple of :class:`ChaosEvent` the injector plays back.
Compilation is a pure function of the plan's fields (its own ``seed``
included), so the same plan always yields a byte-identical event
sequence — :meth:`ChaosPlan.events_json` is the canonical serialization
tests pin.

Fault families (one event ``kind`` each):

* ``worker_crash`` — kill one worker process mid-whatever, restarting
  a replacement on the same instance 30 s later;
* ``preemption_wave`` — reclaim a fraction of the running instances at
  once (a spot-market price spike), interrupting every worker on them;
* ``queue_chaos`` — a 120 s window of queue misbehaviour: elevated
  empty receives (loss), duplicate deliveries, lost deletes (the delete
  request drops, so the message reappears) and 0.5 s of extra
  propagation delay;
* ``storage_chaos`` — a 120 s window of elevated retryable 5xx errors on
  the blob store;
* ``slow_node`` — one instance degrades to ``slow_factor`` of its
  clock for a 600 s window (the classic gray-failure straggler).

Magnitudes are scaled by :meth:`ChaosPlan.at_intensity`, the campaign's
single-knob sweep axis.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["ChaosEvent", "ChaosPlan"]

#: Window lengths, in simulated seconds, per windowed fault family.
_WINDOW_S = {"queue_chaos": 120.0, "storage_chaos": 120.0, "slow_node": 600.0}


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault, in simulated seconds from the measured start.

    ``target`` is an abstract selector the injector maps onto a live
    victim (``target % len(candidates)`` over a deterministically
    ordered candidate list), so compilation needs no knowledge of the
    deployment shape.  ``magnitude`` is kind-specific: preempted
    fraction, error/loss probability, slowdown factor or extra delay.
    """

    at_s: float
    kind: str
    target: int = 0
    duration_s: float = 0.0
    magnitude: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ChaosPlan:
    """Everything the chaos controller will do to one run."""

    seed: int = 0
    #: Faults are scheduled uniformly inside ``[0, horizon_s)`` of the
    #: measured window; events landing after the run ends simply never
    #: fire (the run outlived the chaos).
    horizon_s: float = 3600.0

    worker_crashes: int = 0

    preemption_waves: int = 0
    preemption_fraction: float = 0.25

    queue_chaos_windows: int = 0
    queue_miss_probability: float = 0.10
    queue_duplicate_probability: float = 0.05
    queue_delete_loss_probability: float = 0.05

    storage_chaos_windows: int = 0
    storage_error_rate: float = 0.25

    slow_nodes: int = 0
    slow_factor: float = 0.25  # multiplier on the victim's clock

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        for name in (
            "worker_crashes",
            "preemption_waves",
            "queue_chaos_windows",
            "storage_chaos_windows",
            "slow_nodes",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < self.preemption_fraction <= 1.0:
            raise ValueError("preemption_fraction must be in (0, 1]")
        if not 0.0 < self.slow_factor <= 1.0:
            raise ValueError("slow_factor must be in (0, 1]")

    @property
    def total_events(self) -> int:
        return (
            self.worker_crashes
            + self.preemption_waves
            + self.queue_chaos_windows
            + self.storage_chaos_windows
            + self.slow_nodes
        )

    @staticmethod
    def at_intensity(
        intensity: float, seed: int = 0, horizon_s: float = 3600.0
    ) -> "ChaosPlan":
        """The campaign's one-knob preset.

        ``intensity`` 0 is a fault-free plan; 1.0 is the nightly-CI
        default (crashes, a preemption wave, queue/storage windows and
        a straggler); values above 1 scale event counts and window
        magnitudes further.
        """
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        scale = float(intensity)
        return ChaosPlan(
            seed=seed,
            horizon_s=horizon_s,
            worker_crashes=round(3 * scale),
            preemption_waves=round(1 * scale),
            queue_chaos_windows=round(1 * scale),
            queue_miss_probability=min(0.5, 0.10 * scale),
            queue_duplicate_probability=min(0.5, 0.05 * scale),
            queue_delete_loss_probability=min(0.5, 0.05 * scale),
            storage_chaos_windows=round(1 * scale),
            storage_error_rate=min(0.8, 0.25 * scale),
            slow_nodes=round(1 * scale),
        )

    def compile(self) -> tuple[ChaosEvent, ...]:
        """The concrete event schedule, sorted by fire time.

        Pure: depends only on the plan's fields.  Events of each family
        are drawn in a fixed family order from one ``PCG64`` stream
        seeded by ``self.seed``, then globally sorted by ``(at_s, kind,
        target)`` — a total order, so ties cannot reorder between runs.
        """
        rng = np.random.default_rng(self.seed)
        events: list[ChaosEvent] = []

        def times(n: int) -> list[float]:
            return sorted(
                float(t) for t in rng.uniform(0.0, self.horizon_s, size=n)
            )

        for at_s in times(self.worker_crashes):
            events.append(
                ChaosEvent(
                    at_s=at_s,
                    kind="worker_crash",
                    target=int(rng.integers(1 << 30)),
                )
            )
        for at_s in times(self.preemption_waves):
            events.append(
                ChaosEvent(
                    at_s=at_s,
                    kind="preemption_wave",
                    target=int(rng.integers(1 << 30)),
                    magnitude=self.preemption_fraction,
                )
            )
        for at_s in times(self.queue_chaos_windows):
            events.append(
                ChaosEvent(
                    at_s=at_s,
                    kind="queue_chaos",
                    duration_s=_WINDOW_S["queue_chaos"],
                    magnitude=self.queue_miss_probability,
                )
            )
        for at_s in times(self.storage_chaos_windows):
            events.append(
                ChaosEvent(
                    at_s=at_s,
                    kind="storage_chaos",
                    duration_s=_WINDOW_S["storage_chaos"],
                    magnitude=self.storage_error_rate,
                )
            )
        for at_s in times(self.slow_nodes):
            events.append(
                ChaosEvent(
                    at_s=at_s,
                    kind="slow_node",
                    target=int(rng.integers(1 << 30)),
                    duration_s=_WINDOW_S["slow_node"],
                    magnitude=self.slow_factor,
                )
            )
        events.sort(key=lambda e: (e.at_s, e.kind, e.target))
        return tuple(events)

    def events_json(self) -> str:
        """Canonical JSON of the compiled schedule (the determinism
        surface: same plan, same bytes)."""
        return json.dumps(
            [event.to_dict() for event in self.compile()],
            sort_keys=True,
            indent=2,
        )
