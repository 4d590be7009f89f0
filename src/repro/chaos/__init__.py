"""Deterministic fault injection and recovery (``repro.chaos``).

The paper's operational claim is that the classic-cloud pattern is
fault-tolerant *by construction* — visibility-timeout redelivery plus
idempotent re-execution.  This package stress-tests that claim
deterministically:

* :class:`ChaosPlan` / :class:`ChaosEvent` — a seeded schedule of
  worker crashes, spot preemption waves, queue misbehaviour windows,
  blob-store error windows and slow-node stragglers; the same seed
  compiles to a byte-identical event sequence.
* :class:`ChaosController` — plays a compiled plan against a live run
  through backend-agnostic hooks, emitting ``chaos``-track trace
  instants and timeline counters.
* :class:`RetryPolicy` / :func:`run_with_retry` — the mitigation side:
  budget-capped exponential backoff with full jitter for queue and
  storage clients.
* :class:`SpeculationPolicy` / :class:`BackupCopy` — Hadoop-style
  backup copies of slowest-percentile stragglers; first finisher wins,
  duplicates reconcile idempotently.
* :func:`chaos_study` — the campaign: sweep fault intensity against
  mitigation settings and report MTTR, redundant-work fraction,
  makespan inflation and goodput (``python -m repro chaos``);
  :func:`chaos_point` builds one campaign cell's sweep point.
"""

from repro.chaos.campaign import (
    CAMPAIGN_MITIGATIONS,
    ChaosStudyRow,
    chaos_point,
    chaos_study,
    mitigation_settings,
    render_resilience,
    serialize_rows,
)
from repro.chaos.injectors import ChaosController
from repro.chaos.plan import ChaosEvent, ChaosPlan
from repro.chaos.retry import RetryPolicy, run_with_retry
from repro.chaos.speculation import BackupCopy, SpeculationPolicy

__all__ = [
    "CAMPAIGN_MITIGATIONS",
    "BackupCopy",
    "ChaosController",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosStudyRow",
    "RetryPolicy",
    "SpeculationPolicy",
    "chaos_point",
    "chaos_study",
    "mitigation_settings",
    "render_resilience",
    "run_with_retry",
    "serialize_rows",
]
