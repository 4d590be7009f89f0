"""Discrete-event simulation kernel.

A small, deterministic, SimPy-flavoured engine used by every simulated
substrate in this repository (cloud services, Hadoop, DryadLINQ).  Processes
are Python generators that yield :class:`Event` objects; the engine resumes
them when the event fires.  All ordering is deterministic: ties in simulated
time break on an insertion sequence number, and randomness only enters
through the named streams in :mod:`repro.sim.rng`.
"""

from repro.sim.engine import (
    AllOf,
    Environment,
    Event,
    IdleWait,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    make_environment,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "IdleWait",
    "Interrupt",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Timeout",
    "make_environment",
]
