"""Discrete-event simulation substrate.

The paper's evaluation is built on CSIM (a commercial C++ process-oriented
simulation library).  This package is the from-scratch Python replacement: a
generator-based process kernel (:mod:`repro.sim.kernel`), deterministic named
random streams (:mod:`repro.sim.random`) and incremental statistics
(:mod:`repro.sim.stats`).
"""

from repro.sim.kernel import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.profile import RunProfile
from repro.sim.random import RandomStreams
from repro.sim.stats import WelfordAccumulator

__all__ = [
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "RunProfile",
    "SimulationError",
    "Timeout",
    "WelfordAccumulator",
]
