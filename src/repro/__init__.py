"""GroCoCa / COCA: peer-to-peer cooperative caching in mobile environments.

A full reproduction of Chow, Leong and Chan's COCA (ICDCS'04) and GroCoCa
(IEEE JSAC) cooperative caching schemes, including every substrate the
paper's evaluation depends on: a discrete-event simulation kernel, random
waypoint and reference-point-group mobility, a contended P2P wireless
medium with the Feeney–Nilsson power model, Zipf workloads, an MSS with
TTL-based lazy consistency, and the complete cache signature machinery
(Bloom filters, counting filters, VLFL compression, peer counter vectors).

Quick start::

    from repro import CachingScheme, SimulationConfig, run_simulation

    config = SimulationConfig(scheme=CachingScheme.GC, measure_requests=50)
    results = run_simulation(config)
    print(results.access_latency, results.gch_ratio)
"""

from repro.check import InvariantMonitor, InvariantViolation
from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import (
    Metrics,
    RequestOutcome,
    Results,
)
from repro.core.simulation import Simulation, compare_schemes, run_simulation
from repro.obs import Observer, TimeSeriesSampler, Tracer, run_traced

__version__ = "1.0.0"

__all__ = [
    "CachingScheme",
    "InvariantMonitor",
    "InvariantViolation",
    "Metrics",
    "Observer",
    "RequestOutcome",
    "Results",
    "Simulation",
    "SimulationConfig",
    "TimeSeriesSampler",
    "Tracer",
    "compare_schemes",
    "run_simulation",
    "run_traced",
    "__version__",
]
