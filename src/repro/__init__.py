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

Top-level names resolve on first use (PEP 562): ``import repro.core.config``
does not load the invariant oracle (:mod:`repro.check`) or the tracer
(:mod:`repro.obs`); ``from repro import Tracer`` loads the tracer then.
"""

import importlib
from typing import Any, List

__version__ = "1.0.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "CachingScheme": "repro.core.config",
    "InvariantMonitor": "repro.check",
    "InvariantViolation": "repro.check",
    "Metrics": "repro.core.metrics",
    "Observer": "repro.obs",
    "RequestOutcome": "repro.core.metrics",
    "Results": "repro.core.metrics",
    "Simulation": "repro.core.simulation",
    "SimulationConfig": "repro.core.config",
    "TimeSeriesSampler": "repro.obs",
    "Tracer": "repro.obs",
    "compare_schemes": "repro.core.simulation",
    "run_simulation": "repro.core.simulation",
    "run_traced": "repro.obs",
}

__all__ = list(_EXPORTS)
__all__.append("__version__")


def __getattr__(name: str) -> Any:
    """Import a public name's defining module and cache the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    """The module's globals and every public name, loaded or not."""
    return sorted({*globals(), *_EXPORTS})
