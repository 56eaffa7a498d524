"""The paper's contribution: COCA and GroCoCa.

* :mod:`repro.core.config` — Table II parameters and feature flags.
* :mod:`repro.core.metrics` — the paper's reporting vocabulary (access
  latency, server request ratio, LCH/GCH ratios, power per GCH).
* :mod:`repro.core.coca` — the COCA communication protocol helpers
  (adaptive timeout, request bookkeeping).
* :mod:`repro.core.tcg` — tightly-coupled group discovery at the MSS
  (Algorithms 1–3).
* GroCoCa's cooperative cache management protocols (Section IV-E) are the
  ``grococa`` entries of :mod:`repro.policies.admission` and
  :mod:`repro.policies.replacement`.
* :mod:`repro.core.signatures_proto` — client-side cache signature state
  machine (Section IV-D.3–5).
* :mod:`repro.core.client` / :mod:`repro.core.server` — the mobile host and
  MSS processes.
* :mod:`repro.core.simulation` — wiring and the experiment entry point.
"""

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import Metrics, RequestOutcome, Results
from repro.core.simulation import Simulation, run_simulation

__all__ = [
    "CachingScheme",
    "Metrics",
    "RequestOutcome",
    "Results",
    "Simulation",
    "SimulationConfig",
    "run_simulation",
]
