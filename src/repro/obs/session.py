"""Wiring a tracer + sampler onto runs and sweeps.

:class:`Observer` bundles one :class:`~repro.obs.tracer.Tracer` and
(optionally) one :class:`~repro.obs.sampler.TimeSeriesSampler` for one
run; :func:`~repro.core.simulation.run_simulation` accepts it via the
``observer`` keyword exactly like the invariant monitor.

:func:`run_traced` is the one-call form: run a configuration, export the
JSONL / Chrome / CSV bundle into a directory, return the results and the
written paths.  :func:`traced_runner` adapts it to the
``runner`` hook of :func:`~repro.experiments.parallel.execute_runs`, so
``repro sweep --trace-out DIR`` records one timeline per sweep run (the
function is a module-level partial target, so it pickles into worker
processes); :func:`~repro.obs.summary.summarize_path` over the output
root then folds every per-run timeline into one per-sweep phase-latency
breakdown.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.core.config import SimulationConfig
from repro.core.metrics import Results
from repro.obs.export import export_bundle
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.simulation import Simulation

__all__ = [
    "Observer",
    "run_traced",
    "trace_slug",
    "traced_runner",
]


class Observer:
    """One run's observability bundle: a tracer plus an optional sampler.

    ``sample_period`` of ``None`` disables the time-series sampler (the
    tracer alone schedules no kernel events at all).
    """

    def __init__(
        self,
        sample_period: Optional[float] = 5.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.sampler = (
            TimeSeriesSampler(sample_period) if sample_period is not None else None
        )

    def attach(self, simulation: "Simulation") -> None:
        """Bind to a built simulation (called by ``Simulation.__init__``)."""
        self.tracer.bind(simulation.env)
        if self.sampler is not None:
            self.sampler.attach(simulation)

    def finalize(self, simulation: "Simulation") -> None:
        """Close open spans and take the final sample (end of run)."""
        self.tracer.finish()
        if self.sampler is not None:
            self.sampler.finalize()


def trace_slug(config: SimulationConfig) -> str:
    """A stable per-config directory name for sweep trace output."""
    from repro.experiments.cache import config_key

    # A constant version: the name is a function of the config alone, not
    # of the source digest a cache key carries.
    key = config_key(config, code_version="trace-slug")
    return f"{config.scheme.value.lower()}-s{config.seed}-{key[:12]}"


def run_traced(
    config: SimulationConfig,
    out_dir: Path,
    sample_period: Optional[float] = 5.0,
    monitor: object = None,
) -> Tuple[Results, Dict[str, Path]]:
    """Run one traced simulation and export the bundle into ``out_dir``."""
    from repro.core.simulation import run_simulation

    observer = Observer(sample_period=sample_period)
    results = run_simulation(config, monitor=monitor, observer=observer)
    paths = export_bundle(observer, Path(out_dir), config=config, results=results)
    return results, paths


def _traced_run(out_root: str, sample_period: float, config: SimulationConfig) -> Results:
    """Module-level sweep runner body (picklable partial target)."""
    results, _paths = run_traced(
        config, Path(out_root) / trace_slug(config), sample_period=sample_period
    )
    return results


def traced_runner(
    out_root: Path, sample_period: float = 5.0
) -> Callable[[SimulationConfig], Results]:
    """A ``runner`` for :func:`~repro.experiments.parallel.execute_runs`.

    Each run writes its bundle to ``out_root/<trace_slug(config)>``; the
    returned callable is a :func:`functools.partial` over module-level
    state, so process-pool workers can unpickle it.
    """
    return functools.partial(_traced_run, str(out_root), sample_period)
