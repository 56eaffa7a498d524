"""Multi-replication runs with confidence intervals.

The paper reports single long runs; a reproduction at reduced scale should
quantify its noise instead.  :func:`run_replications` repeats a
configuration over independent seeds and summarises each metric with its
sample mean, standard deviation and a Student-t confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import Results
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunSpec, execute_runs

__all__ = ["MetricSummary", "ReplicationSummary", "run_replications"]

#: Metrics summarised per replication set.
METRICS = (
    "access_latency",
    "server_request_ratio",
    "gch_ratio",
    "lch_ratio",
    "power_per_gch",
)


@dataclass(frozen=True)
class MetricSummary:
    """Mean ± half-width at the requested confidence level."""

    mean: float
    stddev: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


@dataclass
class ReplicationSummary:
    """All metric summaries for one scheme."""

    scheme: str
    runs: List[Results]
    metrics: Dict[str, MetricSummary]

    def __getitem__(self, metric: str) -> MetricSummary:
        return self.metrics[metric]


def summarise(values: Sequence[float], confidence: float) -> MetricSummary:
    """Student-t summary of a sample (half-width 0 for n < 2 or inf data)."""
    finite = [v for v in values if math.isfinite(v)]
    n = len(finite)
    if n == 0:
        return MetricSummary(math.inf, 0.0, 0.0, 0)
    mean = sum(finite) / n
    if n < 2:
        return MetricSummary(mean, 0.0, 0.0, n)
    variance = sum((v - mean) ** 2 for v in finite) / (n - 1)
    stddev = math.sqrt(variance)
    # Imported here: scipy.stats costs ~0.8 s, and the CLI imports this
    # package to read the figure table before it knows the subcommand.
    from scipy import stats as scipy_stats

    t_value = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return MetricSummary(mean, stddev, t_value * stddev / math.sqrt(n), n)


def run_replications(
    config: SimulationConfig,
    replications: int = 5,
    schemes: Sequence[CachingScheme] = (CachingScheme.GC,),
    confidence: float = 0.95,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[str, ReplicationSummary]:
    """Run ``replications`` independent seeds per scheme and summarise.

    Seeds are ``config.seed, config.seed + 1, ...`` so replication sets are
    themselves reproducible; schemes are paired on the same seed sequence
    (the pairing lives in the specs, so it is preserved under ``jobs > 1``
    parallel execution and cache resolution alike).
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    specs = [
        RunSpec(
            config=config.replace(scheme=scheme, seed=config.seed + replica),
            label=f"replication: scheme={scheme.value} replica={replica}",
        )
        for scheme in schemes
        for replica in range(replications)
    ]
    results = execute_runs(specs, jobs=jobs, cache=cache)
    outcome: Dict[str, ReplicationSummary] = {}
    for position, scheme in enumerate(schemes):
        # execute_runs without salvage raises rather than return holes, so
        # the filter is a no-op that narrows Optional[Results] to Results.
        runs = [
            run
            for run in results[position * replications : (position + 1) * replications]
            if run is not None
        ]
        metrics = {
            metric: summarise(
                [getattr(run, metric) for run in runs], confidence
            )
            for metric in METRICS
        }
        outcome[scheme.value] = ReplicationSummary(
            scheme=scheme.value, runs=runs, metrics=metrics
        )
    return outcome
