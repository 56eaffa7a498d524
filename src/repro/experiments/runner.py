"""Sweep execution and scale profiles.

The paper runs 100 clients for 1000+ measured requests each on a C++
simulator; a pure-Python reproduction sweeps dozens of such runs, so the
harness supports three scale profiles selected by the ``REPRO_PROFILE``
environment variable (``quick`` / ``bench`` / ``full``):

* ``quick``  — smoke-test scale for CI (minutes for the whole suite),
* ``bench``  — the default: paper parameter *ratios* at a reduced
  population and run length; preserves every qualitative shape,
* ``full``   — the paper's population (100 clients) at 200 measured
  requests each: longer than ``bench``, still well short of the paper's
  1000+.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import Results
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunSpec, execute_runs

__all__ = [
    "BENCH_PROFILE",
    "FULL_PROFILE",
    "Figure",
    "QUICK_PROFILE",
    "SweepTable",
    "active_profile",
    "base_config",
    "run_sweep",
]

#: Config overrides per profile.  Parameter *ratios* (cache/access range,
#: access range/database, group span/transmission range) follow Table II.
#: The downlink bandwidth scales with the population so the reduced
#: profiles keep the paper's server-channel utilisation (the latency story
#: of Figs. 2 and 7 depends on the downlink being the bottleneck).
QUICK_PROFILE: Dict[str, object] = {
    "n_clients": 20,
    "n_data": 2000,
    "access_range": 200,
    "cache_size": 30,
    "bw_downlink": 500_000.0,
    "measure_requests": 40,
    "warmup_min_time": 200.0,
    "warmup_max_time": 300.0,
    "ndp_enabled": False,
}

BENCH_PROFILE: Dict[str, object] = {
    "n_clients": 60,
    "n_data": 10_000,
    "access_range": 1000,
    "cache_size": 100,
    "bw_downlink": 1_500_000.0,
    "measure_requests": 60,
    "warmup_min_time": 300.0,
    "warmup_max_time": 600.0,
}

FULL_PROFILE: Dict[str, object] = {
    "n_clients": 100,
    "n_data": 10_000,
    "access_range": 1000,
    "cache_size": 100,
    "measure_requests": 200,
    "warmup_min_time": 300.0,
    "warmup_max_time": 600.0,
}

_PROFILES = {"quick": QUICK_PROFILE, "bench": BENCH_PROFILE, "full": FULL_PROFILE}

#: What :meth:`SweepTable.series` can plot: every Results field and property.
_METRICS = frozenset(
    [spec.name for spec in fields(Results)]
    + [name for name, attr in vars(Results).items() if isinstance(attr, property)]
)

#: The default row set of a figure: the paper's LC / CC / GC series.
SCHEME_ROWS: Dict[str, Dict[str, Any]] = {
    scheme.value: {"scheme": scheme}
    for scheme in (CachingScheme.LC, CachingScheme.CC, CachingScheme.GC)
}


def active_profile() -> str:
    """The profile name selected by the environment (default ``bench``)."""
    if os.environ.get("REPRO_FULL", "") not in ("", "0"):
        # The retired shorthand used to win over REPRO_PROFILE; running
        # bench scale for someone who asked for full would be silent.
        raise ValueError("REPRO_FULL is no longer read; set REPRO_PROFILE=full")
    name = os.environ.get("REPRO_PROFILE", "bench").lower()
    if name not in _PROFILES:
        raise ValueError(
            f"unknown REPRO_PROFILE {name!r}; pick one of {sorted(_PROFILES)}"
        )
    return name


def base_config(**overrides: Any) -> SimulationConfig:
    """The active profile's configuration with optional overrides."""
    settings = dict(_PROFILES[active_profile()])
    settings.update(overrides)
    return SimulationConfig(**settings)


@dataclass(frozen=True)
class Figure:
    """One figure of the evaluation as data: a row of ``sweeps.FIGURES``.

    A run of the figure is ``base_config`` plus the overrides of one
    x-axis point plus the overrides of one row.
    """

    #: CLI key (``repro sweep KEY``), e.g. ``"fig2"``.
    key: str
    #: Table label and run-label prefix, e.g. ``"Fig2"``.
    label: str
    #: Name of the swept parameter (the x-axis caption).
    parameter: str
    #: Human title of the rendered table.
    title: str
    #: The series are committed as ``results/<stem>.txt``.
    stem: str
    #: Scale profile -> x values; a profile not named uses ``"bench"``.
    axis: Mapping[str, Sequence[object]]
    #: x value -> config overrides; ``None`` means ``{parameter: value}``.
    point: Optional[Callable[[Any], Dict[str, Any]]] = None
    #: Row name -> config overrides, in plotted order.
    rows: Mapping[str, Dict[str, Any]] = field(
        default_factory=lambda: SCHEME_ROWS
    )
    #: What a row is called in run labels (``scheme=GC``).
    row_word: str = "scheme"

    def config(self, value: Any, row: str) -> SimulationConfig:
        """The configuration of ``row`` at x-axis point ``value``."""
        point = {self.parameter: value} if self.point is None else self.point(value)
        return base_config(**point, **self.rows[row])


@dataclass
class SweepTable:
    """All results behind one paper figure."""

    figure: str
    parameter: str
    values: List[object]
    rows: Dict[str, List[Results]] = field(default_factory=dict)

    def _scheme_rows(self, scheme: str) -> List[Results]:
        try:
            return self.rows[scheme]
        except KeyError:
            raise KeyError(
                f"scheme {scheme!r} was not swept in {self.figure}; "
                f"available schemes: {sorted(self.rows)}"
            ) from None

    def series(self, scheme: str, metric: str) -> List[float]:
        """One plotted line, e.g. ``series("GC", "gch_ratio")``.

        A sweep point quarantined by salvage mode renders as ``nan``; an
        unknown ``metric`` raises a ``KeyError`` naming the valid ones, even
        when every point of the row was quarantined.
        """
        if metric not in _METRICS:
            raise KeyError(
                f"unknown metric {metric!r}; Results fields and properties: "
                f"{', '.join(sorted(_METRICS))}"
            )
        return [
            getattr(result, metric) if result is not None else math.nan
            for result in self._scheme_rows(scheme)
        ]

    def result(self, scheme: str, value: object) -> Results:
        """The results at one sweep point of one scheme.

        Raises a descriptive ``KeyError`` for an unknown scheme and
        ``ValueError`` for a value outside the swept range.
        """
        rows = self._scheme_rows(scheme)
        try:
            index = self.values.index(value)
        except ValueError:
            raise ValueError(
                f"{self.parameter}={value!r} was not swept in {self.figure}; "
                f"swept values: {self.values}"
            ) from None
        return rows[index]


def run_sweep(
    figure: Figure,
    values: Optional[Sequence[object]] = None,
    rows: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    **execute_kwargs: Any,
) -> SweepTable:
    """Run one :class:`Figure`: every row at every value of its x-axis.

    ``values`` narrows or replaces the active profile's axis and ``rows``
    picks a subset of the figure's rows.  Every row at a sweep point gets
    the same seed, baked into the flattened run specs, so that holds under
    any parallel execution order.  Same seed is not same draws: the rows
    do not share mobility or demand draws (a strict xfail in
    ``tests/test_experiments.py`` pins it).

    ``jobs`` fans the runs out over worker processes (1 = serial in
    process, 0/None = one worker per core) with results identical to the
    serial path; ``cache`` resolves already-simulated configurations from
    disk (see :mod:`repro.experiments.cache`).  Extra keyword arguments
    (``timeout``, ``attempts``, ``salvage``, ``failures_out``) flow to
    :func:`~repro.experiments.parallel.execute_runs`; with ``salvage`` a
    quarantined run leaves ``None`` at its sweep position.
    """
    if values is None:
        values = figure.axis.get(active_profile(), figure.axis["bench"])
    values = list(values)
    rows = list(figure.rows if rows is None else rows)
    unknown = [row for row in rows if row not in figure.rows]
    if unknown:
        raise ValueError(
            f"unknown {figure.label} rows {unknown}; "
            f"pick from {sorted(figure.rows)}"
        )
    specs = [
        RunSpec(
            config=figure.config(value, row),
            label=(
                f"{figure.label}: {figure.parameter}={value} "
                f"{figure.row_word}={row}"
            ),
        )
        for value in values
        for row in rows
    ]
    results = execute_runs(
        specs, jobs=jobs, cache=cache, progress=progress, **execute_kwargs
    )
    return SweepTable(
        figure=figure.label,
        parameter=figure.parameter,
        values=values,
        rows={row: results[index :: len(rows)] for index, row in enumerate(rows)},
    )
