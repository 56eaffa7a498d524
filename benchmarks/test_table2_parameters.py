"""Table II: the simulation parameter defaults and their sweep ranges.

A parameter's range is the x-axis of every ``FIGURES`` row that sweeps it
in the active profile, so the table cannot drift from the benches.

Dumps the active configuration (paper defaults plus the scale profile in
effect) and benchmarks simulation construction, which exercises the whole
wiring path: mobility build, network, database, TCG manager, clients.
"""

import dataclasses

from conftest import run_once

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.experiments import FIGURES, active_profile, base_config


def sweep_ranges(profile: str) -> dict:
    """Config field -> the x values every ``FIGURES`` row sweeps it over
    in ``profile`` (``"50, 100, 150, 200, 250 (Fig2)"``)."""
    ranges = {}
    for figure in FIGURES.values():
        values = figure.axis.get(profile, figure.axis["bench"])
        swept = f"{', '.join(map(str, values))} ({figure.label})"
        ranges.setdefault(figure.parameter, []).append(swept)
    return {parameter: "; ".join(spans) for parameter, spans in ranges.items()}


def render_table2(config: SimulationConfig) -> str:
    ranges = sweep_ranges(active_profile())
    lines = [
        "=== Table II: simulation parameters ===",
        f"  (scale profile: {active_profile()})",
        f"  {'parameter':>24} | {'value':>14} | range",
        "  " + "-" * 64,
    ]
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if hasattr(value, "value"):
            value = value.value
        sweep = ranges.get(field.name, "-")
        lines.append(f"  {field.name:>24} | {str(value):>14} | {sweep}")
    return "\n".join(lines)


def test_table2_parameters(benchmark, record_table):
    config = base_config()
    simulation = run_once(benchmark, lambda: Simulation(config))
    record_table("table2_parameters", render_table2(config))
    assert len(simulation.clients) == config.n_clients
    # Paper defaults that survive the OCR must hold in the full profile.
    paper = SimulationConfig()
    assert paper.data_size == 3072
    assert paper.bw_p2p == 2_000_000.0
    assert paper.replace_delay == 2
    assert (paper.v_min, paper.v_max) == (1.0, 5.0)
