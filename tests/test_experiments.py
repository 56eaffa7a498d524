"""Tests for the experiment harness (profiles, sweeps, table rendering)."""

import math

import pytest

from repro.check.golden import GOLDEN_CASES
from repro.core.config import CachingScheme
from repro.core.metrics import Results
from repro.core.simulation import Simulation
from repro.experiments import (
    Figure,
    SweepTable,
    active_profile,
    base_config,
    format_results_row,
    format_sweep_table,
    run_sweep,
)
from repro.experiments.runner import _PROFILES


def make_results(scheme="GC", latency=0.01, gch=10, server=40, requests=100):
    return Results(
        scheme=scheme,
        requests=requests,
        local_hits=requests - gch - server,
        global_hits=gch,
        global_hits_tcg=gch // 2,
        server_requests=server,
        failures=0,
        access_latency=latency,
        latency_stddev=0.0,
        power_data=1000.0,
        power_signature=100.0,
        power_beacon=10.0,
        power_per_gch=1100.0 / gch if gch else math.inf,
        validations=0,
        validation_refreshes=0,
        bypassed_searches=0,
        peer_searches=0,
        measured_time=60.0,
        sim_time=360.0,
    )


def test_active_profile_default(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert active_profile() == "bench"


def test_active_profile_env(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    assert active_profile() == "quick"
    monkeypatch.setenv("REPRO_PROFILE", "full")
    assert active_profile() == "full"
    # The retired shorthand used to win over the explicit choice; now a set
    # value is rejected by name ("" and "0" were always "off").
    for off in ("", "0"):
        monkeypatch.setenv("REPRO_FULL", off)
        assert active_profile() == "full"
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    monkeypatch.setenv("REPRO_FULL", "1")
    with pytest.raises(ValueError) as err:
        active_profile()
    assert str(err.value) == "REPRO_FULL is no longer read; set REPRO_PROFILE=full"


def test_active_profile_rejects_unknown(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.setenv("REPRO_PROFILE", "bogus")
    with pytest.raises(ValueError):
        active_profile()


def test_base_config_applies_profile_and_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    config = base_config(theta=0.9)
    assert config.n_clients == _PROFILES["quick"]["n_clients"]
    assert config.theta == 0.9


def test_profiles_keep_paper_ratios():
    for name, profile in _PROFILES.items():
        assert profile["access_range"] / profile["n_data"] == pytest.approx(0.1)
        # Cache covers 10% of the group's access range... within a factor.
        ratio = profile["cache_size"] / profile["access_range"]
        assert 0.05 <= ratio <= 0.2, name


def test_sweep_table_series_and_lookup():
    table = SweepTable(figure="FigX", parameter="p", values=[1, 2])
    table.rows["GC"] = [make_results(gch=10), make_results(gch=20)]
    assert table.series("GC", "gch_ratio") == [10.0, 20.0]
    assert table.result("GC", 2).global_hits == 20
    with pytest.raises(ValueError):
        table.result("GC", 99)


def test_sweep_table_series_rejects_an_unknown_metric_by_name():
    table = SweepTable(figure="FigX", parameter="p", values=[1, 2])
    table.rows["GC"] = [make_results(), make_results()]
    # Every point quarantined: a typo must still fail rather than plot nan.
    table.rows["CC"] = [None, None]
    assert all(math.isnan(v) for v in table.series("CC", "gch_ratio"))
    for scheme in ("GC", "CC"):
        with pytest.raises(KeyError) as err:
            table.series(scheme, "gch_rato")
        message = err.value.args[0]
        assert message.startswith("unknown metric 'gch_rato'; ")
        assert "gch_ratio" in message and "access_latency" in message


def test_run_sweep_executes_every_cell(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    seen = []
    figure = Figure(
        key="fig-t",
        label="FigT",
        parameter="cache_size",
        title="",
        stem="fig_t",
        axis={"bench": (5, 10)},
        point=lambda v: dict(
            cache_size=v,
            n_clients=4,
            n_data=100,
            access_range=10,
            measure_requests=3,
            warmup_min_time=0.0,
            warmup_max_time=30.0,
        ),
    )
    table = run_sweep(figure, rows=["LC", "CC"], progress=seen.append)
    assert set(table.rows) == {"LC", "CC"}
    assert len(table.rows["LC"]) == 2
    assert len(seen) == 4
    assert all(r.requests >= 12 for r in table.rows["LC"])


@pytest.mark.xfail(
    strict=True,
    reason="same seed, not same draws: trajectories extend lazily from one "
    "shared 'mobility' stream in query-time batches, so a scheme that queries "
    "positions at other times moves its hosts along other paths",
)
def test_schemes_at_one_seed_share_host_trajectories():
    """Common random numbers would need LC and GC at one seed to move their
    hosts identically; at this seed the paths part by t = 40 s."""

    def sampled_positions(scheme):
        simulation = Simulation(GOLDEN_CASES["cc-small"].replace(scheme=scheme))
        samples = []
        for now in range(10, 70, 10):
            simulation.env.run(until=now)
            samples.append(simulation.field.positions(now).tolist())
        return samples

    assert sampled_positions(CachingScheme.LC) == sampled_positions(CachingScheme.GC)


def test_format_results_row():
    text = format_results_row(make_results())
    assert "GC" in text and "lat=" in text and "power/gch" in text


def test_format_sweep_table_contains_all_panels():
    table = SweepTable(figure="Fig2", parameter="cache_size", values=[50, 100])
    for scheme in ("LC", "CC", "GC"):
        table.rows[scheme] = [make_results(scheme=scheme), make_results(scheme=scheme)]
    text = format_sweep_table(table, "effect of cache size")
    assert "Fig2" in text
    assert "(a) Access Latency" in text
    assert "(b) Server Request Ratio" in text
    assert "(c) GCH Ratio" in text
    assert "(d) Power per GCH" in text
    for scheme in ("LC", "CC", "GC"):
        assert scheme in text


def test_format_sweep_table_handles_inf_and_zero():
    table = SweepTable(figure="FigZ", parameter="x", values=[1])
    zero_gch = make_results(gch=0)
    table.rows["LC"] = [zero_gch]
    text = format_sweep_table(table)
    assert "inf" in text
