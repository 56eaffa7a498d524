"""The figure table: x-axes, profiles, per-point configs, row sets.

``execute_runs`` is stubbed out, so these tests exercise the experiment
*definitions* (which parameter, which values, which warm-up scaling)
without running any simulation.
"""

import pytest

from repro.experiments import FIGURES, runner
from repro.experiments.runner import run_sweep


@pytest.fixture()
def recorded_specs(monkeypatch):
    """Capture the run specs ``run_sweep`` hands to ``execute_runs``."""
    calls = []

    def fake_execute_runs(specs, **kwargs):
        calls.append(list(specs))
        return [None] * len(specs)

    monkeypatch.setattr(runner, "execute_runs", fake_execute_runs)
    return calls


@pytest.fixture()
def recorded(recorded_specs):
    """Sweep one figure by key; returns its axis and one config per x value."""

    def sweep(key, **kwargs):
        table = run_sweep(FIGURES[key], **kwargs)
        return {
            "figure": table.figure,
            "values": table.values,
            "configs": [s.config for s in recorded_specs[-1][:: len(table.rows)]],
        }

    return sweep


def set_profile(monkeypatch, name):
    monkeypatch.setenv("REPRO_PROFILE", name)
    monkeypatch.delenv("REPRO_FULL", raising=False)


def test_fig2_paper_axis_at_bench(recorded, monkeypatch):
    set_profile(monkeypatch, "bench")
    call = recorded("fig2")
    assert call["figure"] == "Fig2"
    assert call["values"] == [50, 100, 150, 200, 250]
    assert [c.cache_size for c in call["configs"]] == call["values"]


def test_fig2_scaled_axis_at_quick(recorded, monkeypatch):
    set_profile(monkeypatch, "quick")
    values = recorded("fig2")["values"]
    assert max(values) < 200  # never swallows the quick access range


def test_fig3_theta_axis(recorded, monkeypatch):
    set_profile(monkeypatch, "bench")
    call = recorded("fig3")
    assert call["values"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [c.theta for c in call["configs"]] == call["values"]


def test_fig4_warmup_scales_with_range(recorded, monkeypatch):
    set_profile(monkeypatch, "bench")
    call = recorded("fig4")
    assert call["values"][-1] == 10_000
    warmups = [c.warmup_min_time for c in call["configs"]]
    assert warmups == sorted(warmups)
    assert warmups[-1] == 800.0  # capped
    assert warmups[0] >= 300.0


def test_fig5_group_axis_starts_at_one(recorded, monkeypatch):
    set_profile(monkeypatch, "bench")
    call = recorded("fig5")
    assert call["values"][0] == 1
    assert [c.group_size for c in call["configs"]] == call["values"]


def test_fig6_update_rates_include_zero(recorded, monkeypatch):
    set_profile(monkeypatch, "bench")
    call = recorded("fig6")
    assert call["values"][0] == 0.0
    assert [c.data_update_rate for c in call["configs"]] == call["values"]


def test_fig7_population_axis_per_profile(recorded, monkeypatch):
    set_profile(monkeypatch, "bench")
    assert recorded("fig7")["values"] == [30, 60, 120, 180, 240]
    set_profile(monkeypatch, "full")
    assert recorded("fig7")["values"] == [50, 100, 200, 300, 400]


def test_fig7_warmup_scales_with_population(recorded, monkeypatch):
    set_profile(monkeypatch, "bench")
    configs = recorded("fig7")["configs"]
    assert configs[0].warmup_min_time == 300.0  # small N keeps the default
    assert configs[-1].warmup_min_time == pytest.approx(2.5 * 240)


def test_fig8_disconnection_axis(recorded, monkeypatch):
    set_profile(monkeypatch, "bench")
    call = recorded("fig8")
    assert call["values"] == [0.0, 0.05, 0.1, 0.2, 0.3]
    assert [c.p_disc for c in call["configs"]] == call["values"]


def test_explicit_values_override_defaults(recorded, monkeypatch):
    set_profile(monkeypatch, "bench")
    assert recorded("fig2", values=[10, 20])["values"] == [10, 20]


def test_fig_policy_matrix_shape(recorded_specs, monkeypatch):
    set_profile(monkeypatch, "bench")
    table = run_sweep(FIGURES["fig-policy"])
    specs = recorded_specs[-1]
    assert table.figure == "FigPolicy"
    assert table.parameter == "p2p_loss"
    assert table.values == [0.0, 0.1, 0.2, 0.3]
    assert sorted(table.rows) == sorted(
        ["arrival", "least-pending", "latency-aware", "power-aware",
         "epsilon-greedy"]
    )
    assert len(specs) == len(table.values) * len(table.rows)


def test_fig_policy_arrival_row_is_pure_legacy(recorded_specs, monkeypatch):
    set_profile(monkeypatch, "bench")
    run_sweep(
        FIGURES["fig-policy"], values=[0.2], rows=["arrival", "latency-aware"]
    )
    arrival, adaptive = [s.config for s in recorded_specs[-1]]
    # The baseline runs the untouched legacy retrieve path...
    assert not arrival.health_enabled
    assert arrival.retry_jitter == 0.0
    # ...while adaptive rows switch the whole failure-aware layer on.
    assert adaptive.health_enabled
    assert adaptive.peer_policy == "latency-aware"
    assert adaptive.breaker_threshold > 0
    assert adaptive.hedge_quantile > 0.0
    assert adaptive.retrieve_deadline > 0.0
    assert adaptive.crash_failover
    assert adaptive.retry_jitter > 0.0
    # Paired comparison: identical workload, faults and seed across rows.
    assert arrival.seed == adaptive.seed
    assert arrival.faults == adaptive.faults


def test_fig_policy_faults_scale_with_loss(recorded_specs, monkeypatch):
    set_profile(monkeypatch, "bench")
    run_sweep(FIGURES["fig-policy"], values=[0.0, 0.3], rows=["arrival"])
    lossless, lossy = [s.config for s in recorded_specs[-1]]
    assert not lossless.faults.enabled
    assert lossy.faults.p2p.loss == 0.3
    assert lossy.faults.crash.rate > 0.0


def test_fig_policy_rejects_unknown_policy(monkeypatch):
    set_profile(monkeypatch, "bench")
    with pytest.raises(ValueError, match="unknown FigPolicy rows"):
        run_sweep(FIGURES["fig-policy"], rows=["fastest-first"])


@pytest.mark.parametrize("profile", ["quick", "bench", "full"])
@pytest.mark.parametrize("key", sorted(FIGURES))
def test_every_figure_builds_a_rows_by_values_table(
    key, profile, recorded_specs, monkeypatch
):
    set_profile(monkeypatch, profile)
    figure = FIGURES[key]
    table = run_sweep(figure)
    specs = recorded_specs[-1]
    assert figure.key == key
    assert list(table.rows) == list(figure.rows)
    assert all(len(series) == len(table.values) for series in table.rows.values())
    assert len(specs) == len(table.rows) * len(table.values)
    labels = [spec.label for spec in specs]
    assert len(set(labels)) == len(labels)
    assert all(label.startswith(f"{figure.label}: ") for label in labels)
