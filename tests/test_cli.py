"""Tests for the command-line interface."""

import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.experiments import FIGURES
from repro.core.config import CachingScheme


def parse(argv):
    return build_parser().parse_args(argv)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        parse([])


def test_run_defaults():
    args = parse(["run"])
    config = _config_from_args(args)
    assert config.scheme is CachingScheme.GC
    assert config.n_clients == 100  # library default


def test_run_overrides_map_to_config():
    args = parse(
        [
            "run",
            "--scheme",
            "CC",
            "--clients",
            "10",
            "--data",
            "500",
            "--cache-size",
            "12",
            "--access-range",
            "50",
            "--theta",
            "0.9",
            "--group-size",
            "2",
            "--update-rate",
            "1.5",
            "--p-disc",
            "0.1",
            "--requests",
            "5",
            "--seed",
            "3",
            "--no-ndp",
        ]
    )
    config = _config_from_args(args)
    assert config.scheme is CachingScheme.CC
    assert config.n_clients == 10
    assert config.n_data == 500
    assert config.cache_size == 12
    assert config.access_range == 50
    assert config.theta == 0.9
    assert config.group_size == 2
    assert config.data_update_rate == 1.5
    assert config.p_disc == 0.1
    assert config.measure_requests == 5
    assert config.seed == 3
    assert config.ndp_enabled is False


def test_invalid_scheme_rejected():
    with pytest.raises(SystemExit):
        parse(["run", "--scheme", "XX"])


def test_run_reports_a_bad_config_value_as_a_cli_error(capsys):
    assert main(["run", "--clients", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "repro run: error: n_clients must be >= 1\n"
    assert captured.out == ""  # rejected before any run


def test_compare_reports_a_non_finite_value_as_a_cli_error(capsys):
    assert main(["compare", "--theta", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "repro compare: error: theta must be finite, got nan\n"
    assert captured.out == ""


@pytest.mark.parametrize("period", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", [["run", "--trace-out", "d"], ["sweep", "fig2"]])
def test_sample_period_must_be_positive_and_finite(capsys, command, period):
    with pytest.raises(SystemExit) as usage:
        parse([*command, "--sample-period", period])
    assert usage.value.code == 2
    assert (
        f"repro {command[0]}: error: argument --sample-period: "
        f"must be positive and finite, got {period}\n"
    ) in capsys.readouterr().err


@pytest.mark.parametrize(
    ("option", "value", "error"),
    [("--timeout", v, f"must be positive and finite, got {v}") for v in ("0", "-1", "nan", "inf")]
    + [("--attempts", v, f"must be >= 1, got {v}") for v in ("0", "-1")],
)
def test_sweep_rejects_out_of_range_run_budgets(capsys, option, value, error):
    with pytest.raises(SystemExit) as usage:
        parse(["sweep", "fig2", "--jobs", "2", option, value])
    assert usage.value.code == 2
    assert f"repro sweep: error: argument {option}: {error}\n" in capsys.readouterr().err


def test_figure_choices_cover_all_paper_figures():
    assert set(FIGURES) == {f"fig{i}" for i in range(2, 9)} | {
        "fig-loss",
        "fig-policy",
        "fig-matrix",
    }
    # ``sweep`` (the one figure command) takes exactly the table's keys.
    for key in FIGURES:
        assert parse(["sweep", key]).figure == key
    with pytest.raises(SystemExit):
        parse(["sweep", "fig99"])
    with pytest.raises(SystemExit):
        parse(["sweep", "Fig2"])  # the table label is not a key
    with pytest.raises(SystemExit):
        parse(["figure", "fig2"])  # folded into ``sweep --scale``


def test_main_run_executes(capsys):
    code = main(
        [
            "run",
            "--clients",
            "6",
            "--data",
            "200",
            "--cache-size",
            "8",
            "--access-range",
            "40",
            "--requests",
            "3",
            "--group-size",
            "3",
            "--no-ndp",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "access latency" in out and " ms (sd " in out
    assert "server request ratio" in out


def test_main_compare_executes(capsys):
    code = main(
        [
            "compare",
            "--clients",
            "6",
            "--data",
            "200",
            "--cache-size",
            "8",
            "--access-range",
            "40",
            "--requests",
            "3",
            "--group-size",
            "3",
            "--no-ndp",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    for scheme in ("LC", "CC", "GC"):
        assert f"--- {scheme} ---" in out


def test_sweep_parser_accepts_execution_options():
    args = parse(
        [
            "sweep",
            "fig2",
            "--scale",
            "quick",
            "--jobs",
            "4",
            "--cache",
            "/tmp/some-cache",
        ]
    )
    assert args.figure == "fig2"
    assert args.scale == "quick"
    assert args.jobs == 4
    assert args.cache == "/tmp/some-cache"


def test_sweep_parser_defaults_to_serial_uncached():
    args = parse(["sweep", "fig5"])
    assert args.jobs == 1
    assert args.cache is None
    assert args.timeout is None


def _shrink_quick_profile(monkeypatch):
    """Shrink the sweep through the profile hook for a fast smoke test."""
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    from repro.experiments import runner

    monkeypatch.setitem(runner._PROFILES, "quick", dict(
        runner.QUICK_PROFILE,
        n_clients=6,
        n_data=200,
        access_range=20,
        cache_size=5,
        measure_requests=3,
        warmup_min_time=0.0,
        warmup_max_time=30.0,
    ))


def test_main_sweep_executes_with_cache_and_profile(capsys, monkeypatch, tmp_path):
    """``sweep`` with the result cache, at the (shrunken) quick scale profile."""
    _shrink_quick_profile(monkeypatch)
    # The serial sweep simulates in this process: count the runs themselves.
    from repro.core.simulation import Simulation

    runs = []
    simulate = Simulation.run

    def counted(self):
        runs.append(self)
        return simulate(self)

    monkeypatch.setattr(Simulation, "run", counted)
    cache_dir = tmp_path / "cache"
    argv = ["sweep", "fig3", "--scale", "quick", "--cache", str(cache_dir)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "(a) Access Latency" in captured.out
    assert "GC" in captured.out
    assert "15 misses, 15 stored" in captured.err
    assert len(runs) == 15

    # A repeat resolves entirely from the cache: zero new simulations.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert len(runs) == 15
    assert "15 hits, 0 misses" in captured.err


def test_sweep_trace_out_names_a_malformed_trace_line(capsys, monkeypatch, tmp_path):
    """A bad ``trace.jsonl`` left under ``--trace-out`` by an earlier run is
    a one-line error naming the file and line, not a traceback.  The sweep
    itself is stubbed to an empty table: nothing is simulated."""
    from repro.experiments import SweepTable

    bad = tmp_path / "earlier-run" / "trace.jsonl"
    bad.parent.mkdir()
    bad.write_text('{"bad json\n')
    monkeypatch.setattr(
        "repro.cli.run_sweep",
        lambda figure, **_: SweepTable(figure.label, figure.parameter, []),
    )
    code = main(["sweep", "fig3", "--trace-out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(
        f"repro sweep: error: trace {bad}: line 1: invalid JSON: "
    )
    assert captured.err.count("\n") == 1


def test_sweep_timeout_without_worker_pool_is_rejected(capsys):
    """A serial run cannot be interrupted: --timeout alone exits 2."""
    code = main(["sweep", "fig3", "--scale", "quick", "--timeout", "60"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--timeout" in captured.err and "--jobs" in captured.err
    assert captured.out == ""  # rejected before any run


def test_sweep_rejects_the_retired_repro_full_shorthand(capsys, monkeypatch):
    """REPRO_FULL used to win silently over ``--scale``; now it is named."""
    monkeypatch.setenv("REPRO_PROFILE", "bench")  # restored after --scale sets it
    monkeypatch.setenv("REPRO_FULL", "1")
    code = main(["sweep", "fig3", "--scale", "quick"])
    captured = capsys.readouterr()
    assert code == 2
    assert "REPRO_FULL is no longer read; set REPRO_PROFILE=full" in captured.err
    assert captured.out == ""  # rejected before any run


def test_sweep_timeout_with_worker_pool_runs(capsys, monkeypatch):
    _shrink_quick_profile(monkeypatch)
    argv = ["sweep", "fig3", "--scale", "quick", "--timeout", "60", "--jobs", "2"]
    args = parse(argv)
    assert (args.timeout, args.jobs) == (60.0, 2)
    assert main(argv) == 0
    assert "(a) Access Latency" in capsys.readouterr().out
