"""Checks on the benchmark itself; run at ``--smoke`` scale, in seconds.

``PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q``
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from perfbench import compare
from perfbench.__main__ import main
from perfbench.runner import ROOT, load_spec
from perfbench.tracer import LAYERS, ROOT as ROOT_SPAN, LayerTracer, TracedGenerator
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# -- BENCHMARK.json against the driver's contract ---------------------------------


def test_benchmark_json_meets_the_contract():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for layer in LAYERS:
        for suffix in ("self_s", "share", "calls"):
            assert f"{layer}.{suffix}" in names


# -- the harness end to end, at smoke scale ----------------------------------------


def test_full_run_reports_every_name_and_no_failure(tmp_path, capsys):
    spec = load_spec()
    out = tmp_path / "report.json"
    assert main(["--smoke", "--repeats", "2", "--seed", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["failed"] == 0 and report["attempted"] == 3 * len(WORKLOADS)
    assert {"python", "numpy", "nproc", "git_revision", "load_average_at_start"} <= set(
        report["environment"]
    )
    digests = {name: report["workloads"][name]["digests"] for name in WORKLOADS}
    for name in WORKLOADS:
        workload = report["workloads"][name]
        assert sorted(workload["digests"]) == ["5", "6"]
        assert list(workload["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
        assert list(workload["per_layer"]) == [m["name"] for m in spec["per_layer"]]
        for metric, entry in {**workload["end_to_end"], **workload["per_layer"]}.items():
            assert isinstance(entry["value"], (int, float)), metric
            assert re.search(rf"^{re.escape(name)}\s+{re.escape(metric)}\s", printed, re.M)
        for metric in workload["end_to_end"].values():
            assert metric["value"] > 0
        layers = workload["per_layer"]
        assert sum(layers[f"{layer}.share"]["value"] for layer in LAYERS) == pytest.approx(1, abs=0.01)
    # Observation is read-only: gc-observed simulates exactly what gc-steady does.
    assert digests["gc-observed"] == digests["gc-steady"]
    assert all(entry["5"] != entry["6"] for entry in digests.values())
    layers = {name: report["workloads"][name]["per_layer"] for name in WORKLOADS}
    for idle in ("lc-server", "cc-flood"):
        assert layers[idle]["signatures.calls"]["value"] == 0
        assert layers[idle]["core.tcg.calls"]["value"] == 0
    assert layers["lc-server"]["net.p2p.share"]["value"] < 0.01
    assert layers["gc-observed"]["observers.calls"]["value"] > 0
    assert layers["gc-steady"]["observers.calls"]["value"] == 0
    assert layers["gc-churn"]["net.faults.calls"]["value"] > 0
    assert layers["gc-observed"]["harness.observer_overhead"]["value"] != 0


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_form_prints_one_result_line(trace):
    spec = load_spec()
    done = subprocess.run(
        [*spec["command"], "--workload", "gc-observed", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [*load_spec()["command"], "--workload", "lc-server", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- the tracer ---------------------------------------------------------------------


def _body(log):
    """A generator with every exit path a simulated process can take."""
    try:
        while True:
            try:
                sent = yield "ready"
                log.append(("sent", sent))
                if sent == "stop":
                    return "done"
            except KeyError as error:
                log.append(("caught", error.args))
                yield "recovered"
    finally:
        log.append("finally")


def _delegating(inner, log):
    result = yield from inner
    log.append(("returned", result))


def _drive(generator):
    """Every observable of one send/throw/return session."""
    seen = [next(generator), generator.send("a"), generator.throw(KeyError("k"))]
    seen.append(generator.send("b"))
    with pytest.raises(StopIteration) as stop:
        generator.send("stop")
    seen.append(stop.value.value)
    with pytest.raises(ValueError):
        generator.throw(ValueError("late"))
    return seen


def test_traced_generator_is_transparent_to_send_throw_and_close():
    plain_log, traced_log = [], []
    tracer = LayerTracer()
    assert _drive(TracedGenerator(_body(traced_log), "core.client", tracer)) == _drive(
        _body(plain_log)
    )
    assert traced_log == plain_log

    closed = []
    generator = TracedGenerator(_body(closed), "core.client", tracer)
    next(generator)
    generator.close()
    assert closed == ["finally"]
    with pytest.raises(StopIteration):
        next(generator)
    with pytest.raises(ZeroDivisionError):
        TracedGenerator(_body([]), "core.client", tracer).throw(ZeroDivisionError())

    plain_log, traced_log = [], []
    inner = TracedGenerator(_body(traced_log), "net.p2p", tracer)
    assert _drive(_delegating(inner, traced_log)) == _drive(
        _delegating(_body(plain_log), plain_log)
    )
    assert traced_log == plain_log
    assert tracer.stack == [[ROOT_SPAN, tracer.stack[0][1], 0]]
    assert tracer.spans[("core.client", ROOT_SPAN)][0] > 0


def test_self_time_is_duration_minus_child_spans():
    ticks = iter(range(0, 1000, 10))
    tracer = LayerTracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "net.p2p")
    same_layer = tracer.wrap(lambda: None, "core.client")
    outer = tracer.wrap(lambda: (inner(), same_layer(), inner()), "core.client")
    tracer.run(outer)
    # Clock reads: run 0, outer 10, inner 20-30, inner 40-50, outer 60, run 70.
    assert tracer.spans[("net.p2p", "core.client")] == [2, 20, 20]
    assert tracer.spans[("core.client", ROOT_SPAN)] == [1, 50, 30]
    assert tracer.spans[(ROOT_SPAN, ROOT_SPAN)] == [1, 70, 20]
    layers = tracer.by_layer()
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(tracer.total_ns / 1e9)
    assert layers["core.client"]["calls"] == 1  # the same-layer call opened no span


def test_kernel_interrupts_reach_a_traced_process():
    kernel = pytest.importorskip("repro.sim.kernel")
    outcomes = {}
    for traced in (False, True):
        tracer = LayerTracer()
        if traced:
            tracer.install()
        try:
            env = kernel.Environment()
            log = []

            def sleeper(env=env, log=log):
                try:
                    yield env.timeout(10.0)
                    log.append("woke")
                except kernel.Interrupt as interrupt:
                    log.append(("interrupted", interrupt.cause, env.now))
                    yield env.timeout(1.0)
                return "over"

            def waker(process, env=env):
                yield env.timeout(3.0)
                process.interrupt("crash")

            process = env.process(sleeper())
            env.process(waker(process))
            tracer.run(env.run)
            outcomes[traced] = (log, process.value, env.now, env.events_processed)
        finally:
            tracer.uninstall()
    assert outcomes[True] == outcomes[False]
    assert outcomes[True][0] == [("interrupted", "crash", 3.0)]
    assert kernel.Environment.process.__module__ == "repro.sim.kernel"


# -- compare.py ---------------------------------------------------------------------


def _report(value, samples, failed=0):
    spec = load_spec()
    entry = {"value": value, "samples": samples}
    workloads = {
        w["name"]: {"end_to_end": {m["name"]: dict(entry) for m in spec["end_to_end"]}}
        for w in spec["workloads"]
    }
    return {"seed": 1, "repeats": len(samples), "smoke": False,
            "attempted": 10, "failed": failed, "workloads": workloads}


def _statuses(old, new):
    return {(row[1], row[-1]) for row in compare.compare(old, new, load_spec())}


def test_compare_tells_regression_from_noise(tmp_path, capsys):
    # One sample per seed: they differ a lot, and identically in both reports.
    seeds = [1.0, 1.3, 0.8, 1.1, 1.6]
    old = _report(1.1, seeds)
    assert _statuses(old, _report(1.1, seeds)) == {
        (m["name"], "ok") for m in load_spec()["end_to_end"]
    }
    worse = _statuses(old, _report(2.2, [2 * s for s in seeds]))
    assert ("run_cpu_s", "REGRESSION") in worse and ("sim_speed", "ok") in worse
    better = _statuses(old, _report(0.55, [s / 2 for s in seeds]))
    assert ("run_cpu_s", "ok") in better and ("sim_speed", "REGRESSION") in better
    # Seed-by-seed ratios scattered wider than the bound: undecidable...
    scattered = [s * r for s, r in zip(seeds, (0.4, 1.9, 0.6, 1.7, 1.0))]
    assert ("run_cpu_s", "unresolved") in _statuses(old, _report(1.12, scattered))
    # ...unless every seed improved.
    faster = [s * r for s, r in zip(seeds, (0.2, 0.9, 0.3, 0.95, 0.5))]
    assert ("run_cpu_s", "ok") in _statuses(old, _report(0.7, faster))

    paths = []
    for label, report in (("old", old), ("same", _report(1.1, seeds)),
                          ("failing", _report(1.1, seeds, failed=1)),
                          ("shorter", _report(1.1, seeds[:3]))):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(report))
    assert compare.main([str(paths[0]), str(paths[1])]) == 0
    assert "0 regressions, 0 unresolved" in capsys.readouterr().out
    assert compare.main([str(paths[0]), str(paths[2])]) == 1
    assert compare.main([str(paths[0]), str(paths[3])]) == 2
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench/compare.py"), str(paths[0]), str(paths[1])],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
