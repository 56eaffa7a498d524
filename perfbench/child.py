"""One measured simulator run in a fresh process.

``python3 -m perfbench.child '{"workload": ..., "seed": ..., "traced": ...,
"smoke": ...}'`` builds the workload's simulation, runs it, checks the
outcome and prints one JSON record as its last line.  The harness starts
one such child per (workload, repeat) so that set-up time and peak RSS are
those of a cold process, as a user pays them.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import resource
import sys
import time

from perfbench.calibration import HostMeter
from perfbench.tracer import LAYERS, ROOT, LayerTracer
from perfbench.workloads import WORKLOADS, config_overrides


def results_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON of every simulated statistic."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run(spec: dict) -> dict:
    import numpy

    from repro.core.config import SimulationConfig
    from repro.core.simulation import Simulation

    workload = WORKLOADS[spec["workload"]]
    monitor = observer = None
    if workload.get("observed"):
        from repro.check.monitor import InvariantMonitor
        from repro.obs.session import Observer

        monitor = InvariantMonitor(mode="collect")
        observer = Observer()
    tracer = None
    if spec["traced"]:
        tracer = LayerTracer()
        tracer.install()

    overrides = config_overrides(spec["workload"], spec["seed"], spec["smoke"])
    config = SimulationConfig.from_dict({**SimulationConfig().as_dict(), **overrides})
    simulation = Simulation(config, monitor=monitor, observer=observer)
    meter = HostMeter()
    if tracer is None:
        # Under the tracer the pieces would be booked to a layer; a traced
        # run reports shares of its own total and needs no calibration.
        simulation.env.process(meter.process(simulation.env))
    # CPU time since the process began: interpreter start, imports, wiring.
    raw_setup_s = time.process_time()

    marks = {}

    def warm_up_then_measure():
        # Exactly Simulation.run(), split so that the phases can be timed.
        simulation.warm_up()
        marks["warmup"] = meter.sim_seconds()
        return simulation.measure()

    gc.collect()
    wall_start = time.perf_counter()
    meter.start()
    if tracer is not None:
        results = tracer.run(warm_up_then_measure)
        tracer.uninstall()  # the finalisers below are outside the traced total
    else:
        results = warm_up_then_measure()
    raw_run_cpu_s = meter.sim_seconds()
    run_wall_s = time.perf_counter() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    slowdown = meter.slowdown()
    run_cpu_s = raw_run_cpu_s / slowdown

    if monitor is not None:
        monitor.finalize(simulation)
    if observer is not None:
        observer.finalize(simulation)

    model = dataclasses.asdict(results)
    del model["profile"]
    work = simulation.profile(run_wall_s).counters
    searches = results.peer_searches + results.bypassed_searches
    snapshots = (
        work["snapshot_refreshes"] + work["snapshot_reuses"] + work["snapshot_rebuilds"]
    )
    counters = {
        "sim.kernel.events": simulation.env.events_processed,
        "sim.kernel.events_per_s": simulation.env.events_processed / run_cpu_s,
        "sim.kernel.freelist_hits": simulation.env.freelist_hits,
        "mobility.field.snapshot_refreshes": work["snapshot_refreshes"],
        "mobility.field.snapshot_reuses": work["snapshot_reuses"],
        "mobility.field.snapshot_rebuilds": work["snapshot_rebuilds"],
        "mobility.field.reuse_ratio": _ratio(work["snapshot_reuses"], snapshots),
        "net.p2p.broadcasts": work["p2p_broadcasts"],
        "net.p2p.unicasts": work["p2p_unicasts"],
        "net.p2p.failed_unicasts": work["p2p_failed_unicasts"],
        "net.p2p.failed_ratio": _ratio(work["p2p_failed_unicasts"], work["p2p_unicasts"]),
        "net.channel.uplink_requests": work["server_uplink_requests"],
        "net.channel.downlink_requests": work["server_downlink_requests"],
        "net.channel.uplink_wait_sim_s": work["server_uplink_wait"],
        "net.channel.downlink_wait_sim_s": work["server_downlink_wait"],
        "net.ndp.rounds": work["ndp_rounds"],
        "net.ndp.beacons_sent": work["beacons_sent"],
        "net.faults.p2p_drops": work.get("fault_p2p_drops", 0),
        "net.faults.crashes": work.get("fault_crashes", 0),
        "net.health.breaker_trips": work.get("health_breaker_trips", 0),
        "net.health.breaker_probes": work.get("health_breaker_probes", 0),
        "net.health.fast_failovers": work.get("health_fast_failovers", 0),
        "core.client.peer_searches": results.peer_searches,
        "core.client.bypassed_searches": results.bypassed_searches,
        "core.client.search_hit_ratio": _ratio(results.global_hits, results.peer_searches),
        "core.client.retries": results.search_retries
        + results.retrieve_retries
        + results.uplink_retries,
        "core.client.mss_fallbacks": results.mss_fallbacks,
        "signatures.bypass_ratio": _ratio(results.bypassed_searches, searches),
        "observers.checks_run": monitor.checks_run if monitor is not None else 0,
        "observers.violations": len(monitor.violations) if monitor is not None else 0,
        "observers.spans": len(observer.tracer.spans()) if observer is not None else 0,
        "phase.warmup_cpu_s": marks["warmup"] / slowdown,
        "phase.measure_cpu_s": (raw_run_cpu_s - marks["warmup"]) / slowdown,
        "model.requests": results.requests,
        "model.lch_ratio": results.lch_ratio,
        "model.gch_ratio": results.gch_ratio,
        "model.server_request_ratio": results.server_request_ratio,
        "model.failure_ratio": results.failure_ratio,
        "model.access_latency_sim_s": results.access_latency,
        # inf when no request was a global hit; 0 keeps the JSON strict.
        "model.power_per_gch": results.power_per_gch
        if math.isfinite(results.power_per_gch)
        else 0.0,
        "model.sim_time": results.sim_time,
        "harness.wall_s": run_wall_s,
        "harness.raw_run_cpu_s": raw_run_cpu_s,
        "harness.host_slowdown": slowdown,
    }

    failures = []
    outcomes = (
        results.local_hits + results.global_hits + results.server_requests + results.failures
    )
    if outcomes != results.requests:
        failures.append(f"outcomes sum to {outcomes}, not to {results.requests} requests")
    if simulation.metrics.min_client_requests() < config.measure_requests:
        failures.append("a client did not reach measure_requests")
    if results.sim_time >= config.max_sim_time:
        failures.append("the run hit max_sim_time")
    if monitor is not None and monitor.violations:
        failures.append(f"{len(monitor.violations)} invariant violations")

    record = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "traced": spec["traced"],
        "numpy": numpy.__version__,
        "setup_s": raw_setup_s / slowdown,
        "run_cpu_s": run_cpu_s,
        "raw_run_cpu_s": raw_run_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": results_digest(model),
        "counters": counters,
        "failures": failures,
    }
    if tracer is not None:
        layers = tracer.by_layer()
        total_s = tracer.total_ns / 1e9
        attributed = sum(layers[layer]["self_s"] for layer in LAYERS)
        if abs(attributed - total_s) > 0.01 * total_s:
            failures.append(
                f"layer self times sum to {attributed:.4f}s of {total_s:.4f}s traced"
            )
        record["trace"] = {
            "total_s": total_s,
            "unattributed_s": layers.pop(ROOT)["self_s"],
            "layers": layers,
            "edges": tracer.edges(),
        }
    return record


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
