"""The six benchmark workloads, as JSON-ready ``SimulationConfig`` overrides.

Every workload is closed loop: each simulated host issues its next
request only after the previous one completed.  Sizes are set by the
driver's time cap (a child must finish in about two seconds so that a
15 s run holds seven or more seeds), so they are ``BENCH_PROFILE``
scaled down with its Table II ratios kept: cache = 10% of the access
range, access range = 10% of the database, downlink = 25 kbit/s per
client.  README.md gives the reason each workload exists.
"""

from __future__ import annotations

#: Shared by every workload; 60 s of warm-up fills a 30-item cache at one
#: request per second, so measurement starts with full caches.
BASE = {
    "n_clients": 40,
    "n_data": 3000,
    "access_range": 300,
    "cache_size": 30,
    "measure_requests": 20,
    "warmup_min_time": 60.0,
    "warmup_max_time": 60.0,
}

_GC_STEADY = {"scheme": "GC"}

#: name -> {"config": overrides on BASE, optional "observed": attach the
#: invariant monitor and the observer, optional "baseline": the workload
#: whose run time this one's is compared against}.
WORKLOADS = {
    "lc-server": {"config": {"scheme": "LC", "n_clients": 160}},
    "cc-flood": {
        "config": {
            "scheme": "CC",
            "n_clients": 50,
            "measure_requests": 15,
            "warmup_min_time": 50.0,
            "warmup_max_time": 50.0,
        }
    },
    "gc-steady": {"config": _GC_STEADY},
    "gc-churn": {
        "config": {
            **_GC_STEADY,
            # 10 updates/s on the 10 000-item database, per item.
            "data_update_rate": 3.0,
            "p_disc": 0.1,
            "faults": {
                "p2p": {"loss": 0.1},
                "uplink": {},
                "downlink": {},
                "crash": {"rate": 0.002},
            },
            "search_retry_limit": 1,
            "retrieve_retry_limit": 2,
            "peer_policy": "latency-aware",
            "breaker_threshold": 3,
            "crash_failover": True,
        }
    },
    "gc-scale": {
        "config": {
            **_GC_STEADY,
            "n_clients": 120,
            "area_width": 1100.0,
            "area_height": 1100.0,
            "measure_requests": 5,
            "warmup_min_time": 20.0,
            "warmup_max_time": 20.0,
        }
    },
    "gc-observed": {"config": _GC_STEADY, "observed": True, "baseline": "gc-steady"},
}

#: ``--smoke``: the same six shapes at a size that runs in well under a second.
SMOKE = {
    "n_clients": 10,
    "n_data": 500,
    "access_range": 100,
    "cache_size": 10,
    "measure_requests": 3,
    "warmup_min_time": 20.0,
    "warmup_max_time": 20.0,
}


def config_overrides(name: str, seed: int, smoke: bool = False) -> dict:
    """The ``SimulationConfig`` fields workload ``name`` sets, JSON-ready."""
    overrides = {**BASE, **WORKLOADS[name]["config"], "seed": seed}
    if smoke:
        overrides.update(SMOKE)
    overrides["bw_downlink"] = 25_000.0 * overrides["n_clients"]
    return overrides
