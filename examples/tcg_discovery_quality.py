#!/usr/bin/env python3
"""Scoring TCG discovery against the ground truth.

A real MSS never knows the true motion groups; the simulator does.  This
script runs GroCoCa, then uses ``tools/analysis.py`` to score what the
MSS discovered from piggybacked locations and sampled access patterns:

* precision / recall of the discovered TCG pairs vs the true groups,
* how the cooperative cache management reshapes cache contents — plain
  COCA members duplicate their shared hot set, GroCoCa suppresses the
  duplication and enlarges the group's aggregate cache.

Run:
    python examples/tcg_discovery_quality.py
"""

import sys
from pathlib import Path

import numpy as np

from repro import CachingScheme, SimulationConfig
from repro.core.simulation import Simulation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from analysis import (  # noqa: E402
    cache_duplication,
    cache_overlap_matrix,
    group_distinct_items,
    jain_fairness,
    tcg_discovery_quality,
)


def build(scheme):
    sim = Simulation(
        SimulationConfig(
            scheme=scheme,
            n_clients=20,
            n_data=2000,
            access_range=200,
            cache_size=30,
            group_size=5,
            bw_downlink=500_000.0,
            measure_requests=40,
            warmup_min_time=200.0,
            warmup_max_time=300.0,
            ndp_enabled=False,
            seed=17,
        )
    )
    sim.run()
    return sim


def mean_same_group_overlap(sim):
    matrix = cache_overlap_matrix(sim)
    groups = np.asarray(sim.group_of)
    same = groups[:, None] == groups[None, :]
    np.fill_diagonal(same, False)
    upper = np.triu(np.ones_like(same, dtype=bool), k=1)
    return matrix[same & upper].mean()


def main() -> None:
    print("Running GroCoCa (20 clients, 4 motion groups of 5) ...")
    gc = build(CachingScheme.GC)
    quality = tcg_discovery_quality(gc)
    print("\nTCG discovery vs ground-truth motion groups")
    print(f"  true same-group pairs   : {quality.true_pairs}")
    print(f"  discovered TCG pairs    : {quality.discovered_pairs}")
    print(f"  correct                 : {quality.correct_pairs}")
    print(f"  precision / recall / F1 : {quality.precision:.2f} /"
          f" {quality.recall:.2f} / {quality.f1:.2f}")

    print("\nRunning plain COCA on the same world for contrast ...")
    cc = build(CachingScheme.CC)
    print("\nCache content shape (per motion group)")
    print(f"  {'':>28} {'COCA':>8} {'GroCoCa':>9}")
    print(f"  {'distinct items cached':>28}"
          f" {np.mean(list(group_distinct_items(cc).values())):>8.0f}"
          f" {np.mean(list(group_distinct_items(gc).values())):>9.0f}")
    print(f"  {'duplication (copies/distinct)':>28}"
          f" {cache_duplication(cc):>8.2f} {cache_duplication(gc):>9.2f}")
    print(f"  {'same-group cache overlap':>28}"
          f" {mean_same_group_overlap(cc):>8.3f}"
          f" {mean_same_group_overlap(gc):>9.3f}")

    per_client = gc.metrics.per_client_requests
    print(f"\nRequest fairness across clients (Jain): "
          f"{jain_fairness(per_client):.3f}")
    print(
        "\nGroCoCa discovered the tour groups from sampled data alone and"
        "\nconverted them into a bigger aggregate cache: fewer duplicate"
        "\ncopies, more distinct items per group."
    )


if __name__ == "__main__":
    main()
