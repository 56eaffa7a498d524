"""Workload sweep: demand model × caching scheme (not a paper figure).

The paper evaluates one stationary Zipf demand process.  This bench runs
all three schemes under every generative engine in ``repro.workloads`` —
YCSB-style mixes, flash crowds, diurnal rate swings, popularity drift —
and checks the qualitative story survives the demand side changing:

* the ``stationary-zipf`` column is the legacy process bit-for-bit, so
  its numbers line up with Fig. 2's default point at this profile;
* cooperation keeps paying under every demand model: GC/CC beat LC on
  server request ratio across the board (paired seeds per column);
* the non-stationary engines visibly shift the operating point — the
  sweep is not six relabelled copies of the same column.
"""

import math


def test_fig_workload(run_figure):
    table = run_figure("fig-workload")

    # Every run completed with finite metrics.
    for scheme in table.rows:
        for key in table.values:
            assert math.isfinite(table.result(scheme, key).access_latency)

    # Cooperation helps under every demand model: fewer server requests
    # than the no-cooperation baseline (paired seeds per column).
    for key in table.values:
        lc = table.result("LC", key).server_request_ratio
        assert table.result("CC", key).server_request_ratio < lc
        assert table.result("GC", key).server_request_ratio < lc

    # The engines genuinely differ: the sweep spreads the GC operating
    # point instead of replaying one column six times.
    latencies = [table.result("GC", key).access_latency for key in table.values]
    assert max(latencies) > min(latencies)
