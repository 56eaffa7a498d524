"""Robustness sweep: wireless message loss (not a paper figure).

The paper's channel model is ideal; this bench injects seeded frame loss
(i.i.d. + Gilbert–Elliott bursts on the P2P medium, quarter-rate loss on
the MSS links) and checks that cooperative caching *degrades* rather than
*collapses*:

* global cache hits shrink as the radio gets lossier — monotonically up
  to a small tolerance for seed noise;
* the MSS fallback keeps access latency bounded (no stranded requests);
* the bounded recovery machinery visibly works: retries and fault-drop
  counters are non-zero at high loss.
"""

import math

#: Adjacent sweep points may wobble this many GCH percentage points up
#: before we call the degradation non-monotonic (seed noise at small
#: scale profiles).
GCH_TOLERANCE = 2.0


def test_fig_link_loss(run_figure):
    table = run_figure("fig-loss", attempts=2)

    clean, worst = table.values[0], table.values[-1]
    for scheme in ("CC", "GC"):
        series = table.series(scheme, "gch_ratio")
        # Loss must cost global hits overall ...
        assert series[-1] < series[0]
        # ... and roughly monotonically along the way.
        for previous, current in zip(series, series[1:]):
            assert current <= previous + GCH_TOLERANCE
        # The MSS fallback keeps every request completing: latency stays
        # finite and within a small multiple of the fault-free baseline.
        for value in table.values:
            latency = table.result(scheme, value).access_latency
            assert math.isfinite(latency)
            assert latency < 10.0 * table.result(scheme, clean).access_latency

    # The recovery machinery visibly engaged at the lossy end.
    lossy = table.result("GC", worst)
    assert lossy.search_retries > 0
    assert lossy.mss_fallbacks > 0
    assert lossy.profile.counters["fault_p2p_drops"] > 0
    # The clean point built no injector (re-floods still answer *natural*
    # timeouts, so search_retries may be non-zero even without faults).
    assert "fault_p2p_drops" not in table.result("GC", clean).profile.counters
