"""Fig. 8: effect of the client disconnection probability.

Paper shapes this bench checks:
* LC's access latency *improves* with the disconnection probability (the
  downlink decongests as clients pause);
* the cooperative schemes lose GCH as peers disappear;
* GroCoCa pays reconnection overhead (signature recollection), so its
  signature power grows with the disconnection rate.
"""


def test_fig8_disconnection(run_figure):
    table = run_figure("fig8")

    stable, flaky = table.values[0], table.values[-1]
    # The downlink decongests when clients go quiet.
    assert (
        table.result("LC", flaky).access_latency
        < table.result("LC", stable).access_latency
    )
    # Fewer reachable peers -> fewer global hits.
    for scheme in ("CC", "GC"):
        assert (
            table.result(scheme, flaky).gch_ratio
            < table.result(scheme, stable).gch_ratio
        )
    # GroCoCa's disconnection handling (membership sync + signature
    # recollection) is amortised over ever fewer global hits: the power per
    # GCH climbs with the disconnection rate (the paper's panel d).
    assert (
        table.result("GC", flaky).power_per_gch
        > table.result("GC", stable).power_per_gch
    )
