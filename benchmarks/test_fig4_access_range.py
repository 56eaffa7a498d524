"""Fig. 4: effect of the access range.

Paper shapes this bench checks:
* all schemes degrade as the access range grows (more distinct items,
  lower LCH and GCH ratios, more server requests);
* the cooperative schemes stay ahead of LC, with GroCoCa the most
  effective as the range grows.
"""


def test_fig4_access_range(run_figure):
    table = run_figure("fig4")

    narrow, wide = table.values[0], table.values[-1]
    for scheme in ("LC", "CC", "GC"):
        assert (
            table.result(scheme, wide).server_request_ratio
            > table.result(scheme, narrow).server_request_ratio
        )
        assert (
            table.result(scheme, wide).lch_ratio
            < table.result(scheme, narrow).lch_ratio
        )
    for scheme in ("CC", "GC"):
        assert (
            table.result(scheme, wide).gch_ratio
            < table.result(scheme, narrow).gch_ratio
        )
    # Cooperation still beats LC on the server ratio at every range, and GC
    # leads CC where the working sets are shareable (the narrow end).
    for value in table.values:
        assert (
            table.result("CC", value).server_request_ratio
            < table.result("LC", value).server_request_ratio
        )
        assert (
            table.result("GC", value).server_request_ratio
            < table.result("LC", value).server_request_ratio
        )
    assert (
        table.result("GC", narrow).gch_ratio > table.result("CC", narrow).gch_ratio
    )
