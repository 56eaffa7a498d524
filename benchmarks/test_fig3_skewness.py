"""Fig. 3: effect of the access-pattern skewness (Zipf θ).

Paper shapes this bench checks:
* access latency and server request ratio improve as θ grows (skewed
  accesses hit the local cache more);
* the GCH ratio first rises with θ (hot ranges concentrate in the TCG)
  and eventually sags as the local cache absorbs the demand.
"""


def test_fig3_skewness(run_figure):
    table = run_figure("fig3")

    uniform, most_skewed = table.values[0], table.values[-1]
    for scheme in ("LC", "CC", "GC"):
        assert (
            table.result(scheme, most_skewed).server_request_ratio
            < table.result(scheme, uniform).server_request_ratio
        )
        assert (
            table.result(scheme, most_skewed).lch_ratio
            > table.result(scheme, uniform).lch_ratio
        )
        assert (
            table.result(scheme, most_skewed).access_latency
            < table.result(scheme, uniform).access_latency
        )
    # Cooperative schemes keep collecting global hits across the sweep.
    for value in table.values:
        assert table.result("CC", value).global_hits > 0
        assert table.result("GC", value).global_hits > 0
