"""Fig. 7: effect of the number of mobile hosts (system scalability).

Paper shapes this bench checks:
* LC's access latency blows up once the downlink saturates, while the
  cooperative schemes keep the system scalable;
* the power per GCH grows with density (more overheard traffic).
"""


def test_fig7_scalability(run_figure):
    table = run_figure("fig7")

    sparse, dense = table.values[0], table.values[-1]
    lc_sparse = table.result("LC", sparse)
    lc_dense = table.result("LC", dense)
    # The LC latency blow-up past the downlink saturation knee.
    assert lc_dense.access_latency > 3.0 * lc_sparse.access_latency
    # Cooperation keeps the system ahead of LC at every density; at the
    # dense end the gap is substantial (the paper's scalability claim).
    for scheme in ("CC", "GC"):
        for value in table.values:
            assert (
                table.result(scheme, value).access_latency
                < table.result("LC", value).access_latency
            )
        assert (
            table.result(scheme, dense).server_request_ratio
            < lc_dense.server_request_ratio
        )
    assert (
        min(
            table.result("CC", dense).access_latency,
            table.result("GC", dense).access_latency,
        )
        < 0.8 * lc_dense.access_latency
    )
    # Denser systems overhear more: power per GCH grows for CC.
    assert (
        table.result("CC", dense).power_per_gch
        > table.result("CC", sparse).power_per_gch
    )
