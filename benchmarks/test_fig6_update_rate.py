"""Fig. 6: effect of the data item update rate.

Paper shapes this bench checks:
* all schemes degrade as the update rate grows (cached copies expire, so
  both LCH and GCH fall and the server serves more);
* the power per GCH rises with the update rate (the search machinery is
  amortised over fewer global hits).
"""


def test_fig6_update_rate(run_figure):
    table = run_figure("fig6")

    fresh, churny = table.values[0], table.values[-1]
    # Updates force validations and refreshes; without updates there are none.
    for scheme in ("LC", "CC", "GC"):
        assert table.result(scheme, fresh).validations == 0
        assert table.result(scheme, churny).validations > 0
        assert table.result(scheme, churny).validation_refreshes > 0
        # Expiring copies cannot *relieve* the server (0.5pp noise floor).
        assert (
            table.result(scheme, churny).server_request_ratio
            > table.result(scheme, fresh).server_request_ratio - 0.5
        )
    for scheme in ("CC", "GC"):
        # Churn erodes global hits and the power amortisation behind them.
        assert (
            table.result(scheme, churny).gch_ratio
            < table.result(scheme, fresh).gch_ratio + 0.5
        )
        assert (
            table.result(scheme, churny).power_per_gch
            > 0.9 * table.result(scheme, fresh).power_per_gch
        )
