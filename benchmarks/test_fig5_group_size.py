"""Fig. 5: effect of the motion group size.

Paper shapes this bench checks:
* group size 1 (individual random waypoint) is the cooperative schemes'
  worst case on the GCH ratio;
* the GCH and server request ratios improve with group size (more nearby
  peers with similar data affinity);
* larger groups raise the power per GCH (more overheard traffic in the
  group's vicinity).
"""


def test_fig5_group_size(run_figure):
    table = run_figure("fig5")

    loner, largest = table.values[0], table.values[-1]
    for scheme in ("CC", "GC"):
        solo = table.result(scheme, loner)
        grouped = table.result(scheme, largest)
        # Solo mobility is the worst case for cooperation.
        assert solo.gch_ratio == min(table.series(scheme, "gch_ratio"))
        assert grouped.gch_ratio > solo.gch_ratio
        assert grouped.server_request_ratio < solo.server_request_ratio
    # LC is indifferent to grouping (no cooperation to gain from it).
    lc_series = table.series("LC", "gch_ratio")
    assert all(v == 0 for v in lc_series)
