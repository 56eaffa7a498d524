"""The committed series against a closed-form model they were not fit to.

``tests/_analytic_reference.py`` predicts a host's own-cache hit ratio
(Che's LRU approximation over the Zipf window) and the cooperative hit of
a motion group whose caches are independent (any covering cache hits).
LC has no peers, so its local hit ratio is everything it does not send to
the server; the prediction must hold at every cell of the cache-size,
skewness and access-range figures.  The cooperative prediction is held to
both cooperative schemes at the default point only.
"""

import sys
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig
from repro.experiments import FIGURES
from tests._analytic_reference import group_hit_percent, local_hit_percent

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))
from claims import parse_table  # noqa: E402

SERVER = "(b) Server Request Ratio [%]"
GCH = "(c) GCH Ratio [%]"


def _panels(key):
    path = REPO_ROOT / "results" / f"{FIGURES[key].stem}.txt"
    return parse_table(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", ["fig2", "fig3", "fig4"])
def test_lc_local_hits_match_che_within_a_point(key):
    labels, panels = _panels(key)
    assert all(float(cell) == 0 for cell in panels[GCH]["LC"]), "LC has no peers"
    figure = FIGURES[key]
    assert [str(x) for x in figure.axis["bench"]] == labels
    misses = {}
    for x, server in zip(figure.axis["bench"], panels[SERVER]["LC"]):
        config = figure.config(x, "LC")
        predicted = local_hit_percent(config.access_range, config.theta, config.cache_size)
        misses[x] = abs((100.0 - float(server)) - predicted)
    assert max(misses.values()) <= 1.0, misses


def test_cooperative_hits_match_group_coverage_at_the_default_point():
    labels, panels = _panels("fig2")
    default = SimulationConfig()
    predicted = group_hit_percent(
        default.access_range, default.theta, default.cache_size, default.group_size
    )
    column = labels.index(str(default.cache_size))
    for scheme in ("CC", "GC"):
        measured = float(panels[GCH][scheme][column])
        assert abs(measured - predicted) <= 2.0, (scheme, measured, predicted)
