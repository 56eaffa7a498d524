"""Policy plugin matrix: admission/replacement policy × Zipf θ (not a paper
figure).

Stock GroCoCa keeps the paper's admission rule (Section IV-D) and
replacement rule (Section IV-E); every ``GC+<key>`` row swaps exactly one
of them for another registered policy, with LC, CC and stock GC framing
the comparison on paired seeds.  The claims this bench checks are the ones
EXPERIMENTS.md's Extension E4 states on the GCH ratio:

* every admission swap loses to stock GroCoCa at every skewness (they
  forgo the TCG-membership signal);
* no swap, admission or replacement, beats stock GroCoCa by more than
  seed-to-seed noise (two points) anywhere.
"""

from repro.experiments import FIGURES

#: Seed-to-seed spread of a GCH ratio at this scale, in points.
NOISE = 2.0


def test_fig_policy_matrix(run_figure):
    table = run_figure("fig-matrix")

    rows = FIGURES["fig-matrix"].rows
    swaps = [row for row in table.rows if row.startswith("GC+")]
    for value in table.values:
        stock = table.result("GC", value).gch_ratio
        for row in swaps:
            swapped = table.result(row, value).gch_ratio
            context = f"{row} vs GC at theta={value}: {swapped:.2f}% vs {stock:.2f}%"
            assert swapped <= stock + NOISE, context
            if "admission_policy" in rows[row]:
                assert swapped < stock, context
