"""Robustness sweep: retrieve scoring policy × P2P fault rate (not a paper
figure).

The paper's retrieve protocol always pulls from the first replier.  This
bench runs GroCoCa under the failure-aware retrieve layer
(:mod:`repro.net.health`) across increasingly hostile radio conditions —
bursty P2P loss, quarter-rate MSS loss and a low-rate crash-stop process —
and checks that the adaptive machinery earns its keep:

* under heavy loss at least one adaptive policy beats the legacy
  ``arrival`` baseline on mean access latency (paired seeds, common
  random numbers);
* the machinery visibly engages at the lossy end: breakers trip and
  probe, and the health counters appear in the run profile;
* the ``arrival`` rows run the untouched legacy path — no health layer,
  no health counters.
"""

import math

ADAPTIVE = ("least-pending", "latency-aware", "power-aware", "epsilon-greedy")


def test_fig_peer_policy(run_figure):
    table = run_figure("fig-policy", attempts=2)

    # Every run completed: latency finite for all policies at all points.
    for policy in table.rows:
        for value in table.values:
            assert math.isfinite(table.result(policy, value).access_latency)

    # ISSUE 7 acceptance: at heavy loss some adaptive policy beats the
    # legacy arrival baseline on mean access latency.
    for value in (v for v in table.values if v >= 0.2):
        arrival = table.result("arrival", value).access_latency
        best = min(
            table.result(policy, value).access_latency for policy in ADAPTIVE
        )
        assert best < arrival, (
            f"no adaptive policy beat arrival at p2p_loss={value}: "
            f"best {best:.4f}s vs arrival {arrival:.4f}s"
        )

    # The failure-aware machinery visibly engaged at the lossy end ...
    worst = table.values[-1]
    lossy = table.result("latency-aware", worst)
    assert lossy.profile.counters["health_breaker_trips"] > 0
    assert lossy.profile.counters["health_breaker_probes"] > 0
    # ... and the legacy baseline ran with no health layer at all.
    for value in table.values:
        counters = table.result("arrival", value).profile.counters
        assert not any(name.startswith("health_") for name in counters)
