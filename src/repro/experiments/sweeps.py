"""The figures of the paper's Section VI, one table row each.

Every figure has the same shape — one swept Table II parameter, a set of
rows (the LC / CC / GC series unless the figure names its own), the same
four panels (access latency, server request ratio, GCH ratio, power per
GCH) — so a figure is a :class:`~repro.experiments.runner.Figure` row of
:data:`FIGURES` and :func:`~repro.experiments.runner.run_sweep` is the one
function that runs it.  ``repro sweep``, the figure benches and
``tools/fault_smoke.py`` read this table; each row's series is committed
as ``results/<stem>.txt`` and copied into EXPERIMENTS.md in place.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.runner import SCHEME_ROWS, Figure
from repro.net.faults import CrashFaults, FaultPlan, LinkFaults

__all__ = ["FIGURES"]


def _fault_plan(loss: float, crashes: bool) -> FaultPlan:
    """The lossy-radio recipe of FigLoss and FigPolicy at one loss level.

    ``loss`` is the i.i.d. P2P frame-loss probability; a Gilbert–Elliott
    bursty component and a quarter-rate loss on the MSS links scale along
    with it.  ``crashes`` adds a low-rate crash-stop process, so the
    circuit breakers and the crash fast-failover actually have outages to
    react to.
    """
    parts: Dict[str, Any] = dict(
        p2p=LinkFaults(
            loss=loss,
            burst_loss=min(1.0, 2.0 * loss),
            burst_on=0.05 if loss > 0 else 0.0,
            burst_off=0.5,
        ),
        uplink=LinkFaults(loss=loss / 4.0),
        downlink=LinkFaults(loss=loss / 4.0),
    )
    if crashes:
        parts["crash"] = CrashFaults(
            rate=0.0005 if loss > 0 else 0.0, down_min=2.0, down_max=8.0
        )
    return FaultPlan(**parts)


#: What every adaptive FigPolicy row switches on beside its scoring key:
#: circuit breakers, a hedged second request, a per-query deadline budget,
#: crash fast-failover and jittered backoff.
_FAILURE_AWARE: Dict[str, Any] = dict(
    breaker_threshold=3,
    breaker_cooldown=2.0,
    hedge_quantile=0.9,
    retrieve_deadline=5.0,
    crash_failover=True,
    retry_jitter=0.1,
)

#: The FigMatrix rows.  The three schemes are the paper's baselines; the GC
#: variants swap exactly one registry key, so every column is an ablation
#: of that axis against stock GroCoCa at the same seed (not the same draws).
_MATRIX_ROWS: Dict[str, Dict[str, Any]] = {
    **SCHEME_ROWS,
    "GC+probcache": {"admission_policy": "probcache"},
    "GC+lcd": {"admission_policy": "lcd"},
    "GC+lru-min": {"replacement_policy": "lru-min"},
    "GC+greedy-dual": {"replacement_policy": "greedy-dual"},
    "GC+popularity": {"replacement_policy": "popularity-rank"},
}

FIGURES: Dict[str, Figure] = {
    figure.key: figure
    for figure in (
        # Fig. 2: cache size (50..250 data items).  The quick profile
        # shrinks the x-axis with its access range so caches never cover
        # the whole working set.
        Figure(
            key="fig2",
            label="Fig2",
            parameter="cache_size",
            title="effect of cache size",
            stem="fig2_cache_size",
            axis={"quick": (10, 20, 30, 40, 60), "bench": (50, 100, 150, 200, 250)},
        ),
        # Fig. 3: the Zipf skewness parameter θ (0..1).
        Figure(
            key="fig3",
            label="Fig3",
            parameter="theta",
            title="effect of access skewness",
            stem="fig3_skewness",
            axis={"bench": (0.0, 0.25, 0.5, 0.75, 1.0)},
        ),
        # Fig. 4: access range (500..10,000 data items).  Wider ranges
        # dilute the sampled access pattern (Σp² shrinks), so TCG discovery
        # needs a longer settling window before recording.
        Figure(
            key="fig4",
            label="Fig4",
            parameter="access_range",
            title="effect of access range",
            stem="fig4_access_range",
            axis={
                "quick": (100, 200, 500, 1000),
                "bench": (500, 1000, 2000, 5000, 10_000),
            },
            point=lambda value: dict(
                access_range=value,
                warmup_min_time=min(300.0 + value / 20.0, 800.0),
            ),
        ),
        # Fig. 5: motion group size (1..20 MHs).
        Figure(
            key="fig5",
            label="Fig5",
            parameter="group_size",
            title="effect of motion group size",
            stem="fig5_group_size",
            axis={"bench": (1, 5, 10, 15, 20)},
        ),
        # Fig. 6: data item update rate (0..10 items/s).  The quick
        # profile's database is 5x smaller, so the same per-item churn
        # needs proportionally lower aggregate rates; its top rate is
        # raised so the effect is visible within the short measurement
        # window.
        Figure(
            key="fig6",
            label="Fig6",
            parameter="data_update_rate",
            title="effect of data update rate",
            stem="fig6_update_rate",
            axis={
                "quick": (0.0, 1.0, 2.0, 5.0, 20.0),
                "bench": (0.0, 1.0, 2.0, 5.0, 10.0),
            },
        ),
        # Fig. 7: scalability against the number of MHs.  The range is
        # profile-dependent so the downlink saturation point (the figure's
        # knee) always falls inside it.  Past the knee the closed loop
        # slows every client, so the MSS observes patterns more slowly;
        # stretch the settling window.
        Figure(
            key="fig7",
            label="Fig7",
            parameter="n_clients",
            title="effect of number of MHs",
            stem="fig7_scalability",
            axis={
                "quick": (10, 20, 40, 80),
                "bench": (30, 60, 120, 180, 240),
                "full": (50, 100, 200, 300, 400),
            },
            point=lambda value: dict(
                n_clients=value, warmup_min_time=max(300.0, 2.5 * value)
            ),
        ),
        # Fig. 8: client disconnection probability (0..0.3).
        Figure(
            key="fig8",
            label="Fig8",
            parameter="p_disc",
            title="effect of disconnection probability",
            stem="fig8_disconnection",
            axis={"bench": (0.0, 0.05, 0.1, 0.2, 0.3)},
        ),
        # FigLoss: wireless message loss (0..30%).  Not a figure of the
        # paper — its channel model is ideal — but the same story told
        # against a lossy radio: cooperative caching should degrade
        # smoothly as the P2P medium loses frames, with the MSS fallback
        # keeping latency bounded.  The protocol's bounded recovery (one
        # search re-flood, one retrieve failover, three server retries) is
        # enabled so losses cost retries instead of stranding runs.
        Figure(
            key="fig-loss",
            label="FigLoss",
            parameter="link_loss",
            title="effect of wireless message loss",
            stem="fig_link_loss",
            axis={"bench": (0.0, 0.05, 0.1, 0.2, 0.3)},
            point=lambda value: dict(
                faults=_fault_plan(value, crashes=False),
                search_retry_limit=1,
                retrieve_retry_limit=1,
                uplink_retry_limit=3,
            ),
        ),
        # FigPolicy: replier-scoring policy × P2P fault rate, GroCoCa only.
        # Rows are the registry's peer-scoring keys instead of caching
        # schemes, named here because their order is the plotted order:
        # ``arrival`` runs the paper's retrieve path untouched (no health
        # layer at all — the golden-default baseline), every other row
        # adds the failure-aware layer.
        Figure(
            key="fig-policy",
            label="FigPolicy",
            parameter="p2p_loss",
            title="retrieve scoring policy x P2P fault rate",
            stem="fig_peer_policy",
            axis={"bench": (0.0, 0.1, 0.2, 0.3)},
            point=lambda value: dict(
                faults=_fault_plan(value, crashes=True),
                search_retry_limit=1,
                retrieve_retry_limit=2,
                uplink_retry_limit=3,
            ),
            rows={
                policy: (
                    {}
                    if policy == "arrival"
                    else dict(_FAILURE_AWARE, peer_policy=policy)
                )
                for policy in (
                    "arrival",
                    "least-pending",
                    "latency-aware",
                    "power-aware",
                    "epsilon-greedy",
                )
            },
            row_word="policy",
        ),
        # FigMatrix: registered admission/replacement policies × Zipf θ —
        # the knob that separates popularity-aware policies from
        # recency-only ones.  Every run takes a non-zero update rate so
        # the TTL-aware policies (``lru-min``, ``greedy-dual``) have finite
        # expiries to rank.
        Figure(
            key="fig-matrix",
            label="FigMatrix",
            parameter="theta",
            title="admission/replacement policy x Zipf skewness",
            stem="fig_policy_matrix",
            axis={"bench": (0.5, 0.8, 0.95)},
            point=lambda value: dict(theta=value, data_update_rate=1.0),
            rows=_MATRIX_ROWS,
            row_word="row",
        ),
    )
}
