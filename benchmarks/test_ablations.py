"""Ablations of GroCoCa's design choices (DESIGN.md A1-A4).

Each ablation runs GroCoCa with one mechanism disabled and compares it to
the full scheme under the same seed, quantifying what each of Section IV's
components buys:

* A1 — cooperative cache admission control off,
* A2 — cooperative cache replacement off (plain LRU victim),
* A3 — signature compression off (raw Bloom filters on the air),
* A4 — signature filtering off (every local miss searches the peers).
"""

from conftest import run_once

from repro.core.config import CachingScheme
from repro.core.simulation import run_simulation
from repro.experiments import base_config, format_results_row


def _compare(benchmark, record_table, stem, title, **disabled):
    config = base_config(scheme=CachingScheme.GC)

    def runs():
        full = run_simulation(config)
        ablated = run_simulation(config.replace(**disabled))
        return full, ablated

    full, ablated = run_once(benchmark, runs)
    text = "\n".join(
        [
            f"=== Ablation {stem.removeprefix('ablation_')}: {title} ===",
            f"  full GroCoCa : {format_results_row(full)}",
            f"  ablated      : {format_results_row(ablated)}",
            f"  searches full/ablated: {full.peer_searches}/{ablated.peer_searches}"
            f"  bypassed: {full.bypassed_searches}/{ablated.bypassed_searches}",
            f"  signature power full/ablated: "
            f"{full.power_signature:.0f}/{ablated.power_signature:.0f} uW.s",
        ]
    )
    record_table(stem, text)
    return full, ablated


def test_ablation_a1_admission_control(benchmark, record_table):
    full, ablated = _compare(
        benchmark,
        record_table,
        "ablation_a1_admission",
        "cooperative cache admission control",
        admission_policy="always",
    )
    # Without admission control TCG members duplicate each other's items,
    # shrinking the aggregate cache: the GCH ratio must not improve.
    assert ablated.gch_ratio <= full.gch_ratio + 1.0


def test_ablation_a2_cooperative_replacement(benchmark, record_table):
    full, ablated = _compare(
        benchmark,
        record_table,
        "ablation_a2_replacement",
        "cooperative cache replacement",
        replacement_policy="lru",
    )
    # Replica-first eviction is the second-order mechanism: admission
    # control already suppresses most intra-TCG duplication, so at this
    # scale the replacement protocol moves the ratios only within noise.
    # Guard against regressions in either direction, not a fixed winner.
    assert abs(ablated.gch_ratio - full.gch_ratio) < 3.0
    assert abs(ablated.server_request_ratio - full.server_request_ratio) < 3.0


def test_ablation_a3_signature_compression(benchmark, record_table):
    from repro.core.simulation import Simulation

    config = base_config(scheme=CachingScheme.GC)

    def runs():
        sims = (
            Simulation(config),
            Simulation(config.replace(signature_compression=False)),
        )
        return tuple((sim, sim.run()) for sim in sims)

    (full_sim, full), (ablated_sim, ablated) = run_once(benchmark, runs)

    def signature_traffic(sim):
        sent = sum(c.signatures.signatures_sent_compressed for c in sim.clients)
        raw = sum(c.signatures.signatures_sent_raw for c in sim.clients)
        total_bytes = sum(c.signatures.signature_bytes_sent for c in sim.clients)
        return sent, raw, total_bytes

    full_compressed, full_raw, full_bytes = signature_traffic(full_sim)
    abl_compressed, abl_raw, abl_bytes = signature_traffic(ablated_sim)
    full_count = full_compressed + full_raw
    abl_count = abl_compressed + abl_raw
    text = "\n".join(
        [
            "=== Ablation a3: VLFL signature compression ===",
            f"  full GroCoCa : {format_results_row(full)}",
            f"  ablated      : {format_results_row(ablated)}",
            f"  signatures sent (compressed/raw): full {full_compressed}/"
            f"{full_raw}, ablated {abl_compressed}/{abl_raw}",
            f"  mean bytes per signature: full "
            f"{full_bytes / max(full_count, 1):.0f}, ablated "
            f"{abl_bytes / max(abl_count, 1):.0f}",
        ]
    )
    record_table("ablation_a3_compression", text)
    # With compression disabled every signature goes out raw at sigma/8.
    assert abl_compressed == 0
    assert abl_bytes / max(abl_count, 1) == config.signature_bits // 8
    # Compression must shrink the mean signature on the air.
    assert full_compressed > 0
    assert full_bytes / max(full_count, 1) < abl_bytes / max(abl_count, 1)


def test_ablation_a4_signature_filtering(benchmark, record_table):
    full, ablated = _compare(
        benchmark,
        record_table,
        "ablation_a4_filtering",
        "cache signature search filtering",
        signature_filtering=False,
    )
    # Without the filter nothing is bypassed and far more searches happen.
    assert ablated.bypassed_searches == 0
    assert ablated.peer_searches > full.peer_searches
