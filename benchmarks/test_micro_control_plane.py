"""Micro-benchmark of the GroCoCa control plane (Sections IV-A..D).

Two per-message costs, each timed next to the design it replaced
(``tests/_control_plane_reference.py``, the previous revision's code):

* one **MSS contact** — ``record_location`` + ``record_access`` +
  ``drain_changes`` on the TCG manager, at N ∈ {40, 120, 240} hosts and
  the paper's density: a recheck of the pairs within Δ against a fresh
  similarity row and a masked WADM gather/scatter per call;
* one **SigReply** (payload build, wire size, merge into the requester's
  peer vector) and one **take_update** (the piggyback delta of a search
  broadcast) at σ = 10 000, k = 2 for caches of ε ∈ {30, 100} items:
  set-bit positions and a counted VLFL size against σ-vectors and a real
  VLFL round trip.

Both sides replay the same call sequence, alternately and ``REPEATS`` times
over (the best pass is reported: the box is shared and a single pass swings
by tens of percent), and must end in the same state; the timings are
reported, not gated (docs/PERFORMANCE.md, "The GroCoCa control plane").

Beside each timing sits the ``tracemalloc`` bytes the state holds: the TCG
manager after the replay (its ``wadm`` and ``member`` are alike on both
sides, so the gap is the access counts and the similarity map against the
dense dot-product matrix) and a requester's peer vector after one TCG's
worth of SigReplies.  Byte counts do not depend on the machine's speed, so
the sparse side holding fewer is asserted: a memory gate with no timing
gate.
"""

import math
import time
import tracemalloc

import numpy as np
from conftest import run_once

from repro.core.signatures_proto import SignatureAgent
from repro.core.tcg import TCGManager
from repro.signatures import PeerSignature, SignatureScheme
from tests._control_plane_reference import (
    DensePeerSignature,
    DenseSignatureAgent,
    RecomputingTCGManager,
)

HOST_COUNTS = (40, 120, 240)
CONTACTS = 3000
N_DATA, ACCESS_RANGE, GROUP_SIZE = 3000, 300, 5
DELTA, SIMILARITY, OMEGA = 100.0, 0.1, 0.5  # SimulationConfig defaults

CACHE_SIZES = (30, 100)
SIZE_BITS, HASHES, COUNTER_BITS = 10_000, 2, 4
ROUNDS = 400
REPEATS = 5
MEMBERS = 8  # SigReplies a requester merges between two departures


def contact_sequence(n_hosts):
    """(client, position, item) per contact: motion groups of five hosts
    wander at the paper's density and share a hot access range."""
    rng = np.random.default_rng(n_hosts)
    side = 1000.0 * math.sqrt(n_hosts / 100.0)
    n_groups = n_hosts // GROUP_SIZE
    centres = rng.uniform(0.0, side, size=(n_groups, 2))
    range_start = rng.integers(0, N_DATA - ACCESS_RANGE, size=n_groups)
    contacts = []
    for _ in range(CONTACTS):
        client = int(rng.integers(n_hosts))
        group = client % n_groups
        centres[group] = np.clip(centres[group] + rng.normal(0.0, 5.0, 2), 0.0, side)
        position = tuple(centres[group] + rng.normal(0.0, 20.0, 2))
        item = int(range_start[group] + rng.zipf(1.5) % ACCESS_RANGE)
        contacts.append((client, position, item))
    return contacts


def held_bytes(build):
    """tracemalloc bytes allocated by ``build()`` and still held by its result."""
    tracemalloc.start()
    try:
        kept = build()  # noqa: F841 - alive for the reading below
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def replay_contacts(manager, contacts):
    """Seconds per contact, and everything a client could have been told."""
    told = []
    start = time.perf_counter()
    for client, position, item in contacts:
        manager.record_location(client, position)
        manager.record_access(client, item)
        told.append(manager.drain_changes(client))
    return (time.perf_counter() - start) / len(contacts), told


def measure_tcg(n_hosts):
    contacts = contact_sequence(n_hosts)
    new_s = old_s = math.inf
    for _ in range(REPEATS):
        new = TCGManager(n_hosts, N_DATA, DELTA, SIMILARITY, OMEGA)
        old = RecomputingTCGManager(n_hosts, N_DATA, DELTA, SIMILARITY, OMEGA)
        seconds, new_told = replay_contacts(new, contacts)
        new_s = min(new_s, seconds)
        seconds, old_told = replay_contacts(old, contacts)
        old_s = min(old_s, seconds)
        assert new_told == old_told
        assert np.array_equal(new.member, old.member)
        assert np.array_equal(new.wadm, old.wadm)
        assert new.membership_changes == old.membership_changes
    new_bytes = held_bytes(lambda: manager_after(TCGManager, n_hosts, contacts))
    old_bytes = held_bytes(lambda: manager_after(RecomputingTCGManager, n_hosts, contacts))
    assert new_bytes < old_bytes
    pairs = int(new.member.sum()) // 2
    return new_s, old_s, new.membership_changes, pairs, new_bytes, old_bytes


def manager_after(manager_type, n_hosts, contacts):
    manager = manager_type(n_hosts, N_DATA, DELTA, SIMILARITY, OMEGA)
    replay_contacts(manager, contacts)
    return manager


def churn(agent, cached, next_item):
    """One cache replacement: the oldest item out, a new one in."""
    victim = cached.pop(0)
    agent.record_evict(victim, cached)
    cached.append(next_item)
    agent.record_insert(next_item)


def replay_signatures(agent_type, cache_size):
    """(seconds per SigReply, seconds per take_update, observable outputs)."""
    scheme = SignatureScheme(np.random.default_rng(cache_size), SIZE_BITS, HASHES)
    member, requester = (agent_type(scheme, COUNTER_BITS) for _ in range(2))
    cached = list(range(cache_size))
    for item in cached:
        member.record_insert(item)
    outputs, reply_s, update_s = [], 0.0, 0.0
    for step in range(ROUNDS):
        churn(member, cached, cache_size + step)
        start = time.perf_counter()
        payload, wire_bytes, compressed = member.full_signature_payload(len(cached))
        requester.merge_member_signature(1, payload)
        reply_s += time.perf_counter() - start
        start = time.perf_counter()
        update = member.take_update()
        update_s += time.perf_counter() - start
        outputs.append((wire_bytes, compressed, update))
        if step % MEMBERS == MEMBERS - 1:  # a departure: the requester starts over
            requester.peer.reset()
    outputs.append(peer_map(requester.peer.counters))
    outputs.append((requester.peer.counter_bits, requester.peer.expansions))
    return reply_s / ROUNDS, update_s / ROUNDS, outputs


def peer_map(counters):
    """A peer vector as position -> count, dense or not."""
    if isinstance(counters, dict):
        return dict(counters)
    return {p: int(counters[p]) for p in np.flatnonzero(counters).tolist()}


def peer_bytes(peer_type, cache_size):
    """Bytes a requester's peer vector holds after ``MEMBERS`` SigReplies."""
    scheme = SignatureScheme(np.random.default_rng(cache_size), SIZE_BITS, HASHES)
    member = SignatureAgent(scheme, COUNTER_BITS)
    cached = list(range(cache_size))
    for item in cached:
        member.record_insert(item)
    payloads = []
    for step in range(MEMBERS):
        churn(member, cached, cache_size + step)
        payloads.append(member.full_signature_payload(len(cached))[0])

    def merge_all():
        peer = peer_type(scheme)
        for payload in payloads:
            peer.merge_positions(payload)
        return peer

    return held_bytes(merge_all)


def measure_signatures(cache_size):
    best = [math.inf] * 4  # new reply, dense reply, new update, dense update
    for _ in range(REPEATS):
        new_reply, new_update, new_outputs = replay_signatures(SignatureAgent, cache_size)
        old_reply, old_update, old_outputs = replay_signatures(DenseSignatureAgent, cache_size)
        assert new_outputs == old_outputs
        best = list(map(min, best, (new_reply, old_reply, new_update, old_update)))
    new_bytes = peer_bytes(PeerSignature, cache_size)
    old_bytes = peer_bytes(DensePeerSignature, cache_size)
    assert new_bytes < old_bytes
    return (*best, new_outputs[0][0], new_bytes, old_bytes)


def test_micro_control_plane(benchmark, record_table):
    tcg_rows, signature_rows = run_once(
        benchmark,
        lambda: (
            [(n, *measure_tcg(n)) for n in HOST_COUNTS],
            [(e, *measure_signatures(e)) for e in CACHE_SIZES],
        ),
    )
    lines = [
        "=== Micro: the GroCoCa control plane, per message ===",
        f"  each side: best of {REPEATS} alternating passes",
        f"  MSS contact = record_location + record_access + drain_changes,"
        f" mean of {CONTACTS} (delta={DELTA:.0f} m, similarity={SIMILARITY}, omega={OMEGA})",
        f"  state_kib = tracemalloc KiB the manager holds after the {CONTACTS} contacts",
        "      N  contact_us  recompute_us  ratio  membership_changes  pairs"
        "  state_kib  dense_state_kib",
    ]
    for n_hosts, new_s, old_s, changes, pairs, new_bytes, old_bytes in tcg_rows:
        lines.append(
            f"  {n_hosts:5d}  {new_s * 1e6:10.1f}  {old_s * 1e6:12.1f}"
            f"  {new_s / old_s:5.2f}  {changes:18,d}  {pairs:5d}"
            f"  {new_bytes / 1024:9.1f}  {old_bytes / 1024:15.1f}"
        )
    lines += [
        f"  SigReply = payload build + wire size (dense: VLFL round trip) + merge;"
        f" sigma={SIZE_BITS:,},"
        f" k={HASHES}, mean of {ROUNDS}",
        f"  peer_bytes = tracemalloc bytes a peer vector holds after {MEMBERS} SigReplies",
        "    eps  reply_us  dense_reply_us  ratio  take_update_us"
        "  dense_take_update_us  ratio  wire_bytes  peer_bytes  dense_peer_bytes",
    ]
    for (
        cache_size, new_reply, old_reply, new_update, old_update, wire, new_bytes, old_bytes
    ) in signature_rows:
        lines.append(
            f"  {cache_size:5d}  {new_reply * 1e6:8.1f}  {old_reply * 1e6:14.1f}"
            f"  {new_reply / old_reply:5.2f}  {new_update * 1e6:14.1f}"
            f"  {old_update * 1e6:20.1f}  {new_update / old_update:5.2f}  {wire:10d}"
            f"  {new_bytes:10,d}  {old_bytes:16,d}"
        )
    record_table("micro_control_plane", "\n".join(lines))
