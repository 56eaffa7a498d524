"""The sparse / incremental control plane against the designs it replaced.

``tests/_control_plane_reference.py`` keeps the dense signature state, the
per-gap VLFL loop, the recompute-everything TCG check and the dense access
counts of earlier revisions.  Every test here drives ``src/`` and that reference through the
same calls and requires ``==`` on everything a run could observe, after
every call.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signatures_proto import SignatureAgent
from repro.core.tcg import TCGManager
from repro.signatures import (
    CountingBloomFilter,
    PeerSignature,
    SignatureScheme,
    vlfl_decode,
    vlfl_encode,
)
from repro.signatures.vlfl import (
    decode_positions,
    encode_positions,
    encoded_size_bytes,
    symbol_count,
)
from tests._control_plane_reference import (
    DensePeerSignature,
    DenseSignatureAgent,
    RecomputingTCGManager,
    dense_vlfl_decode,
    loop_vlfl_encode,
)

# -- (a) signature agents ------------------------------------------------------

ITEMS = st.integers(0, 15)
POSITIONS = st.lists(st.integers(0, 7), max_size=4)  # valid at every σ below
SIGNATURE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), ITEMS),
        st.tuples(st.just("evict"), st.integers(0, 63)),  # index into the cache
        st.tuples(st.just("evict-uncached"), ITEMS),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("take-update")),
        st.tuples(st.just("reply-and-merge")),
        st.tuples(st.just("piggyback-own")),
        st.tuples(st.just("apply-update"), POSITIONS, POSITIONS),
        st.tuples(st.just("merge-positions"), st.lists(st.integers(0, 7), max_size=6)),
        st.tuples(st.just("reset")),
    ),
    min_size=5,
    max_size=80,
)
# σ = 8 makes the k positions of one item collide; π_c ∈ {1, 2} saturates and
# underflows; σ ≥ 256 takes the compressed SigReply path.
SHAPES = st.sampled_from(
    [(8, 2, 1), (8, 2, 2), (8, 3, 4), (64, 2, 1), (256, 2, 2), (2048, 2, 4)]
)


def nonzero_map(dense):
    return {p: int(dense[p]) for p in np.flatnonzero(dense).tolist()}


def dense_dot(manager):
    """The (N, N) matrix of a :class:`TCGManager`'s per-client dot maps."""
    dense = np.zeros((manager.n_clients, manager.n_clients))
    for client, row in enumerate(manager._dot):
        dense[client, list(row)] = list(row.values())
    return dense


def assert_same_peer(new, old):
    assert new.counters == nonzero_map(old.counters)
    assert all(type(p) is int and type(n) is int for p, n in new.counters.items())
    for name in ("counter_bits", "expansions", "contractions", "memory_bits"):
        assert getattr(new, name) == getattr(old, name)


def assert_same_agent(new, old, universe=range(16)):
    assert new.own.counters == nonzero_map(old.own.counters)
    assert new.own.positions() == np.flatnonzero(old.own.signature().bits).tolist()
    assert new.own.rebuilds == old.own.rebuilds
    assert sorted(new._last_broadcast) == np.flatnonzero(old._last_broadcast).tolist()
    assert_same_peer(new.peer, old.peer)
    for item in universe:
        assert new.own.might_contain(item) == old.own.might_contain(item)
        assert new.likely_cached_by_members(item) == old.likely_cached_by_members(item)
    for name in ("signatures_sent_compressed", "signatures_sent_raw", "signature_bytes_sent"):
        assert getattr(new, name) == getattr(old, name)


@given(SHAPES, st.integers(0, 5), st.booleans(), SIGNATURE_OPS)
@settings(max_examples=400, deadline=None)
def test_sparse_agent_matches_dense_agent(shape, seed, compression, ops):
    size_bits, k, counter_bits = shape
    scheme = SignatureScheme(np.random.default_rng(seed), size_bits, k)
    new = SignatureAgent(scheme, counter_bits, compression_enabled=compression)
    old = DenseSignatureAgent(scheme, counter_bits, compression_enabled=compression)
    cache = []
    for op in ops:
        kind = op[0]
        if kind == "insert":
            cache.append(op[1])  # a multiset: repeats push counters to saturation
            new.record_insert(op[1])
            old.record_insert(op[1])
        elif kind == "evict" and cache:
            item = cache.pop(op[1] % len(cache))
            new.record_evict(item, cache)
            old.record_evict(item, cache)
        elif kind == "evict-uncached":
            new.record_evict(op[1], cache)
            old.record_evict(op[1], cache)
        elif kind == "rebuild":
            new.own.rebuild(cache)
            old.own.rebuild(cache)
        elif kind == "take-update":
            assert new.take_update() == old.take_update()
        elif kind == "reply-and-merge":
            positions, new_bytes, new_compressed = new.full_signature_payload(len(cache))
            bits, old_bytes, old_compressed = old.full_signature_payload(len(cache))
            assert (new_bytes, new_compressed) == (old_bytes, old_compressed)
            assert positions.tolist() == np.flatnonzero(bits).tolist()
            new.merge_member_signature(1, positions)
            old.merge_member_signature(1, bits)
        elif kind == "piggyback-own":
            update = new.take_update()
            assert update == old.take_update()
            new.apply_peer_update(*update)
            old.apply_peer_update(*update)
        elif kind == "apply-update":
            new.apply_peer_update(op[1], op[2])
            old.apply_peer_update(op[1], op[2])
        elif kind == "merge-positions":  # repeats count once, as in the dense add
            new.peer.merge_positions(np.array(op[1], dtype=np.int64))
            old.peer.merge_positions(np.array(op[1], dtype=np.int64))
        elif kind == "reset":
            new.peer.reset()
            old.peer.reset()
        if (old.own.counters < 0).any():
            # The dense filter let an item whose positions collide take a
            # counter below zero; the sparse one asks for a rebuild instead
            # (test_colliding_positions_cannot_underflow).  Nothing after
            # this point is comparable.
            return
        assert_same_agent(new, old)


def test_repeated_position_merges_once():
    scheme = SignatureScheme(np.random.default_rng(0), 64, 2)
    new, old = PeerSignature(scheme), DensePeerSignature(scheme)
    for positions in ([5, 5, 9], [9, 9, 9], [], [63, 0, 5]):
        new.merge_positions(positions)
        old.merge_positions(np.array(positions, dtype=np.int64))
        assert_same_peer(new, old)
    assert new.counters == {0: 1, 5: 2, 9: 2, 63: 1}
    signature = scheme.data_signature(3)
    assert new.covers(signature) == old.covers(signature)
    assert np.array_equal(new.bloom().bits, old.bloom().bits)


def test_colliding_positions_cannot_underflow():
    """An item hashing twice to one counter needs two units of headroom.

    At σ = 8, π_c = 1 the second increment is discarded at saturation; the
    dense filter then decremented twice, left the counter at −1 and so
    under-reported every later item sharing the position (a false
    negative with no rebuild).  That is a decrement on a zero counter,
    which Section IV-D.3 answers with reset-and-rebuild.
    """
    scheme = SignatureScheme(np.random.default_rng(0), 8, 2)
    twin = next(i for i in range(200) if len(set(scheme.positions(i))) == 1)
    (position,) = set(scheme.positions(twin))
    counting = CountingBloomFilter(scheme, counter_bits=1)
    counting.add(twin)
    assert counting.counters == {position: 1}
    assert not counting.remove(twin)  # rebuild requested ...
    assert counting.counters == {position: 1}  # ... and nothing moved
    agent = SignatureAgent(scheme, counter_bits=1)
    agent.record_insert(twin)
    agent.record_evict(twin, cache_items=[])
    assert agent.own.counters == {} and agent.own.rebuilds == 1
    # With headroom the two decrements go through and no rebuild is needed.
    roomy = CountingBloomFilter(scheme, counter_bits=2)
    roomy.add(twin)
    assert roomy.counters == {position: 2}
    assert roomy.remove(twin) and roomy.counters == {} and roomy.rebuilds == 0


# -- (b) the position codec against the per-gap loop ---------------------------

RUN_CAPS = [2**exponent - 1 for exponent in range(1, 10)]  # 1, 3, ..., 511


def assert_same_codec(bits, run_cap):
    bits = np.asarray(bits, dtype=bool)
    ones = np.flatnonzero(bits)
    compressed = encode_positions(ones, len(bits), run_cap)
    reference = loop_vlfl_encode(bits, run_cap)
    assert compressed == reference  # run cap, σ, symbol count, payload bytes
    assert vlfl_encode(bits, run_cap) == reference
    assert decode_positions(compressed).tolist() == ones.tolist()
    assert np.array_equal(vlfl_decode(compressed), bits)
    assert np.array_equal(dense_vlfl_decode(compressed), bits)
    assert_counted_size(ones, len(bits), run_cap)


def assert_counted_size(ones, size_bits, run_cap):
    """A SigReply is sized by counting symbols; the codec is the definition."""
    compressed = encode_positions(ones, size_bits, run_cap)
    assert symbol_count(ones, size_bits, run_cap) == compressed.symbol_count
    assert encoded_size_bytes(ones, size_bits, run_cap) == compressed.size_bytes


@pytest.mark.parametrize("run_cap", RUN_CAPS)
def test_position_codec_edge_vectors(run_cap):
    for size in (0, 1, run_cap, run_cap + 1, 2 * run_cap, 2 * run_cap + 3, 1100):
        zeros = np.zeros(size, dtype=bool)
        assert_same_codec(zeros, run_cap)  # all zero: tail run only
        assert_same_codec(~zeros, run_cap)  # all one
        if size:
            trailing_one = zeros.copy()
            trailing_one[-1] = True
            assert_same_codec(trailing_one, run_cap)  # no tail at all
            leading_one = zeros.copy()
            leading_one[0] = True
            assert_same_codec(leading_one, run_cap)  # one long trailing run


@given(
    st.sampled_from(RUN_CAPS),
    st.lists(st.booleans(), max_size=80),
    st.integers(0, 1200),
)
@settings(max_examples=300, deadline=None)
def test_position_codec_matches_loop_codec(run_cap, head, trailing_zeros):
    assert_same_codec(head + [False] * trailing_zeros, run_cap)


@given(st.sampled_from(RUN_CAPS), st.sets(st.integers(0, 9_999), max_size=60))
@settings(max_examples=100, deadline=None)
def test_position_codec_at_paper_sigma(run_cap, ones):
    bits = np.zeros(10_000, dtype=bool)
    bits[sorted(ones)] = True
    assert_same_codec(bits, run_cap)


SIZE_RUN_CAPS = [2**exponent - 1 for exponent in range(1, 12)]  # 1, 3, ..., 2047


@pytest.mark.parametrize("run_cap", SIZE_RUN_CAPS)
def test_counted_size_edge_shapes(run_cap):
    for size in (1, 2, run_cap, run_cap + 1, 2 * run_cap + 3, 3000):
        everything = np.arange(size)
        assert_counted_size(everything[:0], size, run_cap)  # no ones
        assert_counted_size(everything, size, run_cap)  # all ones
        assert_counted_size(everything[-1:], size, run_cap)  # a trailing one
        assert_counted_size(everything[:1], size, run_cap)  # then a long tail


@given(
    st.sampled_from(SIZE_RUN_CAPS),
    st.integers(1, 3000).flatmap(
        lambda size: st.tuples(st.just(size), st.sets(st.integers(0, size - 1), max_size=300))
    ),
)
@settings(max_examples=500, deadline=None)
def test_counted_size_matches_the_codec(run_cap, shape):
    size, ones = shape
    assert_counted_size(np.array(sorted(ones), dtype=np.int64), size, run_cap)


# -- (c) incremental TCG eligibility against the from-scratch recheck ----------

N_CLIENTS, N_DATA = 6, 5
CLIENTS = st.integers(0, N_CLIENTS - 1)
GRID = st.integers(0, 4).map(float)  # integer grid: wadm == Δ ties occur
TCG_OPS = st.lists(
    st.one_of(
        # Client 5 never reports a location: it must never join a TCG.
        st.tuples(st.just("location"), st.integers(0, N_CLIENTS - 2), GRID, GRID),
        st.tuples(st.just("access"), CLIENTS, st.integers(0, N_DATA - 1), st.integers(1, 3)),
        st.tuples(st.just("drain"), CLIENTS),
        st.tuples(st.just("view"), CLIENTS),
    ),
    max_size=80,
)


class Instants:
    """Stands in for the tracer: keeps every instant, in order."""

    def __init__(self):
        self.seen = []
        self.shapes = []

    def declare(self, kind, name, keys=(), status=None):
        self.shapes.append((kind, name, tuple(keys), status))
        return len(self.shapes) - 1

    def point(self, code, host, parent, *values):
        kind, name, keys, _status = self.shapes[code]
        assert kind == "I" and len(values) == len(keys)
        self.seen.append((name, host, parent, dict(zip(keys, values))))


@given(
    st.sampled_from([0.0, 2.0, 3.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
    # 0.3 is not dyadic: ω·d and (1 − ω)·w round, so the in-place blend's
    # operand order is exercised, not only its exact products.
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    TCG_OPS,
)
@settings(max_examples=200, deadline=None)
def test_incremental_tcg_matches_recomputing_tcg(delta, similarity, omega, ops):
    new_trace, old_trace = Instants(), Instants()
    new = TCGManager(N_CLIENTS, N_DATA, delta, similarity, omega, tracer=new_trace)
    old = RecomputingTCGManager(
        N_CLIENTS, N_DATA, delta, similarity, omega, tracer=old_trace
    )
    for op in ops:
        kind, client = op[0], op[1]
        if kind == "location":
            new.record_location(client, op[2:])
            old.record_location(client, op[2:])
        elif kind == "access":
            new.record_access(client, op[2], op[3])
            old.record_access(client, op[2], op[3])
        elif kind == "drain":
            assert new.drain_changes(client) == old.drain_changes(client)
        else:
            assert new.full_view(client) == old.full_view(client)
        assert np.array_equal(new.member, old.member)
        assert np.array_equal(new.wadm, old.wadm)  # bitwise: inf == inf, no NaN
        assert new.membership_changes == old.membership_changes
        assert type(new.membership_changes) is int
        assert json.dumps(new_trace.seen) == json.dumps(old_trace.seen)  # types too
        # The argument the design rests on: every client's neighbour set is
        # current, not only the one just touched, so no pair outside it can
        # be a member.
        for c in range(N_CLIENTS):
            located_near = (new.wadm[c] <= delta) & new._has_location
            located_near[c] = False
            assert new._neighbours[c] == set(np.flatnonzero(located_near).tolist())
    assert not new.member[N_CLIENTS - 1].any()
    for client in range(N_CLIENTS):
        assert new.drain_changes(client) == old.drain_changes(client)


# -- (d) sparse access counts against the (N, n_data) matrix -------------------

SHARED_ITEMS = 3  # items 3 + c are accessed by client c alone
ACCESS_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("location"), st.integers(0, N_CLIENTS - 2), GRID, GRID),
        st.tuples(
            st.just("access"), CLIENTS, st.integers(0, SHARED_ITEMS - 1), st.integers(1, 3)
        ),
        st.tuples(st.just("private"), CLIENTS, st.integers(1, 3)),
        st.tuples(st.just("repeat"), st.integers(1, 4)),  # the last access again
        st.tuples(st.just("drain"), CLIENTS),
    ),
    max_size=80,
)


@given(st.sampled_from([0.0, 0.2, 0.9]), ACCESS_OPS)
@settings(max_examples=200, deadline=None)
def test_sparse_access_counts_match_dense_matrix(similarity, ops):
    n_data = SHARED_ITEMS + N_CLIENTS
    new = TCGManager(N_CLIENTS, n_data, 3.0, similarity, 0.5)
    old = RecomputingTCGManager(N_CLIENTS, n_data, 3.0, similarity, 0.5)
    last = (0, 0)
    for op in ops:
        kind = op[0]
        if kind == "location":
            new.record_location(op[1], op[2:])
            old.record_location(op[1], op[2:])
        elif kind == "drain":
            assert new.drain_changes(op[1]) == old.drain_changes(op[1])
        else:
            if kind == "access":
                last, count = (op[1], op[2]), op[3]
            elif kind == "private":
                last, count = (op[1], SHARED_ITEMS + op[1]), op[2]
            else:
                count = op[1]
            new.record_access(*last, count)
            old.record_access(*last, count)
        # Bitwise, not approximately: the skipped adds were all +0.0.
        assert dense_dot(new).tobytes() == old._dot.tobytes()
        assert [sorted(row) for row in new._dot] == [
            np.flatnonzero(row).tolist() for row in old._dot
        ]
        assert np.array(new._sq_norms).tobytes() == old._sq_norms.tobytes()
        for name in ("member", "wadm"):
            assert np.array_equal(getattr(new, name), getattr(old, name))
        dense = {
            item: nonzero_map(old.access_counts[:, item])
            for item in range(n_data)
            if old.access_counts[:, item].any()
        }
        assert new.access_counts == dense
        for client in range(N_CLIENTS):
            assert new.access_count(client, last[1]) == old.access_count(client, last[1])
    for client in range(N_CLIENTS):
        assert new.drain_changes(client) == old.drain_changes(client)
