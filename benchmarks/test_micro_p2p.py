"""Micro-benchmark of the P2P medium, per frame (Section III / V-A).

``P2PNetwork`` sends a frame as bare kernel calls, started the way the
client starts it (a zero-delay ``Environment.call_later``); it takes the receivers
from the adjacency row as a list, filters them through a ``list[bool]`` of
connected hosts and charges them one Python float add each.  The design it
replaced (``tests/_p2p_reference.py``, earlier revisions' code) ran every
send as a generator in a process of its own, built N-long bool masks per
frame (``adjacency[src] & connected``, three bystander classes per unicast)
and charged each through a masked ``np.add`` on an ndarray ledger.  Both
are timed on the traffic a COCA search makes:

* a **flood** — an origin broadcasts a 64-byte REQUEST and every host that
  hears it re-broadcasts once, all at the same instant, so they defer to
  each other and re-poll (the 2-hop flood of ``cc-flood``);
* a **reply burst** — every host in range of an origin unicasts it a
  48-byte REPLY at the same instant.

Hosts are scattered uniformly at 100 per km² (about 3 in range at
TranRange 100 m, the paper's density) and 200 per km² (about 6, what one
``cc-flood`` frame reaches), N ∈ {40, 120, 240}.  Both sides replay the same
origins, alternately and ``REPEATS`` times over (the best pass is reported:
the machine is shared), and must end in the same state.  A separate, untimed
pass counts how many scheduled event times are numpy scalars on each side.
Timings are reported, not gated (docs/PERFORMANCE.md, "Python scalars on
the per-message path").
"""

import math
import time
from functools import partial

import numpy as np
from conftest import run_once

from repro.mobility import MobilityField, StationaryTrajectory
from repro.net import Message, MessageKind, P2PNetwork, PowerLedger
from repro.sim import Environment
from repro.net.power import PURPOSES
from tests._p2p_reference import MaskChargedLedger, MaskP2PNetwork

HOST_COUNTS = (40, 120, 240)
DENSITIES_PER_KM2 = (100.0, 200.0)
TRAN_RANGE = 100.0
BANDWIDTH = 2_000_000.0  # Table II BW_P2P
REQUEST_BYTES, REPLY_BYTES = 64, 48
ROUNDS = 150
REPEATS = 5

SIDES = {
    "list": (P2PNetwork, PowerLedger),
    "mask": (MaskP2PNetwork, MaskChargedLedger),
}


class ClockTypes:
    """A kernel monitor that only counts what kind of number gets scheduled."""

    def __init__(self):
        self.scheduled = self.numpy = 0

    def on_schedule(self, env, when):
        self.scheduled += 1
        self.numpy += isinstance(when, np.generic)

    def on_step(self, env, when):
        pass


def starter(side, env):
    """How a send starts on each side: the frame in a zero-delay bare call,
    the reference generator in a process (one bootstrap event)."""
    if side == "list":
        return lambda send, *args: env.call_later(0.0, partial(send, *args))
    return lambda send, *args: env.process(send(*args))


def replay(side, n_hosts, density, monitor=None):
    """(seconds per broadcast, seconds per unicast, end state) of one pass."""
    network_type, ledger_type = SIDES[side]
    rng = np.random.default_rng(n_hosts)
    length = 1000.0 * math.sqrt(n_hosts / density)
    points = rng.uniform(0.0, length, size=(n_hosts, 2))
    origins = rng.integers(n_hosts, size=ROUNDS).tolist()
    env = Environment(monitor=monitor)
    ledger = ledger_type(n_hosts)
    net = network_type(
        env,
        # SimulationConfig's snapshot quantum: the (N, N) adjacency is built
        # once per 0.1 s of simulated time, not once per frame.
        MobilityField([StationaryTrajectory(tuple(p)) for p in points], resolution=0.1),
        BANDWIDTH,
        TRAN_RANGE,
        ledger,
    )
    forward = Message(MessageKind.REQUEST, 0, None, REQUEST_BYTES, hops_left=0)
    start_send = starter(side, env)

    def relay(node):
        def on_message(message):
            if message.hops_left:
                start_send(net.broadcast, node, forward)

        return on_message

    for node in range(n_hosts):
        net.register_handler(node, relay(node))

    start = time.perf_counter()
    for origin in origins:
        request = Message(MessageKind.REQUEST, origin, None, REQUEST_BYTES, hops_left=1)
        start_send(net.broadcast, origin, request)
        env.run()
    flood_s = time.perf_counter() - start

    start = time.perf_counter()
    for origin in origins:
        for peer in net.field.neighbors_of(origin, env.now, TRAN_RANGE).tolist():
            reply = Message(MessageKind.REPLY, peer, origin, REPLY_BYTES)
            start_send(net.unicast, peer, origin, reply)
        env.run()
    burst_s = time.perf_counter() - start

    state = (
        net.broadcasts,
        net.unicasts,
        net.failed_unicasts,
        env.events_processed,
        env.now,
        list(net._busy_until),
        [ledger.per_host(purpose) for purpose in PURPOSES],
    )
    return flood_s / net.broadcasts, burst_s / max(net.unicasts, 1), state


def measure(n_hosts, density):
    best = {side: [math.inf, math.inf] for side in SIDES}
    for _ in range(REPEATS):
        states = {}
        for side in SIDES:
            per_broadcast, per_unicast, states[side] = replay(side, n_hosts, density)
            best[side] = list(map(min, best[side], (per_broadcast, per_unicast)))
        assert states["list"] == states["mask"]
    shares = {}
    for side in SIDES:
        clock = ClockTypes()
        replay(side, n_hosts, density, monitor=clock)
        shares[side] = clock.numpy / clock.scheduled
    broadcasts, unicasts = states["list"][:2]
    return (*best["list"], *best["mask"], shares["list"], shares["mask"], broadcasts, unicasts)


def test_micro_p2p(benchmark, record_table):
    rows = run_once(
        benchmark,
        lambda: [
            (density, n, *measure(n, density))
            for density in DENSITIES_PER_KM2
            for n in HOST_COUNTS
        ],
    )
    lines = [
        "=== Micro: the P2P medium, per frame ===",
        f"  each side: best of {REPEATS} alternating passes of {ROUNDS} floods"
        f" + {ROUNDS} reply bursts; TranRange {TRAN_RANGE:.0f} m,"
        f" {REQUEST_BYTES} B requests, {REPLY_BYTES} B replies",
        "  mask = tests/_p2p_reference.py (a process and bool masks per frame,"
        " charge_where);"
        " numpy_clock = share of scheduled event times that are numpy scalars",
        "  per_km2      N  heard  broadcast_us  mask_us  ratio  unicast_us"
        "  mask_us  ratio  numpy_clock  mask_numpy_clock",
    ]
    for density, n_hosts, bc, uc, old_bc, old_uc, share, old_share, broadcasts, unicasts in rows:
        assert broadcasts > ROUNDS and unicasts > 0  # the flood spread, replies went out
        assert share == 0.0  # nothing numpy reaches the clock in src/
        lines.append(
            f"  {density:7.0f}  {n_hosts:5d}  {unicasts / ROUNDS:5.1f}  {bc * 1e6:12.1f}"
            f"  {old_bc * 1e6:7.1f}  {bc / old_bc:5.2f}  {uc * 1e6:10.1f}"
            f"  {old_uc * 1e6:7.1f}  {uc / old_uc:5.2f}  {share:11.2f}  {old_share:16.2f}"
        )
    record_table("micro_p2p", "\n".join(lines))
