"""Wireless network substrate.

* :mod:`repro.net.message` — the message taxonomy of the COCA/GroCoca
  protocols and their wire sizes.
* :mod:`repro.net.power` — the Feeney–Nilsson linear power-consumption model
  (Table I of the paper) and per-host power ledgers.
* :mod:`repro.net.channel` — the MSS uplink/downlink shared channels.
* :mod:`repro.net.p2p` — the half-duplex P2P medium with CSMA-style
  contention, broadcast/point-to-point primitives and bounded flooding.
* :mod:`repro.net.ndp` — the neighbor discovery protocol (periodic hello
  beacons, link-failure detection).
* :mod:`repro.net.faults` — seeded fault injection: i.i.d. and bursty
  message loss per link class plus crash-stop host outages.
* :mod:`repro.net.health` — the failure-aware retrieve layer: per-peer
  health tracking (EWMA latency/failure rate), pluggable replier-scoring
  policies and per-peer circuit breakers.
"""

from repro.net.channel import ServerChannel
from repro.net.faults import CrashFaults, FaultInjector, FaultPlan, LinkFaults
from repro.net.health import (
    CircuitBreaker,
    PeerHealth,
    PeerHealthTracker,
)
from repro.net.message import Message, MessageKind, MessageSizes
from repro.net.ndp import NeighborDiscovery
from repro.net.p2p import P2PNetwork
from repro.net.power import PowerLedger, PowerModel, PowerParameters

__all__ = [
    "CircuitBreaker",
    "CrashFaults",
    "FaultInjector",
    "FaultPlan",
    "LinkFaults",
    "Message",
    "MessageKind",
    "MessageSizes",
    "NeighborDiscovery",
    "P2PNetwork",
    "PeerHealth",
    "PeerHealthTracker",
    "PowerLedger",
    "PowerModel",
    "PowerParameters",
    "ServerChannel",
]
