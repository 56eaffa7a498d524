"""Feeney–Nilsson power-consumption model (Table I of the paper).

Power for a P2P transmission is linear in the message size ``b`` (bytes):
``cost = v * b + f`` µW·s, with different (v, f) pairs for the source, the
destination, and bystanders that overhear and discard the message.  The
constants below are the paper's Table I (its ref [29]); the discard rows
have ``v = 0`` and the fixed costs 70 / 24 / 56 µW·s that survive in the
source text.

:class:`PowerLedger` accumulates per-host consumption split by *purpose*
(data path, signature scheme, beacons) so the power-per-GCH metric can
isolate the caching protocols exactly as the paper reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = ["PowerLedger", "PowerModel", "PowerParameters"]

#: Accounting categories for the ledger.
PURPOSES: Tuple[str, ...] = ("data", "signature", "beacon")


@dataclass(frozen=True)
class PowerParameters:
    """(v, f) pairs in (µW·s/byte, µW·s) for every Table I row."""

    # Point-to-point rows.
    ptp_send_v: float = 1.9
    ptp_send_f: float = 454.0
    ptp_recv_v: float = 0.5
    ptp_recv_f: float = 356.0
    ptp_disc_sd_v: float = 0.0  # in range of both source and destination
    ptp_disc_sd_f: float = 70.0
    ptp_disc_s_v: float = 0.0  # in range of the source only
    ptp_disc_s_f: float = 24.0
    ptp_disc_d_v: float = 0.0  # in range of the destination only
    ptp_disc_d_f: float = 56.0
    # Broadcast rows.
    bc_send_v: float = 1.9
    bc_send_f: float = 266.0
    bc_recv_v: float = 0.5
    bc_recv_f: float = 56.0


class PowerModel:
    """Evaluates Table I for a message of ``b`` bytes."""

    def __init__(self, parameters: PowerParameters = PowerParameters()):
        self.parameters = parameters

    def ptp_send(self, size: int) -> float:
        return self.parameters.ptp_send_v * size + self.parameters.ptp_send_f

    def ptp_recv(self, size: int) -> float:
        return self.parameters.ptp_recv_v * size + self.parameters.ptp_recv_f

    def ptp_discard_sd(self, size: int) -> float:
        return self.parameters.ptp_disc_sd_v * size + self.parameters.ptp_disc_sd_f

    def ptp_discard_s(self, size: int) -> float:
        return self.parameters.ptp_disc_s_v * size + self.parameters.ptp_disc_s_f

    def ptp_discard_d(self, size: int) -> float:
        return self.parameters.ptp_disc_d_v * size + self.parameters.ptp_disc_d_f

    def bc_send(self, size: int) -> float:
        return self.parameters.bc_send_v * size + self.parameters.bc_send_f

    def bc_recv(self, size: int) -> float:
        return self.parameters.bc_recv_v * size + self.parameters.bc_recv_f


class PowerLedger:
    """Per-host accumulated power consumption in µW·s, split by purpose.

    One ``list[float]`` per purpose: a frame charges about six hosts, and
    a Python float add per host is cheaper than any numpy call at that
    size.  Every charge is still exactly one IEEE add per host.  The sums
    go through numpy (pairwise summation), as when the ledger was an
    ndarray; a Python ``sum()`` would differ in the last bits.
    """

    def __init__(self, n_hosts: int):
        if n_hosts < 1:
            raise ValueError("ledger needs at least one host")
        self.n_hosts = n_hosts
        self._by_purpose: Dict[str, List[float]] = {
            purpose: [0.0] * n_hosts for purpose in PURPOSES
        }

    def charge(self, host: int, amount: float, purpose: str = "data") -> None:
        """Charge one host.  ``amount`` must be non-negative (NaN is not)."""
        if not amount >= 0:
            raise ValueError(f"power charge must be >= 0, got {amount}")
        self._by_purpose[purpose][host] += amount

    def charge_hosts(
        self, hosts: Iterable[int], amount: float, purpose: str = "data"
    ) -> None:
        """Charge the same amount to every host in ``hosts`` (e.g. the
        receivers of one broadcast); a host named twice pays twice."""
        if not amount >= 0:
            raise ValueError(f"power charge must be >= 0, got {amount}")
        charges = self._by_purpose[purpose]
        for host in hosts:
            charges[host] += amount

    def charge_each(self, amounts: np.ndarray, purpose: str = "data") -> None:
        """Charge host ``i`` the amount ``amounts[i]``."""
        amounts = np.asarray(amounts, dtype=float)
        if amounts.shape != (self.n_hosts,):
            raise ValueError(
                f"charge_each needs {self.n_hosts} amounts, got shape {amounts.shape}"
            )
        if not np.logical_and.reduce(amounts >= 0):
            raise ValueError("power charges must all be >= 0")
        charges = self._by_purpose[purpose]
        for host, amount in enumerate(amounts.tolist()):
            charges[host] += amount

    def per_host(self, purpose: str) -> List[float]:
        """Every host's consumption for one purpose (a copy)."""
        return list(self._by_purpose[purpose])

    def host_total(self, host: int) -> float:
        # Left to right, as the ndarray ledger added its numpy scalars; a
        # float ``sum()`` is compensated from Python 3.12 on.
        total = 0.0
        for charges in self._by_purpose.values():
            total += charges[host]
        return total

    def total(self, purpose: str = None) -> float:
        """System-wide consumption, optionally for one purpose."""
        if purpose is not None:
            return float(np.asarray(self._by_purpose[purpose]).sum())
        total = 0.0  # left to right, as in host_total
        for value in self.by_purpose().values():
            total += value
        return total

    def by_purpose(self) -> Dict[str, float]:
        return {
            purpose: float(np.asarray(charges).sum())
            for purpose, charges in self._by_purpose.items()
        }

    def per_host_totals(self) -> np.ndarray:
        """Every host's total consumption across all purposes (µW·s).

        Used by the invariant monitor's power audit (non-negativity and
        conservation over the whole population in one vector read).
        """
        total = np.zeros(self.n_hosts)
        for charges in self._by_purpose.values():
            total += charges
        return total
