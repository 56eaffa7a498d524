"""Deterministic named random streams.

Every stochastic component of the simulation (mobility, workload, server
updates, disconnection, signature hashing, ...) draws from its own named
stream derived from a single master seed.  Changing one component's draw
pattern therefore never perturbs another component's sequence, and identical
configurations are bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "uniform"]


class RandomStreams:
    """A factory of independent, reproducible numpy Generators."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The child seed is derived from (master_seed, name) only, so streams
        are stable regardless of creation order.
        """
        generator = self._streams.get(name)
        if generator is None:
            seed_seq = np.random.SeedSequence(
                self.master_seed, spawn_key=(_name_key(name),)
            )
            generator = np.random.Generator(np.random.PCG64(seed_seq))
            self._streams[name] = generator
        return generator

    def __contains__(self, name: str) -> bool:
        return name in self._streams


def _name_key(name: str) -> int:
    """Stable 64-bit key for a stream name (Python's hash() is salted)."""
    key = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode("utf-8"):
        key = ((key ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return key


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """One draw of ``rng.uniform(low, high)`` without its per-call price.

    numpy's own scalar formula, ``low + (high - low) * next_double``, on
    the one double ``rng.random()`` takes: the same float and the same
    stream state, a third of the time.  Callers validate the bounds.
    """
    return low + (high - low) * rng.random()
