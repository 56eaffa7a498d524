"""Host-speed calibration interleaved with the measured run.

The sandbox's CPU speed wanders: the same deterministic run took between
1.0 and 1.6 CPU seconds back to back, in bursts of tens of milliseconds
on top of a drift over minutes, and a fixed 45 ms loop timed before and
after it varied just as much.  Best-of-R removes neither the drift nor
bursts that hit every repeat.  What does hold still is the *ratio* of the
simulator's CPU time to that of a fixed piece of interpreter work sampled
at the same moments (quartile spread 2-3% where raw CPU time showed 8-19%).

So the untraced child adds one simulated process that wakes once per
simulated second, runs :func:`calibration_piece` and books the CPU time
either side of it to the simulator or to calibration.  The process reads
and writes no simulator state and draws from no random stream, so every
simulated statistic is unchanged (the harness checks the digest against
the traced child, which runs without it); it costs one kernel event per
simulated second and about 7% of the run's CPU time, which is booked to
calibration and not to the run.

Times are then reported as *calibrated* seconds: measured seconds divided
by the child's slowdown, the measured cost of a piece over
:data:`REFERENCE_PIECE_S`.
"""

from __future__ import annotations

import time

#: What one calibration piece costs on the box the workloads were sized on
#: when nothing interferes.  A change to this constant or to the piece
#: rescales every calibrated time: the baseline must be taken again.
REFERENCE_PIECE_S = 0.0008

#: Simulated seconds between pieces (about 13 ms of host time).
PERIOD_SIM_S = 1.0


def calibration_piece(rounds: int = 8000) -> int:
    """A fixed piece of interpreter work: dict stores, lookups, integer maths."""
    table = {}
    total = 0
    for i in range(rounds):
        table[i & 255] = i
        total += table[i & 127 if i & 127 in table else 0]
    return total


class HostMeter:
    """Books a run's CPU time to the simulator or to calibration."""

    def __init__(self, clock=time.process_time_ns, piece=calibration_piece):
        self._clock = clock
        self._piece = piece
        self._mark = 0
        self._sim_ns = 0
        self.calibration_ns = 0
        self.pieces = 0

    def process(self, env):
        """The simulated process; hand it to ``env.process`` before the run."""
        clock = self._clock
        while True:
            yield env.timeout(PERIOD_SIM_S)
            now = clock()
            self._sim_ns += now - self._mark
            self._piece()
            self._mark = clock()
            self.calibration_ns += self._mark - now
            self.pieces += 1

    def start(self) -> None:
        self._mark = self._clock()

    def sim_seconds(self) -> float:
        """Simulator CPU seconds since :meth:`start`, calibration excluded."""
        return (self._sim_ns + self._clock() - self._mark) / 1e9

    def slowdown(self) -> float:
        """How much slower than the reference the host ran; 1.0 if unmetered."""
        if not self.pieces:
            return 1.0
        return self.calibration_ns / 1e9 / (self.pieces * REFERENCE_PIECE_S)
