#!/usr/bin/env python3
"""Where a benchmark workload's run time goes, function by function.

Usage::

    python tools/hot_paths.py WORKLOAD

``WORKLOAD`` names an entry of ``perfbench.workloads.WORKLOADS``
(``lc-server``, ``cc-flood``, ``gc-steady``, ``gc-churn``, ``gc-scale``,
``gc-observed``).  perfbench's layer tracer books time to layers, not to
functions, and cProfile's per-call hook inflates exactly the call-heavy
Python this tool is meant to find.  So this is a sampling profiler: for
each seed of :data:`SEEDS` it builds the workload's simulation in this
process, as a perfbench child does, and runs it (warm-up and measurement,
not setup) under ``signal.setitimer(ITIMER_PROF)``, which delivers
``SIGPROF`` every :data:`INTERVAL_S` of process CPU time; the handler
records the interrupted Python stack.

It prints the sample count, then the :data:`TOP` frames by *self* share
(the innermost frame of a sample: time spent in that function's own
bytecode and the C calls it makes) and by *inclusive* share (a frame
anywhere on the stack, once per sample), each as ``path:function``: a
``src/repro`` path relative to the package
(``sim/kernel.py:Environment.run``), any other relative to its
``sys.path`` entry (``enum.py:Enum.__hash__``,
``numpy/_core/fromnumeric.py:clip``); the function is its qualified name
where the interpreter has one (3.11+).  The kernel delivers the signal at
its own tick, so the sample count, not the asked-for interval, says how
fine the shares are.  Shares are of samples; nothing is gated on them.
``lc-server`` takes about five seconds.
"""

import gc
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: The fixed seed panel (one simulation per seed, in this order).
SEEDS = (1, 2, 3, 4, 5)
#: Process CPU seconds between two samples.
INTERVAL_S = 0.001
#: Frames printed per table.
TOP = 20


def _label(filename, function, prefixes):
    """``path:function`` for one frame (see the module docstring)."""
    path = Path(filename)
    if path.is_relative_to(PACKAGE):
        return f"{path.relative_to(PACKAGE).as_posix()}:{function}"
    for prefix in prefixes:
        if filename.startswith(prefix):
            return f"{filename[len(prefix):].lstrip('/')}:{function}"
    return f"{filename}:{function}"


class Sampler:
    """Counts the stacks ``SIGPROF`` interrupts below one anchor frame."""

    def __init__(self):
        self.cpu_s = 0.0
        self.stacks = Counter()  # tuple of (filename, function), innermost first

    def _on_signal(self, signum, frame):
        stack = []
        while frame is not None and frame.f_code is not _ANCHOR:
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)  # 3.11+
            stack.append((code.co_filename, name))
            frame = frame.f_back
        self.stacks[tuple(stack)] += 1

    @property
    def samples(self):
        return sum(self.stacks.values())

    def run(self, call):
        previous = signal.signal(signal.SIGPROF, self._on_signal)
        start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            _anchor(call)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            self.cpu_s += time.process_time() - start
            signal.signal(signal.SIGPROF, previous)

    def tables(self):
        """(self counts, inclusive counts), keyed by ``path:function``."""
        prefixes = sorted({p for p in sys.path if p}, key=len, reverse=True)
        own, inclusive = Counter(), Counter()
        for stack, count in self.stacks.items():
            labels = [_label(f, name, prefixes) for f, name in stack]
            if labels:
                own[labels[0]] += count
            for label in set(labels):
                inclusive[label] += count
        return own, inclusive


def _anchor(call):
    """The frame the sampler stops at: everything below it is the run."""
    call()


_ANCHOR = _anchor.__code__


def simulation_for(name, seed):
    """The workload's simulation, wired exactly as a perfbench child wires it."""
    from perfbench.workloads import WORKLOADS, config_overrides
    from repro.core.config import SimulationConfig
    from repro.core.simulation import Simulation

    monitor = observer = None
    if WORKLOADS[name].get("observed"):
        from repro.check.monitor import InvariantMonitor
        from repro.obs.session import Observer

        monitor, observer = InvariantMonitor(mode="collect"), Observer()
    overrides = config_overrides(name, seed)
    config = SimulationConfig.from_dict({**SimulationConfig().as_dict(), **overrides})
    return Simulation(config, monitor=monitor, observer=observer)


def main(argv):
    from perfbench.workloads import WORKLOADS

    if len(argv) != 1 or argv[0] not in WORKLOADS:
        print(f"usage: hot_paths.py {{{','.join(WORKLOADS)}}}", file=sys.stderr)
        return 2
    name = argv[0]
    sampler = Sampler()
    for seed in SEEDS:
        simulation = simulation_for(name, seed)
        gc.collect()
        sampler.run(simulation.run)
    own, inclusive = sampler.tables()
    total = sampler.samples
    seeds = ", ".join(map(str, SEEDS))
    print(f"{name}: seeds {seeds}, a sample asked for every {1000 * INTERVAL_S:g} ms of CPU")
    print(f"samples: {total} over {sampler.cpu_s:.2f} s of CPU")
    for title, counts in (("self", own), ("inclusive", inclusive)):
        print(f"\ntop {TOP} {title} frames")
        for label, count in counts.most_common(TOP):
            print(f"  {100.0 * count / max(total, 1):5.1f}%  {label}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main(sys.argv[1:]))
