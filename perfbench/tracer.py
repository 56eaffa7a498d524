"""Host-time layer tracer, installed from outside the simulator.

A *layer* is a module (or small module family) of ``repro``.  ``install``
wraps every public function and public method defined in a layer's
modules so that a call crossing from one layer into another opens a span:
layer, start, end, and the layer that caused it.  Calls that stay inside
a layer pass straight through, so ``calls`` counts boundary crossings
only and repeats exactly for a given seed.

Spans are not stored one by one (a run opens millions); they are folded
as they close into per-(layer, parent layer) accumulators of count,
inclusive ns and self ns, kept in memory and read when the run ends.
Self time is a span's duration minus the part its child spans cover, so
the self times of all layers plus the root's add up to the traced total.

Simulated processes are generators that the kernel resumes piecemeal;
:class:`TracedGenerator` opens one span per resumption and forwards
``send``/``throw``/``close`` untouched, so interrupts and crashes reach
the wrapped generator exactly as they would without tracing.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
import types

#: layer name -> module prefixes whose public callables belong to it.
LAYERS = {
    "sim.kernel": ("repro.sim.kernel",),
    "sim.resources": ("repro.sim.resources",),
    "mobility.field": ("repro.mobility",),
    "net.p2p": ("repro.net.p2p",),
    "net.channel": ("repro.net.channel",),
    "net.ndp": ("repro.net.ndp",),
    "net.power": ("repro.net.power",),
    "net.faults": ("repro.net.faults",),
    "net.health": ("repro.net.health",),
    "core.client": ("repro.core.client", "repro.core.coca"),
    "core.server": ("repro.core.server",),
    "core.tcg": ("repro.core.tcg",),
    "signatures": ("repro.signatures", "repro.core.signatures_proto"),
    "cache.lru": ("repro.cache",),
    "policies": ("repro.policies", "repro.core.replacement"),
    "data": ("repro.data", "repro.workloads"),
    "observers": ("repro.obs", "repro.check"),
}

#: Pseudo-layer of the root span; its self time is the glue in
#: ``repro.core.simulation`` that no layer owns.
ROOT = "run"


def layer_of_module(name: str):
    """The layer owning module ``name``, or None."""
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if name == prefix or name.startswith(prefix + "."):
                return layer
    return None


class TracedGenerator:
    """A generator whose every resumption is one span of ``layer``.

    A plain object rather than a wrapping generator: it keeps no
    reference to the yielded event while suspended (the kernel recycles
    timeouts by reference count), and ``yield from`` and the kernel's
    ``Process`` both drive it through the same three methods.
    """

    __slots__ = ("_gen", "_layer", "_tracer")

    def __init__(self, gen, layer, tracer):
        self._gen = gen
        self._layer = layer
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._layer, self._gen.send, None)

    def send(self, value):
        return self._tracer.call(self._layer, self._gen.send, value)

    def throw(self, *exc):
        return self._tracer.call(self._layer, self._gen.throw, *exc)

    def close(self):
        return self._tracer.call(self._layer, self._gen.close)


class LayerTracer:
    """Accumulates spans per (layer, parent layer); see the module doc."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        #: open spans, innermost last: [layer, child ns, start ns]
        self.stack = [[ROOT, 0, 0]]
        #: (layer, parent layer) -> [calls, inclusive ns, self ns]
        self.spans = {}
        self.total_ns = 0
        self._files = {}
        self._patched = []

    # -- span bookkeeping ---------------------------------------------------

    def call(self, layer, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` as a span of ``layer``, if it crosses into it."""
        stack = self.stack
        if stack[-1][0] is layer:
            return fn(*args, **kwargs)
        frame = [layer, 0, self.clock()]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            # Close the span and fold it into the accumulators.
            end = self.clock()
            stack.pop()
            duration = end - frame[2]
            parent = stack[-1]
            parent[1] += duration
            key = (layer, parent[0])
            slot = self.spans.get(key)
            if slot is None:
                slot = self.spans[key] = [0, 0, 0]
            slot[0] += 1
            slot[1] += duration
            slot[2] += duration - frame[1]

    def run(self, fn):
        """Call ``fn()`` as the root span; the traced total is its duration.

        Spans closed before this call (the wiring in ``Simulation.__init__``)
        are dropped: they are set-up, not part of the run.
        """
        root = self.stack[0]
        root[1] = 0
        self.spans.clear()
        start = self.clock()
        try:
            return fn()
        finally:
            self.total_ns = self.clock() - start
            self.spans[(ROOT, ROOT)] = [1, self.total_ns, self.total_ns - root[1]]

    def by_layer(self):
        """layer -> {"calls", "self_s"}, summed over parents."""
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in (*LAYERS, ROOT)}
        for (layer, _parent), (calls, _inclusive, own) in self.spans.items():
            table[layer]["calls"] += calls
            table[layer]["self_s"] += own / 1e9
        return table

    def edges(self):
        """The raw accumulators as JSON-ready rows, largest self time first."""
        rows = [
            {
                "layer": layer,
                "parent": parent,
                "calls": calls,
                "inclusive_s": inclusive / 1e9,
                "self_s": own / 1e9,
            }
            for (layer, parent), (calls, inclusive, own) in self.spans.items()
        ]
        return sorted(rows, key=lambda row: -row["self_s"])

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, layer):
        """``fn`` with a span of ``layer`` around each boundary-crossing call."""
        call = self.call

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return TracedGenerator(fn(*args, **kwargs), layer, self)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(layer, fn, *args, **kwargs)

        return traced

    def _patch(self, owner, name, replacement):
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def install(self):
        """Wrap the public callables of every loaded layer module.

        Import the simulator before calling this; a module that is not
        loaded is not traced.  Functions that other ``repro`` modules
        imported by name are replaced there too.
        """
        loaded = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        }
        functions = {}
        for name, module in loaded.items():
            layer = layer_of_module(name)
            if layer is None:
                continue
            self._files[module.__file__] = layer
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != name:
                    continue
                if isinstance(value, types.FunctionType):
                    if not attr.startswith("_"):
                        functions[value] = self.wrap(value, layer)
                elif isinstance(value, type) and not issubclass(value, enum.Enum):
                    for method, fn in list(vars(value).items()):
                        if isinstance(fn, types.FunctionType) and not method.startswith("_"):
                            self._patch(value, method, self.wrap(fn, layer))
        for module in loaded.values():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in functions:
                    self._patch(module, attr, functions[value])
        self._trace_process_bodies(loaded["repro.sim.kernel"].Environment)

    def _trace_process_bodies(self, environment):
        """Attribute raw generators handed to ``Environment.process``.

        Public generator methods arrive already wrapped; private ones
        (``self._broadcast(...)``) arrive raw and are attributed to the
        layer of the file that defines them.  Generators from files no
        layer owns stay raw and count towards whoever resumes them.
        """
        files = self._files
        spawn = environment.process

        @functools.wraps(spawn)
        def process(env, generator):
            if type(generator) is types.GeneratorType:
                layer = files.get(generator.gi_code.co_filename)
                if layer is not None:
                    generator = TracedGenerator(generator, layer, self)
            return spawn(env, generator)

        self._patch(environment, "process", process)

    def uninstall(self):
        """Put every patched attribute back (newest first)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
