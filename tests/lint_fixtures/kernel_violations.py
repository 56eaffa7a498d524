"""Seeded DES-kernel-rule violations (simlint test fixture, never imported)."""

import time


def blocking_process(env):
    yield env.timeout(1.0)
    time.sleep(0.5)  # MARK:kernel-blocking-call


def stale_now_process(env):
    started = env.now
    yield env.timeout(5.0)
    yield env.timeout(started)  # MARK:kernel-stale-now


def elapsed_time_is_fine(env):
    started = env.now
    yield env.timeout(5.0)
    return env.now - started


class FakeEnvironment:
    """A scheduler: its dispatch loop must not allocate per event."""

    def run(self, until=None):
        while self.peek() <= until:
            batch = [self.pop()]  # MARK:kernel-hot-alloc-display
            extras = list(self.drain())  # MARK:kernel-hot-alloc-call
            seen = {e.seq for e in batch}  # MARK:kernel-hot-alloc-comp
            for event in batch + extras:
                event.process(seen)
        hoisted = []  # outside any loop: legal
        return hoisted

    def step(self):
        for event in self.pop_batch():
            event.callbacks = []  # simlint: allow[kernel-hot-alloc] reason=fixture shows the pragma escape

    def not_dispatch(self):
        # Same shapes outside run/step: the rule must stay quiet.
        while True:
            return [dict(a=1) for _ in range(3)]
