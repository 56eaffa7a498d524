"""Micro-benchmark of the DES kernel: raw event throughput.

The whole evaluation stands on the kernel, so its throughput bounds every
experiment's wall-clock time.  Two shapes go through the scheduler:

* **one ticker** — a single process yielding timeouts, so the pending set
  is one event: the kernel's best case, and a shape no simulation has;
* **a crowd** — 160 tickers (the host count of ``lc-server``) on three
  co-prime periods with staggered starts, each firing a same-instant burst
  of three timeouts every fourth round.  The pending set stays near the
  host count, most ticks dispatch one event and one in five dispatches
  several, and the burst timeouts are held in a list (so the free list
  must leave them alone): the shape the figure runs have.

The same crowd runs once more with no process at all, each ticker a chain
of kernel callbacks the way the P2P frames are: every step scheduled as a
timeout callback (an unowned ``Timeout``, recycled through the free list)
against the same steps as bare calls (``Environment.call_later``: one heap
entry, no ``Event``).

Then one MSS link is saturated, for sends per second and the kernel events
each send costs.  Every row is the best of ``REPEATS`` passes: the box is
shared, and one pass can read half the speed of the next.
"""

import time

from conftest import run_once

from repro.net import ServerChannel
from repro.sim import Environment

EVENTS = 200_000
HOSTS = 160
PERIODS = (7.0, 11.0, 13.0)
ROUNDS = 700
BURST_EVERY, BURST = 4, 3
REPEATS = 5


def one_ticker():
    env = Environment()

    def ticker():
        for _ in range(EVENTS):
            yield env.timeout(1.0)

    env.process(ticker())
    return env


def crowd():
    env = Environment()

    def ticker(host):
        period = PERIODS[host % len(PERIODS)]
        yield env.timeout(host / HOSTS)  # staggered: few cross-host ties
        for round_no in range(1, ROUNDS + 1):
            yield env.timeout(period)
            if round_no % BURST_EVERY == 0:
                burst = [env.timeout(0.0) for _ in range(BURST)]
                for timeout in burst:
                    yield timeout

    for host in range(HOSTS):
        env.process(ticker(host))
    return env


class CallbackTicker:
    """One crowd ticker without a process: the stagger, ``ROUNDS`` periods
    and the bursts as a chain of kernel callbacks, each step scheduled as a
    bare call (``bare``) or as a timeout callback."""

    __slots__ = ("env", "period", "round", "owed", "bare")

    def __init__(self, env, host, bare):
        self.env = env
        self.period = PERIODS[host % len(PERIODS)]
        self.round = self.owed = 0
        self.bare = bare
        self.after(host / HOSTS)

    def after(self, delay):
        if self.bare:
            self.env.call_later(delay, self.tick)
        else:
            self.env.timeout(delay).callbacks.append(self.tick)

    def tick(self, _event=None):
        if self.owed:  # one burst step
            self.owed -= 1
            if self.owed:
                return
        elif self.round and self.round % BURST_EVERY == 0:
            self.owed = BURST
            for _ in range(BURST):
                self.after(0.0)
            return
        if self.round < ROUNDS:
            self.round += 1
            self.after(self.period)


def callback_crowd(bare):
    env = Environment()
    for host in range(HOSTS):
        CallbackTicker(env, host, bare)
    return env


def best_run(build):
    """The environment and run time of the fastest of ``REPEATS`` passes."""
    best = None
    for _ in range(REPEATS):
        env = build()
        start = time.perf_counter()
        env.run()
        seconds = time.perf_counter() - start
        if best is None or seconds < best[1]:
            best = env, seconds
    return best


def test_micro_kernel_event_throughput(benchmark, record_table):
    (single, single_s), (many, many_s), (timed, timed_s), (bare, bare_s) = run_once(
        benchmark,
        lambda: (
            best_run(one_ticker),
            best_run(crowd),
            best_run(lambda: callback_crowd(bare=False)),
            best_run(lambda: callback_crowd(bare=True)),
        ),
    )
    assert single.now == EVENTS and single.events_processed == EVENTS + 1
    per_host = 2 + ROUNDS + BURST * (ROUNDS // BURST_EVERY)  # bootstrap, stagger
    assert many.events_processed == HOSTS * per_host
    assert 0 <= many.now - ROUNDS * max(PERIODS) < 1  # the stagger is under 1
    for env in (timed, bare):  # the same steps, less the process bootstraps
        assert env.events_processed == HOSTS * (per_host - 1) and env.now == many.now
    assert bare.freelist_hits == 0 and timed.freelist_hits > 0
    record_table(
        "micro_kernel",
        "\n".join(
            [
                f"=== Micro: DES kernel throughput (best of {REPEATS} passes) ===",
                f"  one ticker (pending set of 1): {single.events_processed:,} events"
                f" in {single_s:.3f} s  ->  {single.events_processed / single_s:,.0f} events/s",
                f"  {HOSTS} tickers, periods {'/'.join(f'{p:g}' for p in PERIODS)},"
                f" a same-instant burst of {BURST} every {BURST_EVERY} rounds"
                f" (pending set ~{HOSTS}): {many.events_processed:,} events"
                f" in {many_s:.3f} s  ->  {many.events_processed / many_s:,.0f} events/s",
                f"  the same {HOSTS} tickers as callback chains, no process:"
                f" {timed.events_processed:,} steps each side",
                f"    as timeout callbacks: {timed_s:.3f} s"
                f"  ->  {timed.events_processed / timed_s:,.0f} events/s",
                f"    as bare calls:        {bare_s:.3f} s"
                f"  ->  {bare.events_processed / bare_s:,.0f} events/s"
                f"  ({timed_s / bare_s:.2f}x)",
            ]
        ),
    )


def test_micro_kernel_resource_contention(benchmark, record_table):
    senders, rounds = 50, 500
    sends = senders * rounds

    def contended():
        env = Environment()
        # 1000 bytes at 8 Mbit/s: every send holds the downlink for 1 ms.
        channel = ServerChannel(env, downlink_bps=8_000_000.0, uplink_bps=8_000_000.0)

        def sender():
            for _ in range(rounds):
                yield from channel.send_downlink(1000)

        for _ in range(senders):
            env.process(sender())
        env.run()
        return env, channel

    env, channel = benchmark.pedantic(contended, rounds=REPEATS, iterations=1)
    assert channel.downlink_requests == sends
    assert channel.downlink_queue_length == 0
    # All 50 arrive at t=0 and re-queue the instant they are served, so the
    # link never idles: the clock ends at sends x 1 ms (up to rounding).
    assert abs(env.now - sends * 0.001) < 1e-6
    seconds = benchmark.stats.stats.min
    # One bootstrap event per sender process; the rest is the sends' own.
    per_send = (env.events_processed - senders) / sends
    record_table(
        "micro_resource",
        "\n".join(
            [
                f"=== Micro: FCFS downlink contention ({senders} senders x {rounds} sends,"
                f" best of {REPEATS} passes) ===",
                f"  {sends:,} sends in {seconds:.3f} s  ->  {sends / seconds:,.0f} sends/s",
                f"  {per_send:.2f} kernel events per send"
                "  (Resource-per-link design: 2.00)",
            ]
        ),
    )
