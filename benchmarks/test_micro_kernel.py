"""Micro-benchmark of the DES kernel: raw event throughput.

The whole evaluation stands on the kernel, so its throughput bounds every
experiment's wall-clock time.  This bench pushes a ping-pong of processes
and timeouts through the scheduler and reports events per second, then
saturates one MSS link and reports sends per second and the kernel events
each send costs.
"""

from conftest import run_once

from repro.net import ServerChannel
from repro.sim import Environment


def test_micro_kernel_event_throughput(benchmark, record_table):
    events = 200_000

    def churn():
        env = Environment()

        def ticker():
            for _ in range(events):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run()
        return env.now

    now = run_once(benchmark, churn)
    assert now == events
    seconds = benchmark.stats.stats.mean
    record_table(
        "micro_kernel",
        "\n".join(
            [
                "=== Micro: DES kernel throughput ===",
                f"  {events} timeout events in {seconds:.3f} s"
                f"  ->  {events / seconds:,.0f} events/s",
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

    env, channel = run_once(benchmark, contended)
    assert channel.downlink_requests == sends
    assert channel.downlink_queue_length == 0
    # All 50 arrive at t=0 and re-queue the instant they are served, so the
    # link never idles: the clock ends at sends x 1 ms (up to rounding).
    assert abs(env.now - sends * 0.001) < 1e-6
    seconds = benchmark.stats.stats.mean
    # One bootstrap event per sender process; the rest is the sends' own.
    per_send = (env.events_processed - senders) / sends
    record_table(
        "micro_resource",
        "\n".join(
            [
                f"=== Micro: FCFS downlink contention ({senders} senders x {rounds} sends) ===",
                f"  {sends:,} sends in {seconds:.3f} s  ->  {sends / seconds:,.0f} sends/s",
                f"  {per_send:.2f} kernel events per send"
                "  (Resource-per-link design: 2.00)",
            ]
        ),
    )
