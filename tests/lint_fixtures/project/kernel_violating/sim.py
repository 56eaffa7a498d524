"""Hazards hidden in helpers the kernel can reach."""

import time


def slow_total(items) -> int:
    time.sleep(0.001)
    total = 0
    for item in items:
        total += item
    return total


def drain(bucket) -> list:
    order = []
    for member in bucket:
        order.append(member)
    return order


def power_down(radio) -> None:
    radio.sleep(1)


def process(env):
    slow_total([1, 2])
    drain({1, 2, 3})
    power_down(env.radio)
    yield env.timeout(1)
