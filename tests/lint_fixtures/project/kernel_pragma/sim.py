"""The kernel_violating hazards, excused with pragmas."""

import time


def slow_total(items) -> int:
    time.sleep(0.001)  # simlint: allow[kernel-transitive-hazard] reason=test stub, replaced by a fake clock in production
    total = 0
    for item in items:
        total += item
    return total


def drain(bucket) -> list:
    order = []
    for member in bucket:  # simlint: allow[kernel-transitive-hazard] reason=order-insensitive accumulation, result is summed
        order.append(member)
    return order


def power_down(radio) -> None:
    radio.sleep(1)  # simlint: allow[kernel-transitive-hazard] reason=radio power state, not the OS thread


def process(env):
    slow_total([1, 2])
    drain({1, 2, 3})
    power_down(env.radio)
    yield env.timeout(1)
