"""Seeded determinism-rule violations (simlint test fixture, never imported)."""

import time
from datetime import datetime

import numpy as np


def direct_generator():
    return np.random.default_rng(7)  # MARK:no-direct-rng


def wall_clock_delay():
    return time.time()  # MARK:no-wall-clock


def wall_clock_date():
    return datetime.now()  # MARK:no-wall-clock-datetime


def schedule_from_set(hosts):
    pending = {host for host in hosts}
    order = []
    for host in pending:  # MARK:set-iteration-order
        order.append(host)
    return order
