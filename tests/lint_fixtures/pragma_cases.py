"""Seeded pragma-layer cases (simlint test fixture, never imported)."""

import time


def suppressed_wall_clock():
    return time.time()  # simlint: allow[no-wall-clock] reason=fixture exercises a valid suppression


def pragma_without_reason():
    return time.time()  # simlint: allow[no-wall-clock] MARK:pragma-missing-reason


def pragma_unknown_rule():
    return 1  # simlint: allow[no-such-rule] reason=MARK:pragma-unknown-rule


def pragma_unused():
    return 2  # simlint: allow[no-direct-rng] reason=MARK:pragma-unused
