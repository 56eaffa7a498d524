"""Tests for the Table I power model and the per-host ledger."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import PowerLedger, PowerModel, PowerParameters


def test_table1_point_to_point_rows():
    model = PowerModel()
    b = 100
    assert model.ptp_send(b) == pytest.approx(1.9 * b + 454)
    assert model.ptp_recv(b) == pytest.approx(0.5 * b + 356)
    # Discard rows are size-independent (v = 0) with the paper's fixed costs.
    assert model.ptp_discard_sd(b) == pytest.approx(70.0)
    assert model.ptp_discard_s(b) == pytest.approx(24.0)
    assert model.ptp_discard_d(b) == pytest.approx(56.0)
    assert model.ptp_discard_sd(10 * b) == model.ptp_discard_sd(b)


def test_table1_broadcast_rows():
    model = PowerModel()
    b = 64
    assert model.bc_send(b) == pytest.approx(1.9 * b + 266)
    assert model.bc_recv(b) == pytest.approx(0.5 * b + 56)


def test_custom_parameters():
    model = PowerModel(PowerParameters(ptp_send_v=2.0, ptp_send_f=100.0))
    assert model.ptp_send(10) == pytest.approx(120.0)


@given(st.integers(min_value=1, max_value=10**6))
def test_send_always_costs_more_than_recv(size):
    model = PowerModel()
    assert model.ptp_send(size) > model.ptp_recv(size)
    assert model.bc_send(size) > model.bc_recv(size)


def test_ledger_charge_and_totals():
    ledger = PowerLedger(3)
    ledger.charge(0, 10.0, "data")
    ledger.charge(0, 5.0, "signature")
    ledger.charge(2, 7.0, "beacon")
    assert ledger.host_total(0) == pytest.approx(15.0)
    assert ledger.host_total(1) == 0.0
    assert ledger.total() == pytest.approx(22.0)
    assert ledger.total("data") == pytest.approx(10.0)
    assert ledger.by_purpose() == pytest.approx(
        {"data": 10.0, "signature": 5.0, "beacon": 7.0}
    )


def test_ledger_charge_where():
    ledger = PowerLedger(4)
    ledger.charge_where(np.array([False, True, False, True]), 2.5)
    assert ledger.host_total(1) == pytest.approx(2.5)
    assert ledger.host_total(3) == pytest.approx(2.5)
    ledger.charge_where(np.zeros(4, dtype=bool), 1.0)  # nobody in the mask: no-op
    assert ledger.total() == pytest.approx(5.0)
    assert ledger.per_host_totals().tolist() == [0.0, 2.5, 0.0, 2.5]


def snapshot(ledger):
    return {purpose: array.tobytes() for purpose, array in ledger._by_purpose.items()}


def test_ledger_rejects_negative_charges():
    ledger = PowerLedger(2)
    ledger.charge(1, 0.3, "signature")
    before = snapshot(ledger)
    with pytest.raises(ValueError):
        ledger.charge(0, -1.0)
    with pytest.raises(ValueError):
        ledger.charge_where(np.array([True, False]), -1.0)
    assert snapshot(ledger) == before


def test_ledger_rejects_nan_charges():
    """`amount < 0` is False for NaN; one NaN would poison the whole purpose."""
    ledger = PowerLedger(4)
    ledger.charge(2, 0.7)
    before = snapshot(ledger)
    with pytest.raises(ValueError, match="nan"):
        ledger.charge(0, math.nan)
    with pytest.raises(ValueError, match="nan"):
        ledger.charge_where(np.array([False, True, True, False]), math.nan)
    amounts = np.array([1.0, math.nan, 0.0, 2.0])
    with pytest.raises(ValueError):
        ledger.charge_each(amounts)
    assert snapshot(ledger) == before


@pytest.mark.parametrize(
    "mask",
    [
        np.array([0, 1, 1, 0]),  # 0/1 ints would be read as indices by numpy
        np.array([0.0, 1.0, 1.0, 0.0]),
        np.array([True, False, True]),
        np.ones((4, 1), dtype=bool),
        np.array([1, 3]),  # an index array, as charge_many took
    ],
)
def test_ledger_charge_where_wants_a_bool_mask_over_the_population(mask):
    ledger = PowerLedger(4)
    with pytest.raises(ValueError) as raised:
        ledger.charge_where(mask, 5.0)
    assert f"dtype {mask.dtype}" in str(raised.value)
    assert f"shape {mask.shape}" in str(raised.value)
    assert ledger.total() == 0.0


@given(
    st.lists(st.booleans(), min_size=1, max_size=40),
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6),
)
def test_ledger_charge_where_equals_a_per_host_charge_loop(mask, amounts):
    """Bit for bit, repeated charges included: one masked add per amount is
    the same float additions, in the same order per host."""
    masked, looped = PowerLedger(len(mask)), PowerLedger(len(mask))
    for amount in amounts:
        masked.charge_where(np.array(mask), amount, "signature")
        for host, charged in enumerate(mask):
            if charged:
                looped.charge(host, amount, "signature")
    assert snapshot(masked) == snapshot(looped)


def test_ledger_charge_each():
    ledger = PowerLedger(3)
    ledger.charge(1, 0.1, "beacon")
    ledger.charge_each(np.array([1.5, 0.0, 2.0]), "beacon")
    ledger.charge_each([0, 3, 0], "beacon")  # any array-like of length N
    assert ledger.per_host_totals().tolist() == [1.5, 0.1 + 0.0 + 3.0, 2.0]
    assert ledger.total("data") == 0.0


def test_ledger_charge_each_validates_shape_and_sign():
    ledger = PowerLedger(3)
    with pytest.raises(ValueError, match="3 amounts"):
        ledger.charge_each(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="3 amounts"):
        ledger.charge_each(np.ones((3, 1)))
    with pytest.raises(ValueError):
        ledger.charge_each(np.array([1.0, -0.5, 0.0]))
    assert ledger.total() == 0.0


def test_ledger_rejects_empty():
    with pytest.raises(ValueError):
        PowerLedger(0)


def test_ledger_unknown_purpose_raises():
    ledger = PowerLedger(1)
    with pytest.raises(KeyError):
        ledger.charge(0, 1.0, "nonsense")
