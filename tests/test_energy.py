import math

import pytest
from hypothesis import assume, example, given, strategies as st

from oscmac.energy import Battery, RadioEnergyParams, drain_idle_all, rx_energy, tx_energy

DEFAULTS = RadioEnergyParams()


def test_crossover_distance_default():
    # sqrt(10e-12 / 0.0013e-12) = sqrt(10 / 0.0013)
    assert DEFAULTS.d0 == pytest.approx(87.70580193070292, rel=1e-12)


def test_crossover_equal_coefficients():
    p = RadioEnergyParams(e_fs=3e-12, e_mp=3e-12)
    assert p.d0 == 1.0


def test_crossover_ratio_four():
    p = RadioEnergyParams(e_fs=4e-12, e_mp=1e-12)
    assert p.d0 == 2.0


def test_params_reject_nonpositive():
    with pytest.raises(ValueError):
        RadioEnergyParams(e_fs=0.0)
    with pytest.raises(ValueError):
        RadioEnergyParams(p_rx=-1.0)


def test_tx_energy_zero_bits():
    assert tx_energy(0, 123.0, DEFAULTS) == 0.0


def test_tx_energy_zero_distance_is_electronics_only():
    assert tx_energy(1, 0.0, DEFAULTS) == DEFAULTS.e_elec


def test_tx_energy_free_space_branch():
    # 800 * 50e-9 + 800 * 10e-12 * 50^2
    assert tx_energy(800, 50.0, DEFAULTS) == pytest.approx(6.0e-5, rel=1e-12)


def test_tx_energy_multipath_branch():
    # 800 * 50e-9 + 800 * 0.0013e-12 * 100^4
    assert tx_energy(800, 100.0, DEFAULTS) == pytest.approx(1.44e-4, rel=1e-12)


def test_rx_energy_values():
    assert rx_energy(0, DEFAULTS) == 0.0
    assert rx_energy(800, DEFAULTS) == pytest.approx(4.0e-5, rel=1e-12)
    assert rx_energy(1, DEFAULTS) == pytest.approx(5.0e-8, rel=1e-12)


def test_branch_continuity_at_d0():
    for p in (DEFAULTS, RadioEnergyParams(e_fs=7e-12, e_mp=2e-15)):
        d0 = p.d0
        lo = 1 * p.e_elec + 1 * p.e_fs * d0 ** 2
        hi = 1 * p.e_elec + 1 * p.e_mp * d0 ** 4
        assert abs(lo - hi) <= 1e-15 * max(lo, hi)


@given(bits=st.integers(0, 10_000),
       d=st.floats(0, 300),
       d2=st.floats(0, 300))
def test_tx_energy_monotone_in_distance(bits, d, d2):
    lo, hi = sorted((d, d2))
    assert tx_energy(bits, lo, DEFAULTS) <= tx_energy(bits, hi, DEFAULTS) + 1e-18


@given(bits=st.integers(0, 10_000), d=st.floats(0, 300))
def test_tx_energy_per_bit_linear(bits, d):
    assert tx_energy(bits, d, DEFAULTS) == pytest.approx(
        bits * tx_energy(1, d, DEFAULTS), rel=1e-12, abs=1e-30)


def test_battery_drain_basic():
    b = Battery(initial=1.0)
    assert b.drain(0.0, "transmit") == 0.0
    assert b.residual == 1.0
    drawn = b.drain(6e-5, "transmit")
    assert drawn == 6e-5
    assert b.residual == pytest.approx(0.99994, rel=1e-12)
    assert b.consumed_by_category["transmit"] == 6e-5


def test_battery_floors_at_zero_and_dies():
    b = Battery(initial=1e-6)
    drawn = b.drain(1.0, "receive")
    assert drawn == 1e-6
    assert b.residual == 0.0
    assert not b.alive
    # dead battery drains are no-ops
    assert b.drain(1.0, "receive") == 0.0
    assert not b.alive


@given(st.lists(st.tuples(st.floats(0, 0.3),
                          st.sampled_from(["transmit", "receive", "idle_listen",
                                           "sleep", "overhear"])),
                max_size=30))
def test_battery_bookkeeping_exact(events):
    b = Battery(initial=1.0)
    was_alive = True
    for amount, cat in events:
        b.drain(amount, cat)
        # alive flag never resurrects
        assert was_alive or not b.alive
        was_alive = b.alive
    total = b.residual + sum(b.consumed_by_category.values())
    assert total == pytest.approx(b.initial, rel=1e-12)
    assert 0.0 <= b.residual <= b.initial


def test_unknown_category_rejected():
    b = Battery(initial=1.0)
    with pytest.raises(ValueError):
        b.drain(0.1, "warp_drive")
    with pytest.raises(ValueError):
        b.drain(-0.1, "transmit")


def _battery_state(b):
    return b.residual, b.alive, dict(b.consumed_by_category)


_joules = st.one_of(st.floats(0, 2e-3), st.sampled_from([0.0, 5e-324, 1e-3]))


@given(residual=_joules, spent=_joules, idle=_joules, sleep=_joules)
@example(residual=1e-3, spent=0.0, idle=1e-3, sleep=1e-9)   # idle alone empties it
@example(residual=1e-3, spent=0.0, idle=4e-4, sleep=6e-4)   # the sum meets it exactly
@example(residual=0.0, spent=0.0, idle=1e-4, sleep=1e-8)    # already dead
def test_drain_idle_is_the_two_drains(residual, spent, idle, sleep):
    """``drain_idle`` draws, floors and dies exactly as ``drain`` for idle
    and then ``drain`` for sleep: same amounts, residual, flag and totals."""
    pair, single = (Battery(initial=1.0, residual=max(residual, 0.0)) for _ in range(2))
    for b in (pair, single):
        b.drain(spent, "transmit")  # a battery that has also spent on other work
        b.alive = b.residual > 0.0
    drawn = pair.drain_idle(idle, sleep)
    assert drawn == (single.drain(idle, "idle_listen"), single.drain(sleep, "sleep"))
    assert _battery_state(pair) == _battery_state(single)


@given(idle=_joules, sleep=_joules, spent=_joules, extras=st.lists(_joules, max_size=5))
@example(idle=2.0 ** -11, sleep=2.0 ** -12, spent=0.0, extras=[0.0])  # floored to 0, dead
@example(idle=1e-4, sleep=1e-8, spent=0.0, extras=[])
@example(idle=1e-4, sleep=1e-8, spent=1e-3, extras=[5e-324])
def test_drain_idle_all_is_drain_idle_on_each(idle, sleep, spent, extras):
    """On batteries holding ``idle + sleep`` or more, the bulk drain leaves
    each exactly as ``drain_idle(idle, sleep)`` does and returns their
    residuals; a residual above the draw is never clamped by it."""
    residuals = [idle + sleep + extra for extra in extras]
    bulk, each = ([Battery(initial=1.0) for _ in residuals] for _ in range(2))
    for b, residual in zip(bulk + each, residuals + residuals):
        b.drain(spent, "idle_listen")  # a battery that has drawn before
        b.residual = residual
    drawn = [b.drain_idle(idle, sleep) for b in each]
    assert all(d == (idle, sleep) for d, r in zip(drawn, residuals) if r > idle + sleep)
    assume(all(d == (idle, sleep) for d in drawn))  # one that meets it may be clamped
    assert drain_idle_all(bulk, idle, sleep) == [b.residual for b in each]
    assert [_battery_state(b) for b in bulk] == [_battery_state(b) for b in each]


def test_drain_idle_rejects_negative_amounts():
    b = Battery(initial=1.0)
    for idle, sleep in ((-1e-3, 0.0), (0.0, -1e-9)):
        with pytest.raises(ValueError):
            b.drain_idle(idle, sleep)
    assert _battery_state(b) == (1.0, True, {c: 0.0 for c in b.consumed_by_category})

