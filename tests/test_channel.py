import math

import pytest
from hypothesis import given, strategies as st

from oscmac.channel import (AirTransmission, ct_reach, distance, in_reach,
                            resolve_slot)
from oscmac.energy import RadioEnergyParams

D0 = RadioEnergyParams().d0
R = 90.0


def txn(rdv, ids, addressed=(), coop=False):
    return AirTransmission(rdv_id=rdv, sender_ids=tuple(ids), addressed_to=tuple(addressed),
                           cooperative=coop)


def resolve(transmissions, receivers, senders):
    """Every receiver listening to every transmission, with the senders'
    positions in the same map; outcomes by receiver id."""
    listening = {rid: list(transmissions) for rid in receivers}
    return {o.receiver: o for o in resolve_slot(listening, {**senders, **receivers}, R, D0)}


def test_in_reach_closed_disk():
    assert in_reach((0, 0), (90, 0), R)
    assert not in_reach((0, 0), (90.0001, 0), R)
    assert in_reach((0, 0), (0, 0), R)


def test_distance():
    assert distance((0, 0), (3, 4)) == 5.0


def test_ct_reach_single_sender_matches_in_reach():
    for d in (0.0, 10.0, 89.9, 90.0, 90.1, 200.0):
        assert ct_reach([(0.0, 0.0)], (d, 0.0), R, D0) == in_reach((0.0, 0.0), (d, 0.0), R)


def test_ct_reach_zero_distance_trivial():
    assert ct_reach([(500.0, 0.0), (1.0, 1.0)], (1.0, 1.0), R, D0)


def test_ct_reach_empty_raises():
    with pytest.raises(ValueError):
        ct_reach([], (0, 0), R, D0)


def test_ct_reach_alpha_switches_on_farthest_sender():
    rx = (100.0, 0.0)
    # two senders at 110 m (>= d0 -> alpha 4): 2*(90/110)^4 = 0.897 < 1
    far = [(-10.0, 0.0), (210.0, 0.0)]
    assert not ct_reach(far, rx, R, D0)
    # two senders at 80 m (< d0 -> alpha 2): 2*(90/80)^2 = 2.53 >= 1
    close = [(20.0, 0.0), (180.0, 0.0)]
    assert ct_reach(close, rx, R, D0)


def test_ct_reach_three_senders_extend_range():
    # lone sender at 112.16 m fails; three cooperating senders succeed
    rx = (120.0, 0.0)
    trn = (0.0, 0.0)
    helpers = [(8.0, 6.0), (8.0, -6.0)]
    assert not in_reach(trn, rx, R)
    assert ct_reach([trn] + helpers, rx, R, D0)


@given(x=st.floats(-200, 200), y=st.floats(-200, 200),
       sx=st.floats(-200, 200), sy=st.floats(-200, 200))
def test_ct_reach_degenerates_to_in_reach(x, y, sx, sy):
    assert ct_reach([(sx, sy)], (x, y), R, D0) == in_reach((sx, sy), (x, y), R)


def test_resolve_single_transmission_decodes():
    t = txn(1, [10], addressed=(20,))
    out = resolve([t], {20: (50.0, 0.0), 30: (500.0, 0.0)}, {10: (0, 0)})
    assert out[20].decoded is t
    assert not out[20].collision
    assert 30 not in out  # out of reach, nothing audible


def test_resolve_two_rendezvous_collide():
    a = txn(1, [10])
    b = txn(2, [11])
    out = resolve([a, b], {20: (15.0, 0.0)}, {10: (0, 0), 11: (30, 0)})
    assert out[20].collision
    assert out[20].decoded is None
    assert len(out[20].audible) == 2


def test_resolve_cooperative_group_is_one_signal():
    # three senders, one rendezvous: no self-collision at the receiver
    g = txn(5, [1, 2, 3], addressed=(0,), coop=True)
    out = resolve([g], {0: (120.0, 0.0)}, {1: (0, 0), 2: (8, 6), 3: (8, -6)})
    assert out[0].decoded is g
    assert not out[0].collision


def test_resolve_sender_never_receives_itself():
    t = txn(1, [10])
    out = resolve([t], {10: (0.0, 0.0)}, {})
    assert 10 not in out


def test_resolve_collision_is_per_receiver():
    a = txn(1, [10])
    b = txn(2, [11])
    receivers = {20: (-40.0, 0.0),   # hears only a
                 21: (60.0, 0.0),    # hears both
                 22: (160.0, 0.0)}   # hears only b
    out = resolve([a, b], receivers, {10: (0, 0), 11: (120, 0)})
    assert out[20].decoded is a and not out[20].collision
    assert out[21].collision
    assert out[22].decoded is b and not out[22].collision


def test_resolve_outcomes_ascend_by_receiver():
    t = txn(1, [10])
    listening = {30: [t], 20: [t], 25: [t]}
    positions = {10: (0, 0), 20: (10.0, 0.0), 25: (500.0, 0.0), 30: (20.0, 0.0)}
    out = resolve_slot(listening, positions, R, D0)
    assert [o.receiver for o in out] == [20, 30]
