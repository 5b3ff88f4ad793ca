import itertools
import json
import math

import pytest
from hypothesis import example, given, strategies as st

from oscmac import run
from oscmac.channel import AirTransmission, NeighbourIndex, collide, ct_reach, distance, in_reach
from oscmac.energy import RadioEnergyParams

from conftest import generated_doc, make_config

D0 = RadioEnergyParams().d0
R = 90.0


def txn(rdv, ids, addressed=(), coop=False, span=(0, 3200)):
    """A transmission of rendezvous ``rdv`` on the air over ``span``, [start, end) in us."""
    return AirTransmission(rdv_id=rdv, sender_ids=tuple(ids), addressed_to=tuple(addressed),
                           cooperative=coop, start_us=span[0], end_us=span[1])


def audiences(transmissions, positions):
    """Each transmission's audience, by an index over ``positions``."""
    index = NeighbourIndex(positions, R, D0)
    return [index.audience(t) for t in transmissions]


def lost_at(heard):
    """What a listener that hears ``heard`` loses, by ``collide`` fed the
    transmissions in start order; in that order."""
    on_air, lost = [], set()
    ordered = sorted(heard, key=lambda t: t.start_us)
    for air in ordered:
        lost.update(collide(on_air, air))
    return [t for t in ordered if t in lost]


def resolve(listening):
    """Each receiver's lost transmissions, as receiver -> lost."""
    return {rid: lost_at(heard) for rid, heard in listening.items()}


def test_in_reach_closed_disk():
    assert in_reach((0, 0), (90, 0), R)
    assert not in_reach((0, 0), (90.0001, 0), R)
    assert in_reach((0, 0), (0, 0), R)


def test_distance():
    assert distance((0, 0), (3, 4)) == 5.0


_COORD = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]))


@given(a=st.tuples(_COORD, _COORD), b=st.tuples(_COORD, _COORD), coincident=st.booleans())
@example(a=(0.0, -0.0), b=(-0.0, 0.0), coincident=False)
@example(a=(5e-324, -5e-324), b=(-5e-324, 5e-324), coincident=False)
def test_distance_is_hypot_of_the_differences_either_way_round(a, b, coincident):
    """Bit for bit, so the neighbour table and ``ct_reach`` agree on every pair."""
    b = a if coincident else b
    d = distance(a, b)
    assert d.hex() == math.hypot(a[0] - b[0], a[1] - b[1]).hex() == distance(b, a).hex()


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
    # three senders at 120 m, past R: alpha 2 while d0 is farther,
    # 3*(90/120)^2 = 1.69 >= 1; alpha 4 once d0 is not, 3*(90/120)^4 = 0.95 < 1
    ring = [(220.0, 0.0), (-20.0, 0.0), (100.0, 120.0)]
    assert ct_reach(ring, rx, R, 200.0)
    assert not ct_reach(ring, rx, R, 120.0)


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
    t = txn(1, [10], addressed=(20,), span=(0, 3200))
    # 30 is out of reach, so it hears nothing
    assert audiences([t], {10: (0, 0), 20: (50.0, 0.0), 30: (500.0, 0.0)}) == [(20,)]
    assert resolve({20: [t]}) == {20: []}


def test_resolve_two_rendezvous_collide():
    a = txn(1, [10], span=(0, 3200))
    b = txn(2, [11], span=(1000, 4200))
    assert resolve({20: [a, b]}) == {20: [a, b]}


def test_resolve_only_overlapping_transmissions_collide():
    # b and c are 0.5 ms apart; a overlaps c alone, and d only touches c
    a = txn(1, [10], span=(4000, 5000))
    b = txn(2, [11], span=(0, 3200))
    c = txn(3, [12], span=(3700, 6900))
    d = txn(4, [13], span=(6900, 10100))
    assert resolve({20: [b, c], 21: [b, a, c, d], 22: [c, d]}) == {20: [], 21: [c, a], 22: []}


def test_resolve_cooperative_group_is_one_signal():
    # three senders close the 120 m hop that none of them closes alone
    g = txn(5, [1, 2, 3], addressed=(0,), coop=True, span=(0, 3200))
    positions = {0: (120.0, 0.0), 1: (0, 0), 2: (8, 6), 3: (8, -6)}
    assert audiences([g, txn(6, [1])], positions) == [(0,), (2, 3)]
    # a group is one transmission, so it overlaps nothing of its own; a
    # second transmission that overlaps it collides, whatever its rendezvous
    relay = txn(5, [4], addressed=(0,), span=(0, 3200))
    assert resolve({0: [g]}) == {0: []}
    assert resolve({0: [g, relay]}) == {0: [g, relay]}


def test_resolve_sender_never_receives_itself():
    positions = {10: (0.0, 0.0), 11: (5.0, 0.0)}
    assert audiences([txn(1, [10]), txn(2, [10, 11], coop=True)], positions) == [(11,), ()]


def test_resolve_collision_is_per_receiver():
    a = txn(1, [10], span=(0, 3200))
    b = txn(2, [11], span=(0, 3200))
    positions = {10: (0, 0), 11: (120, 0),
                 20: (-40.0, 0.0),   # hears only a
                 21: (60.0, 0.0),    # hears both
                 22: (160.0, 0.0)}   # hears only b
    assert audiences([a, b], positions) == [(20, 21), (21, 22)]
    assert resolve({20: [a], 21: [a, b], 22: [b]}) == {20: [], 21: [a, b], 22: []}


def test_resolve_outcomes_ascend_by_receiver():
    """A run resolves each transmission at its end for its listeners in
    ascending id: its receive rows are consecutive, ascend by node and are
    stamped at its end."""
    _, rows = run(make_config(generated_doc(mode="ct", horizon_s=20.0)), 0)
    ends, received = {}, []
    for t, _, node, event, text, _ in rows:
        d = json.loads(text)
        if event == "tx":
            ends[d["rdv"]] = d["end_us"]
        elif event in ("rx", "rx_corrupt", "overhear") and d["rdv"] is not None:
            received.append((d["rdv"], t, node))
    runs = [list(g) for _, g in itertools.groupby(received, key=lambda r: r[0])]
    assert len(runs) == len({rdv for rdv, _, _ in received}) > 10
    assert max(len(run_rows) for run_rows in runs) > 1
    for run_rows in runs:
        assert [t for _, t, _ in run_rows] == [ends[run_rows[0][0]]] * len(run_rows)
        nodes = [node for _, _, node in run_rows]
        assert nodes == sorted(set(nodes))


def test_collide_keeps_what_is_on_the_air():
    """Each start drops what has ended from the listener's list, joins it and
    returns the list if anything else is still on the air; transmissions that
    only touch do not overlap."""
    t = txn(1, [10], span=(0, 3200))
    u = txn(2, [11], span=(3199, 6399))
    v = txn(3, [12], span=(6399, 9599))
    heard = []
    assert collide(heard, t) == [] and heard == [t]
    assert collide(heard, u) == [t, u] and heard == [t, u]
    assert collide(heard, v) == [] and heard == [v]


@st.composite
def _heard_lists(draw):
    """What one listener hears: transmissions on short integer intervals, so
    that intervals often overlap or touch, with rendezvous ids that repeat."""
    heard = []
    for sender in range(draw(st.integers(1, 8))):
        start = draw(st.integers(0, 12))
        heard.append(txn(draw(st.integers(0, 3)), [sender],
                         span=(start, start + draw(st.integers(1, 6)))))
    return heard


def _lost_by_scan(heard):
    """The heard transmissions that share some microsecond with another heard
    transmission."""
    on_air = {id(t): set(range(t.start_us, t.end_us)) for t in heard}
    return [t for t in heard if any(u is not t and on_air[id(t)] & on_air[id(u)] for u in heard)]


# a chain: the first overlaps the second, and the second the third
_CHAIN = [txn(1, [10], span=(0, 4)), txn(2, [11], span=(3, 8)), txn(3, [12], span=(7, 9))]


@given(_heard_lists())
@example([txn(1, [10], span=(0, 5)), txn(2, [11], span=(5, 9))])  # they only touch
@example([txn(1, [10], span=(0, 5)), txn(1, [11], span=(2, 7))])  # one rendezvous id
@example(_CHAIN)
@example([_CHAIN[0], _CHAIN[2]])
def test_resolve_matches_pairwise_overlap_scan(heard):
    """Fed in start order, ``collide`` loses exactly the heard transmissions
    that overlap another heard one."""
    ordered = sorted(heard, key=lambda t: t.start_us)
    assert lost_at(heard) == _lost_by_scan(ordered)
