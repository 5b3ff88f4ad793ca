import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from oscmac.config import ConfigError, parse_config
from oscmac.channel import NeighbourIndex
from oscmac.energy import RadioEnergyParams
from oscmac.engine import Simulator
from oscmac.mac import (_AWAITS, DutySchedule, MacState, Superframe,
                        build_schedules, compose_superframe, on_superframe, reserve, reserve_noct, step, two_hop_sets)
from oscmac.selection import ElectedList

from test_neighbour_index import layouts

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from sample import RUN_SEED, WORKLOADS, scenario_json  # noqa: E402  -- read only

FRAME = 100_000
ACTIVE = 10_000


def neighbours(positions, base_range=90.0):
    return NeighbourIndex(positions, base_range, RadioEnergyParams().d0).neighbours


def test_schedule_validation():
    with pytest.raises(ValueError):
        DutySchedule(FRAME, 0, 0)
    with pytest.raises(ValueError):
        DutySchedule(FRAME, FRAME + 1, 0)
    with pytest.raises(ValueError):
        DutySchedule(FRAME, ACTIVE, FRAME)


def test_is_awake_basic():
    s = DutySchedule(FRAME, ACTIVE, 20_000)
    assert not s.is_awake(0)
    assert s.is_awake(20_000)
    assert s.is_awake(29_999)
    assert not s.is_awake(30_000)
    assert s.is_awake(FRAME + 25_000)


def test_next_wake():
    s = DutySchedule(FRAME, ACTIVE, 20_000)
    assert s.next_wake(0) == 20_000
    assert s.next_wake(25_000) == 25_000
    assert s.next_wake(30_000) == FRAME + 20_000
    assert s.next_wake(FRAME) == FRAME + 20_000


def test_awake_time_whole_frames():
    s = DutySchedule(FRAME, ACTIVE, 20_000)
    assert s.awake_time(0, FRAME) == ACTIVE
    assert s.awake_time(0, 5 * FRAME) == 5 * ACTIVE
    assert s.awake_time(0, 0) == 0
    assert s.awake_time(FRAME, 0) == 0


def test_awake_time_partial_windows():
    s = DutySchedule(FRAME, ACTIVE, 20_000)
    assert s.awake_time(22_000, 27_000) == 5_000
    assert s.awake_time(0, 20_000) == 0
    assert s.awake_time(25_000, FRAME + 25_000) == ACTIVE


def test_wrapping_window():
    s = DutySchedule(FRAME, ACTIVE, 95_000)
    assert s.is_awake(95_000)
    assert s.is_awake(99_999)
    assert s.is_awake(0)
    assert s.is_awake(4_999)
    assert not s.is_awake(5_000)
    assert s.awake_time(0, FRAME) == ACTIVE


@given(offset=st.integers(0, FRAME // 1000 - 1).map(lambda k: k * 1000),
       t0=st.integers(0, 10 * FRAME),
       span=st.integers(0, 3 * FRAME) | st.integers(1, 5).map(lambda k: k * FRAME))
@example(offset=95_000, t0=97_000, span=2 * FRAME)  # whole frames, wrapping window
def test_awake_time_matches_pointwise_scan(offset, t0, span):
    """Closed-form awake time must agree with millisecond-grained sampling,
    whole-frame spans included."""
    s = DutySchedule(FRAME, ACTIVE, offset)
    step_us = 1000  # all boundaries are multiples of 1000 here
    t0 = (t0 // step_us) * step_us
    t1 = t0 + (span // step_us) * step_us
    scanned = sum(step_us for t in range(t0, t1, step_us) if s.is_awake(t))
    assert s.awake_time(t0, t1) == scanned


@given(offset=st.integers(0, FRAME // 1000 - 1).map(lambda k: k * 1000),
       t=st.integers(0, 10 * FRAME).map(lambda t: t // 1000 * 1000))
def test_next_wake_matches_pointwise_scan(offset, t):
    """next_wake is the first awake instant at or after t, wrapping windows included."""
    s = DutySchedule(FRAME, ACTIVE, offset)
    expected = next(u for u in range(t, t + 2 * FRAME, 1000) if s.is_awake(u))
    assert s.next_wake(t) == expected


def test_two_hop_sets_chain():
    pos = {0: (0, 0), 1: (80, 0), 2: (160, 0), 3: (240, 0)}
    two = two_hop_sets(neighbours(pos))
    assert two[0] == {1, 2}
    assert two[1] == {0, 2, 3}
    assert two[3] == {1, 2}


def test_build_schedules_pipelined_chain():
    pos = {0: (0, 0), 1: (80, 0), 2: (160, 0), 3: (240, 0)}
    depths = {0: 0, 1: 1, 2: 2, 3: 3}
    sched = build_schedules(neighbours(pos), depths, FRAME, ACTIVE)
    # deepest node wakes first; each hop downstream wakes one window later
    assert sched[3].wake_offset_us == 0
    assert sched[2].wake_offset_us == ACTIVE
    assert sched[1].wake_offset_us == 2 * ACTIVE
    assert sched[0].wake_offset_us == 3 * ACTIVE


def test_build_schedules_orthogonal_within_two_hops():
    pos = {i: (i * 10.0, 0.0) for i in range(6)}  # all mutually in 2-hop range
    depths = {i: 1 for i in range(6)}
    sched = build_schedules(neighbours(pos), depths, FRAME, ACTIVE)
    offsets = [sched[i].wake_offset_us for i in range(6)]
    assert len(set(offsets)) == 6


def test_build_schedules_overcrowded_neighborhood_fails():
    pos = {i: (i * 1.0, 0.0) for i in range(5)}
    depths = {i: 0 for i in range(5)}
    with pytest.raises(ConfigError, match=r"^mac\.active_ms"):
        build_schedules(neighbours(pos), depths, 4 * ACTIVE, ACTIVE)


def reference_schedules(neighbours, depths, frame_us, active_us):
    """The wake-slot rule in its direct form: build every node's two-hop set,
    then scan it for the slots of the nodes already assigned."""
    slots_avail = frame_us // active_us
    two = two_hop_sets(neighbours)
    max_depth = max(depths.values()) if depths else 0
    assigned = {}  # node -> slot index
    for node in sorted(depths, key=lambda n: (-depths[n], n)):
        base = (max_depth - depths[node]) % slots_avail
        taken = {assigned[m] for m in two[node] if m in assigned}
        for bump in range(slots_avail):
            slot = (base + bump) % slots_avail
            if slot not in taken:
                assigned[node] = slot
                break
        else:
            raise ConfigError(
                f"mac.active_ms: a frame of {slots_avail} windows cannot orthogonalize "
                f"the 2-hop neighbourhood of node {node} ({len(two[node])} other nodes)")
    return {n: DutySchedule(frame_us, active_us, assigned[n] * active_us) for n in assigned}


def assert_schedules_match_reference(neighbours, depths, frame_us, active_us):
    """``build_schedules`` gives the reference's schedules in its order, one
    shared object per slot, or raises the reference's ConfigError."""
    try:
        expected = reference_schedules(neighbours, depths, frame_us, active_us)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as raised:
            build_schedules(neighbours, depths, frame_us, active_us)
        assert str(raised.value) == str(exc)
        return
    got = build_schedules(neighbours, depths, frame_us, active_us)
    assert list(got.items()) == list(expected.items())
    assert len({id(s) for s in got.values()}) == len(set(got.values()))


@given(st.one_of(layouts(), layouts(span=12)), st.data())
def test_build_schedules_matches_two_hop_scan(layout, data):
    """On layouts with negative coordinates, coincident nodes and pairs exactly
    one base range apart, depths up to 6 or 200 and 1-200 windows a frame, so
    that slots past bit 64 and the wrap from the base round the frame are
    compared too (noct-1000's frame holds 100 windows)."""
    positions, r = layout
    deepest = data.draw(st.sampled_from([6, 200]))
    depths = {n: data.draw(st.integers(0, deepest)) for n in sorted(positions)}
    active_us = data.draw(st.sampled_from([1, 7, ACTIVE]))
    windows = data.draw(st.one_of(st.integers(1, 8), st.integers(1, 200)))
    frame_us = windows * active_us + data.draw(st.integers(0, active_us - 1))
    nbrs = NeighbourIndex(positions, r, RadioEnergyParams().d0).neighbours
    assert_schedules_match_reference(nbrs, depths, frame_us, active_us)


def test_build_schedules_wraps_past_bit_64():
    """Three coincident nodes whose base is the last of 100 windows: the first
    takes it, the next two wrap round the frame to windows 0 and 1."""
    positions = {1: (0.0, 0.0), 2: (0.0, 0.0), 3: (0.0, 0.0), 4: (1000.0, 0.0)}
    depths = {1: 0, 2: 0, 3: 0, 4: 99}
    nbrs = neighbours(positions)
    got = build_schedules(nbrs, depths, 100 * ACTIVE, ACTIVE)
    assert [got[n].wake_offset_us // ACTIVE for n in (1, 2, 3, 4)] == [99, 0, 1, 0]
    assert_schedules_match_reference(nbrs, depths, 100 * ACTIVE, ACTIVE)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_schedules_match_two_hop_scan(workload):
    """Each benchmark workload's field, depths and frame, as its Simulator set them up."""
    sim = Simulator(parse_config(scenario_json(workload, 0)), RUN_SEED)
    depths = {nid: node.depth for nid, node in sim.nodes.items()}
    assert_schedules_match_reference(sim.index.neighbours, depths, sim.frame_us, sim.active_us)


def test_compose_superframe_layout():
    elected = ElectedList(helpers=(2, 3))
    sf = compose_superframe(elected, packet_count=3, now_us=1_000, slot_us=20_000, frame_us=FRAME)
    # the control slot is [1_000, 21_000); the rendezvous slots follow it
    assert sf.rdv_slots() == [(21_000, 41_000), (41_000, 61_000), (61_000, 81_000)]
    assert not sf.continued
    assert sf.helpers == (2, 3) and sf.leader == 2


def test_compose_superframe_continued_flag():
    elected = ElectedList(helpers=(2,))
    sf = compose_superframe(elected, packet_count=10, now_us=0, slot_us=20_000, frame_us=FRAME)
    assert sf.continued
    assert sf.rdv_slots() == [(20_000 * (i + 1), 20_000 * (i + 2)) for i in range(10)]
    # four packets fill a frame exactly, so the superframe does not continue
    assert not compose_superframe(elected, packet_count=4,
                                  now_us=0, slot_us=20_000, frame_us=FRAME).continued


def test_superframe_carries_at_least_one_packet():
    with pytest.raises(ValueError):
        Superframe(origin_us=0, slot_us=20_000, packet_count=0)


def test_reserve_rejects_overlap():
    st_ = MacState(node=1)
    assert reserve(st_, 100, 200)
    assert not reserve(st_, 150, 250)
    assert not reserve(st_, 0, 101)
    assert reserve(st_, 200, 300)  # back to back is fine


def test_reserve_noct():
    st_ = MacState(node=1)
    assert reserve_noct(st_, 1_000, 500)
    assert not reserve_noct(st_, 1_200, 100)
    assert st_.reservations[0] == (1_000, 1_500)


def test_on_superframe_participant_reserves_and_leader_acks():
    elected = ElectedList(helpers=(2, 3))
    sf = compose_superframe(elected, packet_count=2, now_us=0, slot_us=20_000, frame_us=FRAME)
    leader = MacState(node=2)
    accepted, is_leader = on_superframe(leader, sf)
    assert is_leader
    assert accepted == [True, True]
    assert len(leader.reservations) == 2
    helper = MacState(node=3)
    accepted, is_leader = on_superframe(helper, sf)
    assert not is_leader
    assert accepted == [True, True]
    assert len(helper.reservations) == 2
    # a slot that overlaps an earlier booking is rejected and reported so;
    # the other slot is still booked
    busy = MacState(node=3, reservations=[(25_000, 30_000)])
    accepted, _ = on_superframe(busy, sf)
    assert accepted == [False, True]
    assert busy.reservations == [(25_000, 30_000), (40_000, 60_000)]


def test_step_known_transitions():
    """Each event a node sends sets the reply it awaits, any other event
    clears it, and every step starts a strictly later timer token."""
    s = MacState(node=1)
    assert s.awaiting is None
    tokens = [s.timer_token]
    for t, (event, awaited) in enumerate([
            ("sf_announce", "ct_ack"), ("ct_ack", None),
            ("noct_request", "noct_reply"), ("noct_reply", None),
            ("noct_data", "data_ack"), ("data_ack", None),
            # a later send replaces the awaited reply
            ("noct_request", "noct_reply"), ("noct_data", "data_ack")]):
        tokens.append(step(s, event, 10 * t))
        assert s.awaiting == awaited, event
        assert s.timer_token == tokens[-1] > tokens[-2]


def test_step_timeouts_return_to_idle_listening():
    """A timeout leaves the node awaiting nothing, whatever it awaited."""
    for event in _AWAITS:
        s = MacState(node=1)
        step(s, event, 5)
        step(s, "timeout", 5)
        assert s.awaiting is None


def test_step_unknown_combo_is_recorded_noop():
    """A reply that nothing awaits leaves the node awaiting nothing; the
    event's time is recorded and a token started all the same."""
    s = MacState(node=1)
    assert step(s, "ct_ack", 5) == 1
    assert s.awaiting is None
    assert s.last_event_us == 5


def test_step_rejects_time_regression():
    s = MacState(node=1)
    step(s, "noct_request", 100)
    with pytest.raises(ValueError):
        step(s, "noct_reply", 99)
    assert (s.awaiting, s.timer_token, s.last_event_us) == ("noct_reply", 1, 100)


@given(st.lists(st.sampled_from([*_AWAITS, *_AWAITS.values(), "timeout", "wake"]),
                max_size=40))
def test_step_total_over_event_sequences(events):
    """After any event sequence the node awaits the reply to its last event,
    if that was a send, under a token that counts the steps."""
    s = MacState(node=1)
    for t, ev in enumerate(events):
        assert step(s, ev, t) == t + 1 == s.timer_token
        assert s.awaiting == _AWAITS.get(ev)


@given(frame=st.integers(1, 40), data=st.data())
def test_schedule_matches_microsecond_scan(frame, data):
    """is_awake, next_wake and awake_time against a scan of every microsecond
    of small frames: any offset, any active width, wrapping windows and
    spans of any phase and length."""
    active = data.draw(st.integers(1, frame))
    offset = data.draw(st.integers(0, frame - 1))
    s = DutySchedule(frame, active, offset)
    window = {(offset + k) % frame for k in range(active)}  # phases inside the window
    awake = [t % frame in window for t in range(5 * frame)]
    assert [s.is_awake(t) for t in range(5 * frame)] == awake
    t0 = data.draw(st.integers(0, 2 * frame))
    t1 = data.draw(st.integers(0, 5 * frame))
    assert s.awake_time(t0, t1) == sum(awake[t0:t1])
    assert s.next_wake(t0) == next(t for t in range(t0, 5 * frame) if awake[t])
