import pytest
from hypothesis import example, given, strategies as st

from oscmac.config import ConfigError
from oscmac.channel import NeighbourIndex
from oscmac.mac import (DutySchedule, MacState, Phase, Superframe,
                        build_schedules, compose_superframe, on_superframe, reserve, reserve_noct, step, two_hop_sets)
from oscmac.selection import ElectedList

FRAME = 100_000
ACTIVE = 10_000


def neighbours(positions, base_range=90.0):
    return NeighbourIndex(positions, base_range).neighbours


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


def test_compose_superframe_layout():
    elected = ElectedList(helpers=(2, 3), leader=2)
    sf = compose_superframe(1, elected, 0, packet_count=3,
                            now_us=1_000, slot_us=20_000, frame_us=FRAME)
    # the control slot is [1_000, 21_000); the rendezvous slots follow it
    assert sf.rdv_slots() == [(21_000, 41_000), (41_000, 61_000), (61_000, 81_000)]
    assert sf.participants == (1, 2, 3, 0)
    assert not sf.continued
    assert sf.helpers == (2, 3) and sf.leader == 2


def test_compose_superframe_continued_flag():
    elected = ElectedList(helpers=(2,), leader=2)
    sf = compose_superframe(1, elected, 0, packet_count=10,
                            now_us=0, slot_us=20_000, frame_us=FRAME)
    assert sf.continued
    assert sf.rdv_slots() == [(20_000 * (i + 1), 20_000 * (i + 2)) for i in range(10)]
    assert sf.participants == (1, 2, 0)
    # four packets fill a frame exactly, so the superframe does not continue
    assert not compose_superframe(1, elected, 0, packet_count=4,
                                  now_us=0, slot_us=20_000, frame_us=FRAME).continued


def test_superframe_carries_at_least_one_packet():
    with pytest.raises(ValueError):
        Superframe(origin_us=0, slot_us=20_000, packet_count=0, participants=(1, 2, 0))


def test_reserve_rejects_overlap():
    st_ = MacState(node=1)
    assert reserve(st_, 100, 200, rdv_id=1)
    assert not reserve(st_, 150, 250, rdv_id=2)
    assert not reserve(st_, 0, 101, rdv_id=3)
    assert reserve(st_, 200, 300, rdv_id=4)  # back to back is fine


def test_reserve_noct():
    st_ = MacState(node=1)
    assert reserve_noct(st_, 1_000, 500, rdv_id=7)
    assert not reserve_noct(st_, 1_200, 100, rdv_id=8)
    assert st_.reservations[0] == (1_000, 1_500, 7)


def test_on_superframe_participant_reserves_and_leader_acks():
    elected = ElectedList(helpers=(2, 3), leader=2)
    sf = compose_superframe(1, elected, 0, packet_count=2,
                            now_us=0, slot_us=20_000, frame_us=FRAME)
    leader = MacState(node=2)
    accepted, is_leader = on_superframe(leader, sf, rdv_id=9)
    assert is_leader
    assert accepted == [True, True]
    assert len(leader.reservations) == 2
    helper = MacState(node=3)
    accepted, is_leader = on_superframe(helper, sf, rdv_id=9)
    assert not is_leader
    assert accepted == [True, True]
    assert len(helper.reservations) == 2
    outsider = MacState(node=42)
    accepted, is_leader = on_superframe(outsider, sf, rdv_id=9)
    assert not is_leader
    assert accepted == []
    assert outsider.reservations == []
    # a slot that overlaps an earlier booking is rejected and reported so;
    # the other slot is still booked
    busy = MacState(node=3, reservations=[(25_000, 30_000, 1)])
    accepted, _ = on_superframe(busy, sf, rdv_id=9)
    assert accepted == [False, True]
    assert busy.reservations == [(25_000, 30_000, 1), (40_000, 60_000, 9)]


def test_step_known_transitions():
    s = MacState(node=1)
    assert s.phase is Phase.IDLE_LISTENING
    # the cooperative path
    assert step(s, "ct_query", 10) is Phase.AWAITING_CANDIDATES
    assert step(s, "candidate_reply", 15) is Phase.IDLE_LISTENING
    assert step(s, "sf_announce", 20) is Phase.AWAITING_CT_ACK
    assert step(s, "ct_ack", 25) is Phase.IDLE_LISTENING
    assert step(s, "slot_start", 30) is Phase.CT_BROADCAST
    assert step(s, "coop_done", 40) is Phase.IDLE_LISTENING
    # the no-CT handshake, then the data and its ack
    assert step(s, "noct_request", 50) is Phase.AWAITING_NOCT_REPLY
    assert step(s, "noct_reply", 55) is Phase.IDLE_LISTENING
    assert step(s, "noct_data", 60) is Phase.AWAITING_NOCT_REPLY
    assert step(s, "data_ack", 65) is Phase.IDLE_LISTENING
    assert s.phase is Phase.IDLE_LISTENING


def test_step_timeouts_return_to_idle_listening():
    for waiting in (Phase.AWAITING_NOCT_REPLY, Phase.AWAITING_CT_ACK):
        s = MacState(node=1, phase=waiting)
        assert step(s, "timeout", 5) is Phase.IDLE_LISTENING


def test_step_unknown_combo_is_recorded_noop():
    s = MacState(node=1)
    assert step(s, "ct_ack", 5) is Phase.IDLE_LISTENING
    assert s.last_event_us == 5  # the event's time is recorded all the same


def test_step_rejects_time_regression():
    s = MacState(node=1)
    step(s, "ct_query", 100)
    with pytest.raises(ValueError):
        step(s, "candidate_reply", 99)


@given(st.lists(st.sampled_from(["ct_query", "candidate_reply", "sf_announce", "ct_ack",
                                 "timeout", "slot_start", "coop_done", "noct_request",
                                 "noct_reply", "noct_data", "data_ack", "wake"]),
                max_size=40))
def test_step_total_over_event_sequences(events):
    """Any event sequence leaves the machine in a defined phase."""
    s = MacState(node=1)
    for t, ev in enumerate(events):
        assert step(s, ev, t) is s.phase
        assert isinstance(s.phase, Phase)


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
