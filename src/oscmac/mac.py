"""Duty-cycle schedules, superframes, reservations, and the node state machine.

Schedules are pipelined (a node wakes one active window after its
downstream hop) and orthogonalized (nodes within two hops never share a
wake window unless they are the same pipeline stage out of interference
range). Time is integer microseconds throughout.

The MAC picks who listens: schedules and reservations say when a node
is awake, and the channel (``channel.resolve_slot``) decides what each
listener hears. A node's protocol phase changes only through ``step``:
the engine reports each protocol event of a node there and never sets a
phase itself.
"""

from dataclasses import dataclass, field
from enum import Enum

from .channel import NeighbourIndex
from .config import ConfigError

# ---------------------------------------------------------------------------
# duty-cycle schedules


@dataclass(frozen=True)
class DutySchedule:
    frame_us: int
    active_us: int
    wake_offset_us: int

    def __post_init__(self):
        if not 0 < self.active_us <= self.frame_us:
            raise ValueError("active window must lie in (0, frame]")
        if not 0 <= self.wake_offset_us < self.frame_us:
            raise ValueError("wake offset must lie in [0, frame)")

    def is_awake(self, t_us: int) -> bool:
        return (t_us - self.wake_offset_us) % self.frame_us < self.active_us

    def next_wake(self, t_us: int) -> int:
        """Earliest time >= t_us inside a wake window."""
        r = (t_us - self.wake_offset_us) % self.frame_us  # time since the last wake-up
        return t_us if r < self.active_us else t_us - r + self.frame_us

    def awake_time(self, t0_us: int, t1_us: int) -> int:
        """Total scheduled-awake microseconds within [t0, t1): one active
        window per whole frame, plus the partial frame [r, r + rest) (in time
        since t0's last wake-up) met by windows [0, active) and [frame, ...)."""
        if t1_us <= t0_us:
            return 0
        frame, active = self.frame_us, self.active_us
        frames, rest = divmod(t1_us - t0_us, frame)
        total = frames * active
        r = (t0_us - self.wake_offset_us) % frame
        if r < active:
            total += min(active, r + rest) - r
        if r + rest > frame:
            total += min(active, r + rest - frame)
        return total


def two_hop_sets(positions, base_range):
    """Node id -> set of ids within two unit-disk hops (excluding self)."""
    adj = NeighbourIndex(positions, base_range).neighbours
    two = {}
    for i in sorted(positions):
        reach = set(adj[i])
        for j in adj[i]:
            reach.update(adj[j])
        reach.discard(i)
        two[i] = reach
    return two


def build_schedules(positions, depths, base_range, frame_us, active_us):
    """Assign pipelined, orthogonal wake offsets.

    Base offset is (max_depth - depth) active windows, so a packet can
    descend one hop per window. Nodes sharing a 2-hop neighbourhood are
    pushed to later window slots until disjoint. Running out of window
    slots in a neighbourhood, or an active window outside (0, frame], is a
    ``ConfigError`` naming ``mac.active_ms``.
    """
    if not 0 < active_us <= frame_us:
        raise ConfigError(f"mac.active_ms gives an active window of {active_us} us, "
                          f"outside (0, {frame_us}] us")
    slots_avail = frame_us // active_us
    two = two_hop_sets(positions, base_range)
    max_depth = max(depths.values()) if depths else 0
    assigned = {}  # node -> slot index
    order = sorted(depths, key=lambda n: (-depths[n], n))
    for node in order:
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
    return {n: DutySchedule(frame_us, active_us, assigned[n] * active_us)
            for n in assigned}


# ---------------------------------------------------------------------------
# packets and superframes


@dataclass(frozen=True)
class Packet:
    seq: int
    size_bits: int
    source: int
    destination: int
    kind: str  # data, ct_request, candidate_reply, superframe, ct_ack,
               # noct_request, noct_reply, data_ack

    def __post_init__(self):
        if self.size_bits <= 0:
            raise ValueError("size_bits must be positive")


@dataclass(frozen=True)
class Slot:
    kind: str  # free | ct_rdv | noct_rdv | control
    start_us: int
    duration_us: int
    participants: tuple = ()

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class Superframe:
    origin_us: int
    slots: tuple
    transmitter: int = None          # type: ignore[assignment]
    helpers: tuple = ()
    leader: int = None               # type: ignore[assignment]
    next_hop: int = None             # type: ignore[assignment]
    continued: bool = False          # rendezvous slots spill past one frame

    def __post_init__(self):
        ordered = sorted(self.slots, key=lambda s: s.start_us)
        for a, b in zip(ordered, ordered[1:]):
            if a.end_us > b.start_us:
                raise ValueError("superframe slots overlap")

    def rdv_slots(self):
        return [s for s in self.slots if s.kind == "ct_rdv"]


def compose_superframe(transmitter, elected, next_hop, packet_count,
                       now_us, slot_us, frame_us):
    """One control slot, then one CT rendezvous slot per pending packet.

    Leftover frame time becomes a free slot; if the rendezvous slots do
    not fit in a single frame the superframe simply continues into the
    next ones and is flagged ``continued``.
    """
    participants = (transmitter, *elected.helpers, next_hop)
    slots = []
    if packet_count > 0:
        slots.append(Slot("control", now_us, slot_us, participants))
        for i in range(packet_count):
            slots.append(Slot("ct_rdv", now_us + (i + 1) * slot_us, slot_us, participants))
    used = (packet_count + 1) * slot_us if packet_count > 0 else 0
    continued = used > frame_us
    if used < frame_us:
        slots.append(Slot("free", now_us + used, frame_us - used))
    return Superframe(origin_us=now_us, slots=tuple(slots),
                      transmitter=transmitter, helpers=elected.helpers,
                      leader=elected.leader, next_hop=next_hop,
                      continued=continued)


# ---------------------------------------------------------------------------
# node state machine


class Phase(Enum):
    IDLE_LISTENING = "IdleListening"
    AWAITING_CANDIDATES = "AwaitingCandidates"
    AWAITING_CT_ACK = "AwaitingCtAck"
    AWAITING_NOCT_REPLY = "AwaitingNoCtReply"  # also the wait for a data ack
    CT_BROADCAST = "CtBroadcast"


@dataclass
class MacState:
    node: int
    phase: Phase = Phase.IDLE_LISTENING
    pending_packets: list = field(default_factory=list)
    reservations: list = field(default_factory=list)  # (start_us, end_us, rdv_id)
    timer_token: int = 0
    last_event_us: int = 0


def reserve(state: MacState, start_us: int, end_us: int, rdv_id: int) -> bool:
    """Book an interval iff it overlaps no existing reservation."""
    for s, e, _ in state.reservations:
        if start_us < e and s < end_us:
            return False
    state.reservations.append((start_us, end_us, rdv_id))
    return True


def reserve_noct(receiver: MacState, start_us: int, duration_us: int, rdv_id: int) -> bool:
    """Next-hop side of the no-CT handshake: accept iff the interval is free."""
    return reserve(receiver, start_us, start_us + duration_us, rdv_id)


def on_superframe(state: MacState, sf: Superframe, rdv_id: int):
    """Helper/next-hop reaction to a superframe announcement.

    Participants try to book a wake-up covering each rendezvous slot
    (temporary synchrony); exactly the leader answers with a ct_ack.
    Non-participants ignore it (the caller charges overhearing). Returns
    the ``reserve`` result of each rendezvous slot, in slot order (empty
    for a non-participant), and whether this node is the leader.
    """
    slots = sf.rdv_slots()
    if not any(state.node in s.participants for s in slots):
        return [], False
    accepted = [reserve(state, s.start_us, s.end_us, rdv_id) for s in slots]
    return accepted, state.node == sf.leader


# (phase, event) -> next phase, one row per transition the engine makes;
# any other pair leaves the phase as it is
_TRANSITIONS = {
    (Phase.IDLE_LISTENING, "ct_query"): Phase.AWAITING_CANDIDATES,
    (Phase.AWAITING_CANDIDATES, "candidate_reply"): Phase.IDLE_LISTENING,
    (Phase.IDLE_LISTENING, "sf_announce"): Phase.AWAITING_CT_ACK,
    (Phase.AWAITING_CT_ACK, "ct_ack"): Phase.IDLE_LISTENING,
    (Phase.AWAITING_CT_ACK, "timeout"): Phase.IDLE_LISTENING,
    (Phase.IDLE_LISTENING, "slot_start"): Phase.CT_BROADCAST,
    (Phase.CT_BROADCAST, "coop_done"): Phase.IDLE_LISTENING,
    (Phase.IDLE_LISTENING, "noct_request"): Phase.AWAITING_NOCT_REPLY,
    (Phase.AWAITING_NOCT_REPLY, "noct_reply"): Phase.IDLE_LISTENING,
    (Phase.AWAITING_NOCT_REPLY, "timeout"): Phase.IDLE_LISTENING,
    (Phase.IDLE_LISTENING, "noct_data"): Phase.AWAITING_NOCT_REPLY,
    (Phase.AWAITING_NOCT_REPLY, "data_ack"): Phase.IDLE_LISTENING,
}


def step(state: MacState, event_kind: str, t_us: int) -> Phase:
    """Apply one protocol event at ``t_us``; returns the new phase."""
    if t_us < state.last_event_us:
        raise ValueError("events must arrive in non-decreasing time order")
    state.last_event_us = t_us
    state.phase = _TRANSITIONS.get((state.phase, event_kind), state.phase)
    return state.phase
