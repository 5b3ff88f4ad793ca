"""Duty-cycle schedules, superframes, reservations, and what a node awaits.

Schedules are pipelined (a node wakes one active window after its
downstream hop) and orthogonal: a node takes no slot held in its closed
neighbourhood (itself and its neighbours) or by a neighbour of one of those,
which for a symmetric neighbour relation is no slot held within two hops.
Nodes on one slot share one schedule. Time is integer microseconds throughout.

The MAC picks who listens: ``MacState`` answers when its node listens, on
its duty schedule or in a reservation (``is_awake`` at an instant,
``awake_us`` over an interval), and the channel decides what each listener
hears (the neighbour index who a transmission reaches, ``collide`` which
of those it loses to an overlapping transmission). In either handshake a
node awaits at most one reply under one timeout, as an IEEE 802.15.4 ack wait
does: ``awaiting`` names that reply (None: the node awaits nothing) and
``timer_token`` its live timer. Only ``step`` writes them: the engine reports
each protocol event of a node there, and a timer whose token is no longer the
node's is stale.
"""

from dataclasses import dataclass, field

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


def two_hop_sets(neighbours):
    """Node id -> set of ids within two hops (excluding self), given each
    node's one-hop ``neighbours`` (as ``channel.NeighbourIndex`` finds them)."""
    return {i: set(neighbours[i]).union(*[neighbours[j] for j in neighbours[i]]) - {i}
            for i in sorted(neighbours)}


def _lowest_clear(mask, start):
    """The lowest bit index at or after ``start`` that ``mask`` leaves clear."""
    free = ~mask >> start
    return start + (free & -free).bit_length() - 1


def build_schedules(neighbours, depths, frame_us, active_us):
    """Assign pipelined, orthogonal wake offsets.

    Base offset is (max_depth - depth) active windows, so a packet can
    descend one hop per window. Deepest first (ties by id), each node takes
    the first slot from its base on, wrapping round the frame, that none
    within two hops holds. ``held[j]`` is a bitmask of the slots of ``j``
    and its neighbours (bit s for slot s); their OR over the node's closed
    neighbourhood is the taken set, exact for a symmetric relation such as
    ``channel.NeighbourIndex`` builds, and the slot is its lowest clear bit
    at or after the base, else its lowest clear bit below the base. One
    slot's nodes share one ``DutySchedule``. Running out of window slots in
    a neighbourhood, or an active window outside (0, frame], is a
    ``ConfigError`` naming ``mac.active_ms``; a frame of 0 us names
    ``mac.frame_ms``.
    """
    if frame_us <= 0:
        raise ConfigError(f"mac.frame_ms gives a frame of {frame_us} us, not a positive one")
    if not 0 < active_us <= frame_us:
        raise ConfigError(f"mac.active_ms gives an active window of {active_us} us, "
                          f"outside (0, {frame_us}] us")
    slots_avail = frame_us // active_us
    max_depth = max(depths.values()) if depths else 0
    held, assigned = dict.fromkeys(neighbours, 0), {}  # held: node -> slots on it or a neighbour
    for node in sorted(depths, key=lambda n: (-depths[n], n)):
        closed = (node, *neighbours[node])
        taken = 0
        for j in closed:
            taken |= held[j]
        base = (max_depth - depths[node]) % slots_avail
        slot = _lowest_clear(taken, base)
        if slot >= slots_avail and (slot := _lowest_clear(taken, 0)) >= base:
            raise ConfigError(
                f"mac.active_ms: a frame of {slots_avail} windows cannot orthogonalize the 2-hop "
                f"neighbourhood of node {node} ({len(two_hop_sets(neighbours)[node])} other nodes)")
        assigned[node] = slot
        bit = 1 << slot
        for j in closed:
            held[j] |= bit
    shared = {s: DutySchedule(frame_us, active_us, s * active_us) for s in set(assigned.values())}
    return {n: shared[s] for n, s in assigned.items()}


# ---------------------------------------------------------------------------
# packets and superframes


@dataclass(frozen=True)
class Packet:
    seq: int
    size_bits: int
    source: int
    kind: str  # data, superframe, ct_ack, noct_request, noct_reply, data_ack

    def __post_init__(self):
        if self.size_bits <= 0:
            raise ValueError("size_bits must be positive")


@dataclass(frozen=True)
class Superframe:
    """One control slot at ``origin_us``, then one rendezvous slot per
    packet, back to back, each ``slot_us`` long."""
    origin_us: int
    slot_us: int
    packet_count: int
    helpers: tuple = ()
    continued: bool = False          # rendezvous slots spill past one frame

    def __post_init__(self):
        if self.packet_count < 1:
            raise ValueError("a superframe carries at least one packet")

    @property
    def leader(self):
        """The first helper, the one that answers with a ct_ack."""
        return self.helpers[0] if self.helpers else None

    def rdv_slots(self):
        """(start_us, end_us) of each rendezvous slot, in order."""
        first = self.origin_us + self.slot_us
        return [(first + i * self.slot_us, first + (i + 1) * self.slot_us)
                for i in range(self.packet_count)]


def compose_superframe(elected, packet_count, now_us, slot_us, frame_us):
    """One control slot, then one CT rendezvous slot per pending packet.

    If they do not fit in a single frame the superframe simply continues
    into the next ones and is flagged ``continued``.
    """
    return Superframe(origin_us=now_us, slot_us=slot_us, packet_count=packet_count,
                      helpers=elected.helpers, continued=(packet_count + 1) * slot_us > frame_us)


# ---------------------------------------------------------------------------
# when a node listens and what it awaits


@dataclass
class MacState:
    node: int
    schedule: DutySchedule = None  # type: ignore[assignment]
    awaiting: str = None  # type: ignore[assignment]  # the awaited reply's kind, if any
    pending_packets: list = field(default_factory=list)
    reservations: list = field(default_factory=list)  # disjoint (start_us, end_us)
    timer_token: int = 0
    last_event_us: int = 0

    def is_awake(self, t_us: int) -> bool:
        """Whether the radio listens at ``t_us``: on schedule or reserved."""
        if self.schedule.is_awake(t_us):
            return True
        for s, e in self.reservations:
            if s <= t_us < e:
                return True
        return False

    def awake_us(self, t0_us: int, t1_us: int) -> int:
        """Microseconds awake within [t0, t1): the schedule's, plus the part of
        each reservation it leaves asleep (``reserve`` keeps them disjoint)."""
        awake_time = self.schedule.awake_time
        awake = awake_time(t0_us, t1_us)
        for s, e in self.reservations:
            if s < t1_us and e > t0_us:
                s, e = max(s, t0_us), min(e, t1_us)
                awake += (e - s) - awake_time(s, e)
        return awake

    def expire(self, now_us: int):
        """Drop the reservations that ended by ``now_us``."""
        for _, e in self.reservations:
            if e <= now_us:  # rebuild only when one has ended
                self.reservations = [r for r in self.reservations if r[1] > now_us]
                return


def reserve(state: MacState, start_us: int, end_us: int) -> bool:
    """Book an interval iff it overlaps no existing reservation."""
    for s, e in state.reservations:
        if start_us < e and s < end_us:
            return False
    state.reservations.append((start_us, end_us))
    return True


def reserve_noct(receiver: MacState, start_us: int, duration_us: int) -> bool:
    """Next-hop side of the no-CT handshake: accept iff the interval is free."""
    return reserve(receiver, start_us, start_us + duration_us)


def on_superframe(state: MacState, sf: Superframe):
    """Helper/next-hop reaction to a superframe announcement.

    The engine hands a superframe only to its addressees (the helpers, and
    the next hop when it decodes the announce or the relay). Each tries to
    book a wake-up covering every rendezvous slot (temporary synchrony);
    exactly the leader answers with a ct_ack. Returns the ``reserve`` result
    of each rendezvous slot, in slot order, and whether this node is the leader.
    """
    accepted = [reserve(state, start, end) for start, end in sf.rdv_slots()]
    return accepted, state.node == sf.leader


# event a node sends -> the reply it then awaits; any other event (a reply,
# a timeout) leaves it awaiting nothing
_AWAITS = {"sf_announce": "ct_ack", "noct_request": "noct_reply", "noct_data": "data_ack"}


def step(state: MacState, event_kind: str, t_us: int) -> int:
    """Apply one protocol event at ``t_us``: set the awaited reply and
    start a new timer token, which is returned."""
    if t_us < state.last_event_us:
        raise ValueError("events must arrive in non-decreasing time order")
    state.last_event_us = t_us
    state.awaiting = _AWAITS.get(event_kind)
    state.timer_token += 1
    return state.timer_token
