"""Unit-disk radio reach, cooperative range extension, and slot resolution.

A single transmitter reaches everything within ``base_range`` (closed
disk). A cooperative group of k simultaneous senders closes a link when
the non-coherent power sum of k equal transmitters meets the single-link
threshold: sum_i (base_range / d_i)^alpha >= 1, with alpha picked per
the farthest sender against the amplifier crossover distance.

Node positions never change, so who can hear whom is computed once:
``NeighbourIndex`` buckets positions into square cells of side
``base_range`` (a cell list) and answers closed-disk radius queries by
testing only the nodes in the cells a disk overlaps.

A group of k senders cannot reach a receiver farther than
``ct_prune_radius(base_range, k) = base_range * sqrt(k) * (1 + 1e-9)``
from every sender, so resolving a cooperative transmission only needs
the nodes within that radius of some sender. The pruning is exact: with
every d_i > R*sqrt(k) and alpha in {2, 4},
sum_i (R/d_i)^alpha < k * k^(-alpha/2) <= 1, and no sender lies within
R, so ``ct_reach`` is False. The relative margin of 1e-9 dwarfs the
float rounding of the distances and of the k-term sum, which keeps the
bound on the safe side.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field


def distance(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def in_reach(sender_pos, receiver_pos, base_range: float) -> bool:
    """Closed-disk reach test for a lone transmitter."""
    return distance(sender_pos, receiver_pos) <= base_range


def ct_reach(sender_positions, receiver_pos, base_range: float, d0: float) -> bool:
    """Whether k simultaneous equal senders jointly reach the receiver.

    alpha = 4 when the farthest sender is at or beyond d0, else 2. A
    sender coincident with the receiver trivially closes the link.
    """
    if not sender_positions:
        raise ValueError("ct_reach needs at least one sender")
    dists = [distance(p, receiver_pos) for p in sender_positions]
    # any sender inside the base range closes the link on its own; this
    # also keeps tiny distances from overflowing the power terms
    if any(d <= base_range for d in dists):
        return True
    alpha = 4 if max(dists) >= d0 else 2
    return sum((base_range / d) ** alpha for d in dists) >= 1.0


def ct_prune_radius(base_range: float, k: int) -> float:
    """Distance beyond which k cooperating senders reach no receiver."""
    return base_range * math.sqrt(k) * (1 + 1e-9)


class NeighbourIndex:
    """Cell list over fixed node positions.

    ``neighbours[i]`` is the ascending tuple of the other ids within
    ``base_range`` of node i, by exactly ``in_reach``'s predicate, which
    is symmetric. ``within`` answers closed-disk queries of any radius.
    """

    def __init__(self, positions, base_range: float):
        self.positions = positions
        self.side = base_range
        cells = self._cells = defaultdict(list)
        for nid, (x, y) in positions.items():
            cells[math.floor(x / base_range), math.floor(y / base_range)].append(nid)
        near = {nid: [] for nid in positions}
        for i, pos in positions.items():
            ys = self._span(pos[1], base_range)
            for cx in self._span(pos[0], base_range):
                for cy in ys:
                    for j in cells.get((cx, cy), ()):
                        # each pair is tested once, from its smaller id
                        if j > i and distance(pos, positions[j]) <= base_range:
                            near[i].append(j)
                            near[j].append(i)
        self.neighbours = {nid: tuple(sorted(ids)) for nid, ids in near.items()}

    def _span(self, v, radius):
        """Cell indices along one axis that a disk of ``radius`` at v overlaps.

        The margin covers the rounding of v - radius, so no node whose
        computed distance is within ``radius`` falls outside the span.
        """
        margin = radius + 1e-9 * (radius + abs(v))
        side = self.side
        return range(math.floor((v - margin) / side), math.floor((v + margin) / side) + 1)

    def within(self, points, radius: float):
        """Ascending ids within ``radius`` (closed) of any of ``points``."""
        cells = {(cx, cy) for x, y in points
                 for cx in self._span(x, radius) for cy in self._span(y, radius)}
        found = []
        for cell in cells:
            for nid in self._cells.get(cell, ()):
                pos = self.positions[nid]
                for p in points:
                    if distance(p, pos) <= radius:
                        found.append(nid)
                        break
        found.sort()
        return found


@dataclass(frozen=True)
class AirTransmission:
    """One on-air transmission as seen by the channel.

    All senders of one rendezvous transmit the identical packet in
    ``sync`` and count as a single signal; ``cooperative`` selects the
    power-sum reach rule.
    """

    rdv_id: int
    sender_positions: tuple          # ((x, y), ...)
    sender_ids: tuple
    addressed_to: tuple              # node ids meant to decode
    cooperative: bool = False
    start_us: int = 0
    end_us: int = 0


@dataclass
class SlotOutcome:
    """Per-receiver result of resolving overlapping transmissions."""

    decoded: AirTransmission = None  # type: ignore[assignment]
    collision: bool = False
    audible: list = field(default_factory=list)

    @property
    def overheard(self) -> bool:
        return self.decoded is not None and not self.collision


def audible_to(txn: AirTransmission, receiver_pos, base_range: float, d0: float) -> bool:
    if txn.cooperative:
        return ct_reach(txn.sender_positions, receiver_pos, base_range, d0)
    return in_reach(txn.sender_positions[0], receiver_pos, base_range)


def resolve_slot(transmissions, receivers, base_range: float, d0: float):
    """Resolve concurrent transmissions at each receiver.

    ``receivers`` maps node id -> (x, y); a node that is itself a sender
    never counts as a receiver. A receiver decodes iff exactly one
    rendezvous is audible; two or more audible rendezvous corrupt
    everything at that receiver (one collision event per receiver).
    Returns node id -> SlotOutcome for receivers with audible traffic.
    """
    outcomes = {}
    for rid, pos in receivers.items():
        audible = [t for t in transmissions
                   if rid not in t.sender_ids and audible_to(t, pos, base_range, d0)]
        if not audible:
            continue
        rdvs = {t.rdv_id for t in audible}
        if len(rdvs) == 1:
            outcomes[rid] = SlotOutcome(decoded=audible[0], collision=False, audible=audible)
        else:
            outcomes[rid] = SlotOutcome(decoded=None, collision=True, audible=audible)
    return outcomes
