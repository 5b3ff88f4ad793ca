"""Unit-disk radio reach, cooperative range extension, and collisions.

A single transmitter reaches everything within ``base_range`` (closed
disk). A cooperative group of k simultaneous senders closes a link when
the non-coherent power sum of k equal transmitters meets the single-link
threshold: sum_i (base_range / d_i)^alpha >= 1, with alpha picked per
the farthest sender against the amplifier crossover distance.

Node positions never change. They live in one map, node id -> (x, y), held
by ``NeighbourIndex`` and read for senders (named by id) and receivers alike.
The index buckets positions into square cells of side ``base_range`` (a cell
list) and computes who can hear whom once, testing only the nodes in the
cells that a base-range disk overlaps.

A group of k senders reaches, with no power sum, the union of its
senders' ``neighbours`` rows: one sender within R closes the link. Of the
other nodes it reaches none farther than ``ct_prune_radius`` from every
sender, so ``ct_reach`` tests only those in the cells that a disk of that
radius around some sender overlaps. Both are exact. Past the radius
rho = max(R*k^(1/4), min(R*sqrt(k), d0)) every d_i > R; if the farthest
d_i >= d0, alpha = 4 and each (R/d_i)^4 < 1/k; else alpha = 2 needs every
d_i < d0, so rho >= R*sqrt(k) and each (R/d_i)^2 < 1/k. Either way the sum
is below 1; the relative margin of 1e-9 dwarfs the float rounding of the
distances and of the sum. The neighbour table and ``ct_reach`` compute the
same float, ``math.dist``, which equals ``math.hypot`` of the differences.

Reach depends only on positions, and collision only on time, as in Gupta
and Kumar's protocol model. ``NeighbourIndex.audience`` decides reach: it
names exactly the nodes a transmission reaches. The engine keeps as its
listeners those that are alive and awake as it starts (the MAC picks who
listens), and ``collide`` decides collisions, the one place that does: a
listener loses exactly those transmissions it hears that overlap in time
another one it hears, and decodes the rest. Two intervals overlap exactly
when one starts while the other is on the air, so each start is checked
against what the listener still hears, and a reception's fate is known by
its end. The cooperative senders of one transmission are one signal.
"""

import math
from collections import defaultdict
from dataclasses import dataclass


distance = math.dist


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
    dists = [distance(s, receiver_pos) for s in sender_positions]
    # any sender inside the base range closes the link on its own; this
    # also keeps tiny distances from overflowing the power terms
    if min(dists) <= base_range:
        return True
    alpha = 4 if max(dists) >= d0 else 2
    return sum((base_range / d) ** alpha for d in dists) >= 1.0


def ct_prune_radius(base_range: float, k: int, d0: float) -> float:
    """Distance beyond which k cooperating senders reach no receiver (proof above)."""
    return max(base_range * k ** 0.25, min(base_range * math.sqrt(k), d0)) * (1 + 1e-9)


class NeighbourIndex:
    """Cell list over fixed node positions; the one place reach is decided.

    ``neighbours[i]`` is the ascending tuple of the other ids within
    ``base_range`` of node i, by exactly ``in_reach``'s predicate, which
    is symmetric. ``audience`` names who a transmission reaches, and keeps
    its answer for each cooperative sender group.
    """

    def __init__(self, positions, base_range: float, d0: float):
        self.positions = positions
        self.side = base_range
        self.d0 = d0
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
        self._group_reach = {}  # cooperative sender_ids -> audience's answer

    def _span(self, v, radius):
        """Cell indices along one axis that a disk of ``radius`` at v overlaps.

        The margin covers the rounding of v - radius, so no node whose
        computed distance is within ``radius`` falls outside the span.
        """
        margin = radius + 1e-9 * (radius + abs(v))
        side = self.side
        return range(math.floor((v - margin) / side), math.floor((v + margin) / side) + 1)

    def audience(self, air):
        """Ascending ids, other than its senders, that ``air`` reaches.

        A lone sender reaches its neighbours, and a cooperative group the
        union of its senders' neighbours, plus the other nodes that
        ``ct_reach`` admits, at their indexed positions, among those in the
        cells that ``ct_prune_radius`` around some sender overlaps.
        """
        if not air.cooperative:
            return self.neighbours[air.sender_ids[0]]
        group = air.sender_ids
        if group not in self._group_reach:
            senders = [self.positions[nid] for nid in group]
            near = set(group).union(*(self.neighbours[nid] for nid in group))
            radius = ct_prune_radius(self.side, len(group), self.d0)
            cells = {(cx, cy) for x, y in senders
                     for cx in self._span(x, radius) for cy in self._span(y, radius)}
            far = {nid for cell in cells for nid in self._cells.get(cell, ()) if nid not in near
                   and ct_reach(senders, self.positions[nid], self.side, self.d0)}
            self._group_reach[group] = tuple(sorted(near.difference(group).union(far)))
        return self._group_reach[group]


@dataclass(eq=False)
class AirTransmission:
    """One on-air transmission as seen by the channel.

    All senders of one rendezvous transmit the identical packet in
    ``sync`` and count as a single signal; ``cooperative`` selects the
    power-sum reach rule. Transmissions compare by identity.
    """

    rdv_id: int
    sender_ids: tuple
    addressed_to: tuple              # node ids meant to decode
    cooperative: bool = False
    start_us: int = 0
    end_us: int = 0


def collide(heard, air):
    """Decide collisions at a listener as ``air`` starts reaching it.

    ``heard`` lists, in start order, what the listener hears, and ``air``
    starts no earlier. What has ended by then (``end_us`` at or before
    ``air.start_us``) leaves the list, and ``air`` joins it. Returns what
    is lost at this listener: nothing if nothing else is on the air, else
    every transmission on the list, ``air`` last.
    """
    heard[:] = [t for t in heard if t.end_us > air.start_us]
    heard.append(air)
    return heard[:] if len(heard) > 1 else []
