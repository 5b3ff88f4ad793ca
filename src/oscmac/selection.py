"""Base-station helper selection for cooperative transmission.

The metering station keeps an always-current registry of node energies.
When a transmitter asks for cooperation it runs two stages: an energy
threshold filter over the neighbour list, then an election keeping only
nodes whose residual covers the whole N-packet cooperative burst. The
elected helper with the highest energy is the leader.
"""

from dataclasses import dataclass, field

from .energy import RadioEnergyParams, tx_energy


@dataclass(frozen=True)
class CtRequest:
    """Cooperation request sent by a transmitter to the station."""

    requester: int
    packet_size_bytes: int    # S, octets per packet
    packet_count: int         # N, packets in the burst
    next_hop_distance: float  # D, metres to the next hop
    neighbor_ids: tuple

    def __post_init__(self):
        if self.packet_size_bytes <= 0:
            raise ValueError("packet_size_bytes must be positive")
        if self.packet_count <= 0:
            raise ValueError("packet_count must be positive")
        if self.next_hop_distance < 0:
            raise ValueError("next_hop_distance must be non-negative")


@dataclass(frozen=True)
class CandidateRecord:
    """One neighbour as seen by the station's energy registry."""

    node: int
    energy: float                 # residual energy, J
    per_packet_tx_energy: float   # cost to transmit one packet in the CT phase, J
    distance_to_requester: float

    def __post_init__(self):
        if self.energy < 0:
            raise ValueError("candidate energy must be non-negative")
        if self.per_packet_tx_energy <= 0:
            raise ValueError("per_packet_tx_energy must be positive")


@dataclass(frozen=True)
class ElectedList:
    """Election result: helpers ordered by descending energy, plus the leader."""

    helpers: tuple = ()
    leader: int = None  # type: ignore[assignment]

    def __post_init__(self):
        if len(set(self.helpers)) != len(self.helpers):
            raise ValueError("helpers must not contain duplicates")
        if self.helpers and self.leader not in self.helpers:
            raise ValueError("leader must be one of the helpers")
        if not self.helpers and self.leader is not None:
            raise ValueError("empty election carries no leader")


def _check_sorted(candidates) -> None:
    for a, b in zip(candidates, candidates[1:]):
        if a.energy < b.energy:
            raise ValueError("candidate list must be sorted by descending energy")


def filter_candidates(neighbors, request: CtRequest, params: RadioEnergyParams):
    """Keep neighbours whose energy covers one packet at the hop distance.

    Threshold: e_elec*S_bits + e_fs*S_bits*D^2 with S_bits = 8*S. The
    free-space coefficient is used regardless of D (the filter is a
    coarse screen; actual transmissions use the two-regime model).
    Input must already be sorted by descending energy.
    """
    _check_sorted(neighbors)
    s_bits = 8 * request.packet_size_bytes
    d = request.next_hop_distance
    threshold = params.e_elec * s_bits + params.e_fs * s_bits * d * d
    return [c for c in neighbors if c.energy >= threshold]


def leader_helper(elected) -> int:
    """Id of the highest-energy candidate; ties go to the smallest id."""
    if not elected:
        raise ValueError("cannot pick a leader from an empty list")
    best = max(elected, key=lambda c: (c.energy, -c.node))
    return best.node


def elect_helpers(candidates, packet_count: int) -> ElectedList:
    """Keep candidates that can afford the whole N-packet burst.

    A candidate is elected iff energy / (N * per_packet_tx_energy) >= 1,
    boundary inclusive. Order is preserved (descending energy).
    """
    if packet_count < 1:
        raise ValueError("packet_count must be at least 1")
    chosen = [c for c in candidates
              if c.energy / (packet_count * c.per_packet_tx_energy) >= 1.0]
    if not chosen:
        return ElectedList(helpers=(), leader=None)
    return ElectedList(helpers=tuple(c.node for c in chosen),
                       leader=leader_helper(chosen))


@dataclass
class WiLemStation:
    """Idealized energy-metering station.

    The registry mirrors every node's residual energy losslessly and
    instantly; positions are known so candidate distances can be
    derived. The station itself has no power budget.
    """

    positions: dict = field(default_factory=dict)   # node id -> (x, y)
    registry: dict = field(default_factory=dict)    # node id -> residual J

    def update_energy(self, node: int, residual: float) -> None:
        self.registry[node] = residual

    def handle_ct_request(self, request: CtRequest, params: RadioEnergyParams):
        """Filter then elect; returns (ElectedList, skipped ids).

        Neighbours missing from the registry are skipped (the station
        cannot rank what it cannot measure). Helpers are assumed to
        transmit over the requester's hop distance in the CT phase, so
        every candidate shares the same per-packet cost.
        """
        s_bits = 8 * request.packet_size_bytes
        per_packet = tx_energy(s_bits, request.next_hop_distance, params)
        skipped = []
        candidates = []
        rx, ry = self.positions[request.requester]
        for nid in request.neighbor_ids:
            if nid not in self.registry or nid not in self.positions:
                skipped.append(nid)
                continue
            x, y = self.positions[nid]
            candidates.append(CandidateRecord(
                node=nid,
                energy=self.registry[nid],
                per_packet_tx_energy=per_packet,
                distance_to_requester=((x - rx) ** 2 + (y - ry) ** 2) ** 0.5,
            ))
        # station sorts by descending energy, ties by id, before filtering
        candidates.sort(key=lambda c: (-c.energy, c.node))
        filtered = filter_candidates(candidates, request, params)
        return elect_helpers(filtered, request.packet_count), skipped
