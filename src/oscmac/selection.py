"""Base-station helper election for cooperative transmission.

The metering station keeps an always-current registry of node energies.
When a transmitter asks for cooperation, the station reads its
neighbours' residuals from the registry and, in one pass, elects every
neighbour whose residual covers the whole N-packet cooperative burst.
"""

from dataclasses import dataclass, field

from .energy import RadioEnergyParams, tx_energy


@dataclass(frozen=True)
class CtRequest:
    """Cooperation request sent by a transmitter to the station."""

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
class ElectedList:
    """Election result: helpers ordered by descending energy."""

    helpers: tuple = ()

    def __post_init__(self):
        if len(set(self.helpers)) != len(self.helpers):
            raise ValueError("helpers must not contain duplicates")

    @property
    def leader(self):
        """The first helper, who acks for the rest; None when none is elected."""
        return self.helpers[0] if self.helpers else None


def elect_helpers(energies: dict, packet_count: int, per_packet: float) -> ElectedList:
    """Elect every node whose residual covers the whole N-packet burst.

    ``energies`` maps node id -> residual J; ``per_packet`` is one CT-phase
    packet's cost. A node is elected iff energy / (N * per_packet) >= 1,
    boundary inclusive. Helpers come in (-energy, id) order, so the first
    one, the richest with ties to the lowest id, is the leader.
    """
    if packet_count < 1 or per_packet <= 0:
        raise ValueError("packet_count must be at least 1 and per_packet positive")
    burst = packet_count * per_packet
    helpers = tuple(nid for _, nid in sorted((-e, nid) for nid, e in energies.items()
                                             if e / burst >= 1.0))
    return ElectedList(helpers=helpers)


@dataclass
class WiLemStation:
    """Idealized energy-metering station with no power budget of its own;
    the registry mirrors every node's residual losslessly and instantly."""

    registry: dict = field(default_factory=dict)    # node id -> residual J

    def update_energy(self, node: int, residual: float) -> None:
        self.registry[node] = residual

    def handle_ct_request(self, request: CtRequest, params: RadioEnergyParams):
        """Elect from the registry; returns (ElectedList, skipped ids).

        Neighbours missing from the registry are skipped (the station
        cannot rank what it cannot measure). Helpers are assumed to
        transmit over the requester's hop distance in the CT phase, so
        every neighbour shares the same per-packet cost.
        """
        energies = {n: self.registry[n] for n in request.neighbor_ids if n in self.registry}
        skipped = [n for n in request.neighbor_ids if n not in self.registry]
        per_packet = tx_energy(8 * request.packet_size_bytes, request.next_hop_distance, params)
        return elect_helpers(energies, request.packet_count, per_packet), skipped
