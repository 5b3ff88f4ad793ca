"""Helper selection as the metering station performs it.

A transmitter 100 m from its next hop asks for cooperation. The station
reads each neighbour's residual from its registry and, in one pass,
elects every neighbour that can afford the whole burst, richest first;
the first helper is the leader.
"""

from oscmac import CtRequest, RadioEnergyParams, WiLemStation, tx_energy

params = RadioEnergyParams()

station = WiLemStation(registry={2: 1.50, 3: 0.90, 4: 0.0004, 5: 1.50})

request = CtRequest(packet_size_bytes=100, packet_count=5,
                    next_hop_distance=100.0, neighbor_ids=(2, 3, 4, 5, 6))

per_packet = tx_energy(8 * 100, 100.0, params)
print(f"burst: 5 packets of 100 bytes over 100 m")
print(f"per-packet cooperative cost: {per_packet:.4e} J")
print(f"burst affordability bar:     {5 * per_packet:.4e} J\n")

elected, skipped = station.handle_ct_request(request, params)

for nid in request.neighbor_ids:
    if nid in skipped:
        verdict = "skipped (not in the registry)"
    elif nid in elected.helpers:
        verdict = "elected" + (" (leader)" if nid == elected.leader else "")
    else:
        verdict = "rejected (cannot afford the burst)"
    energy = station.registry.get(nid)
    shown = f"{energy:.4f} J" if energy is not None else "   ?    "
    print(f"  node {nid}: {shown}  -> {verdict}")

print(f"\nhelpers (by descending energy): {elected.helpers}")
print(f"leader (ties go to the lowest id): {elected.leader}")
