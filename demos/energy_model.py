"""Walk through the two-regime radio cost model.

Transmitting L bits over distance d costs L*e_elec plus an amplifier
term: e_fs*d^2 below the crossover distance d0, e_mp*d^4 at or beyond
it. Receiving costs L*e_rx regardless of distance.
"""

from oscmac import RadioEnergyParams, rx_energy, tx_energy

params = RadioEnergyParams()
d0 = params.d0
print(f"crossover distance d0 = {d0:.4f} m")
print(f"(free-space d^2 amplifier below, multipath d^4 at or beyond)\n")

L = 800  # one 100-byte packet
print(f"cost to move one {L}-bit packet:")
print(f"{'d (m)':>8} {'tx (J)':>12} {'regime':>10}")
for d in (10, 25, 50, d0, 100, 120, 150):
    regime = "d^2" if d < d0 else "d^4"
    print(f"{d:>8.2f} {tx_energy(L, d, params):>12.4e} {regime:>10}")

print(f"\nreceive cost (distance-free): {rx_energy(L, params):.4e} J")

# the electronics floor dominates short hops: even at 10 m the radio
# pays L*e_elec = 4.0e-5 J before the amplifier spends anything
floor = L * params.e_elec
print(f"per-packet electronics floor: {floor:.4e} J "
      f"({floor / tx_energy(L, 10, params):.1%} of the 10 m cost)")
