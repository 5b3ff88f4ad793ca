"""Network lifetime and energy split under heavy relaying.

A generated 20-node field runs the same traffic under each MAC mode
with deliberately small batteries, so nodes die inside the horizon.
The summary shows where each joule went and when the first node and
the protected transmitter gave out.
"""

import json
from dataclasses import replace

from oscmac import parse_config, run

doc = {
    "topology": {"generator": {"node_count": 20, "area_m": 200.0, "seed": 1}},
    "traffic": {"sources": 3, "packets_per_source": 40, "jitter_ms": 50.0},
    "mac": {"active_ms": 4.0},
    "sim": {"horizon_s": 600.0, "battery_j": 0.003},
}
cfg = parse_config(json.dumps(doc))

for mode in ("noct", "ct", "auto"):
    metrics, _ = run(replace(cfg, mac=replace(cfg.mac, mode=mode)), seed=0)
    totals = {}
    for cats in metrics.energy_by_category.values():
        for cat, j in cats.items():
            totals[cat] = totals.get(cat, 0.0) + j
    first = metrics.network_lifetime_first_death_s
    trn = metrics.trn_death_time_s
    print(f"mode={mode}")
    print(f"  delivered {metrics.packets_delivered}/{metrics.packets_offered}"
          f"  collisions {metrics.collisions}")
    print(f"  first death: {first if first is not None else 'none'} s"
          f"   transmitter death: {trn if trn is not None else 'none'} s")
    for cat in ("transmit", "receive", "overhear", "idle_listen", "sleep"):
        print(f"  {cat:<12} {totals.get(cat, 0.0):.4e} J")
    print()
