"""Cooperative transmission closing a hop a lone radio cannot.

The transmitter sits 120 m from the receiver with a 90 m base range.
Alone it can never deliver; with two helpers 10 m away the power sum
of three simultaneous copies meets the threshold and every packet
arrives.
"""

import json
from dataclasses import replace

from oscmac import parse_config, run
from oscmac.channel import ct_reach, in_reach

doc = {
    "topology": {
        "nodes": [
            {"id": 0, "x": 120.0, "y": 0.0, "role": "fr"},
            {"id": 1, "x": 0.0, "y": 0.0, "role": "trn"},
            {"id": 2, "x": 8.0, "y": 6.0},
            {"id": 3, "x": 8.0, "y": -6.0},
        ],
        "routes": {"1": 0},
    },
    "traffic": {"sources": [1], "packets_per_source": 5},
    "sim": {"horizon_s": 30.0},
}

cfg = parse_config(json.dumps(doc))
receiver = (120.0, 0.0)
senders = [(0.0, 0.0), (8.0, 6.0), (8.0, -6.0)]
print("link feasibility at 90 m base range:")
print(f"  lone transmitter: {in_reach(senders[0], receiver, 90.0)}")
print(f"  three-sender group: {ct_reach(senders, receiver, 90.0, cfg.radio.d0)}\n")

for mode in ("noct", "ct"):
    metrics, _ = run(replace(cfg, mac=replace(cfg.mac, mode=mode)), seed=0)
    print(f"mode={mode:<5} delivered {metrics.packets_delivered}"
          f"/{metrics.packets_offered}"
          f"  (failed {metrics.packets_failed})")
