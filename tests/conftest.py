"""Shared scenario builders for the test suite."""

import json

from hypothesis import settings

from oscmac.config import parse_config

# `pytest --hypothesis-profile=deep` searches every property ten times as wide;
# a property that sets its own example count scales it through ``examples``
settings.register_profile("deep", max_examples=1000, deadline=None)


def examples(n: int) -> int:
    """``n`` under the default profile, scaled as the loaded profile scales its 100."""
    return max(1, n * settings.default.max_examples // 100)


def make_config(doc: dict):
    return parse_config(json.dumps(doc))


def range_extension_doc(mode="ct", packets=3, horizon_s=30.0):
    """A hop that only closes cooperatively.

    The transmitter sits 120 m from the receiver (beyond the 90 m base
    range); two nearby helpers close the link via the power-sum rule.
    """
    return {
        "topology": {
            "fr": 0,
            "nodes": [
                {"id": 0, "x": 120.0, "y": 0.0},
                {"id": 1, "x": 0.0, "y": 0.0},
                {"id": 2, "x": 8.0, "y": 6.0},
                {"id": 3, "x": 8.0, "y": -6.0},
            ],
            "routes": {"1": 0},
        },
        "traffic": {"sources": [1], "packets_per_source": packets},
        "mac": {"mode": mode},
        "sim": {"horizon_s": horizon_s},
    }


def two_node_doc(d=50.0, packets=1, mode="noct", horizon_s=30.0):
    """Minimal in-range pair for hand-checkable energy arithmetic."""
    return {
        "topology": {
            "fr": 0,
            "nodes": [
                {"id": 0, "x": 0.0, "y": 0.0},
                {"id": 1, "x": d, "y": 0.0},
            ],
        },
        "traffic": {"sources": [1], "packets_per_source": packets},
        "mac": {"mode": mode},
        "sim": {"horizon_s": horizon_s},
    }


def generated_doc(node_count=20, area_m=200.0, active_ms=4.0, mode="auto",
                  horizon_s=60.0, sources=3, packets=4, jitter_ms=50.0,
                  topo_seed=1):
    return {
        "topology": {"generator": {"node_count": node_count, "area_m": area_m,
                                   "seed": topo_seed}},
        "traffic": {"sources": sources, "packets_per_source": packets,
                    "jitter_ms": jitter_ms},
        "mac": {"mode": mode, "active_ms": active_ms},
        "sim": {"horizon_s": horizon_s},
    }


def lifetime_doc(mode="auto", topo_seed=1):
    """``demos/lifetime_compare.py``'s document: a 20-node field whose small
    batteries empty inside the horizon, on generator topology ``topo_seed``."""
    doc = generated_doc(node_count=20, area_m=200.0, active_ms=4.0, mode=mode,
                        horizon_s=600.0, sources=3, packets=40, jitter_ms=50.0,
                        topo_seed=topo_seed)
    doc["sim"]["battery_j"] = 0.003
    return doc


def ct200_doc(mode="ct"):
    """The ct-200 benchmark field at benchmark seed 0: 200 generated nodes on
    generator topology 1, 5 sources x 10 packets, 2 J batteries."""
    doc = generated_doc(node_count=200, area_m=600.0, active_ms=1.0, mode=mode,
                        horizon_s=1000.0, sources=5, packets=10, jitter_ms=200.0)
    doc["traffic"]["start_s"] = 0.0
    doc["mac"]["frame_ms"] = 100.0
    doc["sim"]["battery_j"] = 2.0
    return doc


def late_reply_doc():
    """CT with a timeout far shorter than a handshake: most acks and replies
    arrive after the sender gave up, so the stale-reply guards of
    ``_on_ct_ack_rx``, ``_on_noct_reply_rx`` and ``_on_data_ack_rx`` run."""
    doc = generated_doc(mode="ct")
    doc["mac"]["timeout_slots"] = 0.05
    return doc
