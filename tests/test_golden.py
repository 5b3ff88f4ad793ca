"""Golden trace digests: the rendered trace must not change across commits.

c07 checks that two runs of one build agree; these digests pin the
trace bytes themselves, so an optimisation that alters behaviour (event
order, a float sum, a skipped receiver) fails here. A change that is
meant to alter the trace updates the digest and says why.
"""

import hashlib

import pytest

from oscmac.engine import Simulator
from oscmac.trace import render_trace

from conftest import generated_doc, make_config

SEED = 3


def _auto_doc():
    # small batteries: nodes die, and drained senders switch to CT
    doc = generated_doc(node_count=40, area_m=250.0, active_ms=2.0, mode="auto",
                        horizon_s=120.0, sources=6, packets=20, jitter_ms=200.0)
    doc["sim"]["battery_j"] = 0.005
    return doc


SCENARIOS = {
    "noct": (generated_doc(node_count=120, area_m=400.0, active_ms=1.0, mode="noct",
                           horizon_s=60.0, sources=5, packets=5, jitter_ms=200.0),
             "1bbe01395a3e32ca47cdc902312d3fd60954292696ec0502e9605a733ffe92a3"),
    "ct": (generated_doc(node_count=80, area_m=350.0, active_ms=1.0, mode="ct",
                         horizon_s=60.0, sources=4, packets=5, jitter_ms=200.0),
           "b23122433ff6ada9493bcbedee7088b24efc827a6e357d1e586b158bbbe90c17"),
    "auto": (_auto_doc(),
             "5b5e217ebb1b057107198610df48678edbee6167c580b5078683f275308674ef"),
}


def trace_digest(doc, seed=SEED):
    cfg = make_config(doc)
    sim = Simulator(cfg, seed)
    sim.run()
    text = render_trace(sim.rows, cfg.config_hash(), seed)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(SCENARIOS))
def test_trace_digest_is_pinned(mode):
    doc, digest = SCENARIOS[mode]
    assert trace_digest(doc) == digest
