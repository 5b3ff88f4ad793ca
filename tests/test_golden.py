"""Golden digests: the rendered trace and metrics must not change across commits.

c07 checks that two runs of one build agree; these digests pin the
trace bytes and the metrics document (energy timeline included)
themselves, so an optimisation that alters behaviour (event order, a
float sum, a skipped receiver, a missed residual sample) fails here. A
change that is meant to alter either output updates the digest and says
why.
"""

import hashlib

import pytest

from oscmac import mac
from oscmac.engine import Simulator
from oscmac.trace import render_trace, write_metrics

from conftest import generated_doc, make_config

SEED = 3


def _auto_doc():
    # small batteries: nodes die, and drained senders switch to CT
    doc = generated_doc(node_count=40, area_m=250.0, active_ms=2.0, mode="auto",
                        horizon_s=120.0, sources=6, packets=20, jitter_ms=200.0)
    doc["sim"]["battery_j"] = 0.005
    return doc


# mode -> (scenario, trace digest, metrics-document digest)
SCENARIOS = {
    "noct": (generated_doc(node_count=120, area_m=400.0, active_ms=1.0, mode="noct",
                           horizon_s=60.0, sources=5, packets=5, jitter_ms=200.0),
             "1bbe01395a3e32ca47cdc902312d3fd60954292696ec0502e9605a733ffe92a3",
             "49c2ac65efd2153cf236e781105f073526bafd4787eea831ecec543ec55ebd17"),
    "ct": (generated_doc(node_count=80, area_m=350.0, active_ms=1.0, mode="ct",
                         horizon_s=60.0, sources=4, packets=5, jitter_ms=200.0),
           "b23122433ff6ada9493bcbedee7088b24efc827a6e357d1e586b158bbbe90c17",
           "a675e376c121406a28767cd701a335e71b8d62ae080f7d47c77fc82166fc3566"),
    "auto": (_auto_doc(),
             "5b5e217ebb1b057107198610df48678edbee6167c580b5078683f275308674ef",
             "521430c2978014cb42f5bd9cfc25ef171f88c1b4e77736b63209284a1a74d6cd"),
}


def digests(doc, metrics_path, seed=SEED):
    """(trace digest, metrics-document digest) of one run of ``doc``."""
    cfg = make_config(doc)
    sim = Simulator(cfg, seed)
    metrics = sim.run()
    config_hash = cfg.config_hash()
    trace = render_trace(sim.rows, config_hash, seed).encode()
    write_metrics(metrics_path, metrics, config_hash, seed)
    return (hashlib.sha256(trace).hexdigest(),
            hashlib.sha256(metrics_path.read_bytes()).hexdigest())


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    return {mode: digests(doc, out / f"{mode}.metrics.json")
            for mode, (doc, _, _) in SCENARIOS.items()}


@pytest.mark.parametrize("mode", sorted(SCENARIOS))
def test_trace_digest_is_pinned(mode, computed):
    assert computed[mode][0] == SCENARIOS[mode][1]


@pytest.mark.parametrize("mode", sorted(SCENARIOS))
def test_metrics_digest_is_pinned(mode, computed):
    assert computed[mode][1] == SCENARIOS[mode][2]


def test_housekeeping_is_one_sweep_per_period():
    """One pending sweep at a time, at multiples of the period, over the
    nodes still alive after the previous sweep; then one final sample of
    every node at the horizon."""
    cfg = make_config(SCENARIOS["auto"][0])
    sim = Simulator(cfg, SEED)

    def pending_sweeps():
        return sum(kind == "housekeeping" for _, _, kind, _ in sim.heap)

    assert pending_sweeps() == 1
    most = []
    schedule = sim._schedule

    def schedule_and_count(t_us, kind, data):
        schedule(t_us, kind, data)
        if kind == "housekeeping":
            most.append(pending_sweeps())

    sim._schedule = schedule_and_count
    metrics = sim.run()
    assert most and max(most) == 1

    period = cfg.sim.housekeeping_frames * sim.frame_us
    ids = sorted(sim.nodes)
    death = {nid: sim.nodes[nid].death_us for nid in ids}
    assert any(d is not None for d in death.values())  # the rule below is exercised

    swept, final = metrics.energy_timeline[:-len(ids)], metrics.energy_timeline[-len(ids):]
    assert [(round(t * 1e6), nid) for t, nid, _ in final] == [(sim.horizon_us, n) for n in ids]
    by_time = {}
    for t, nid, _ in swept:
        by_time.setdefault(round(t * 1e6), []).append(nid)
    for t_us, sampled in by_time.items():
        assert t_us % period == 0
        # a node dead by the previous sweep is no longer sampled
        assert sampled == [n for n in ids if death[n] is None or death[n] > t_us - period]
    assert sorted(by_time) == list(range(period, max(by_time) + 1, period))


def test_engine_phase_changes_are_table_rows(monkeypatch):
    """Every protocol event the engine reports to ``mac.step`` matches a
    row of its table, and the three scenarios between them use every row."""
    used = set()
    step = mac.step

    def checked_step(state, event, t_us):
        key = (state.phase, event)
        assert key in mac._TRANSITIONS, key
        used.add(key)
        return step(state, event, t_us)

    monkeypatch.setattr(mac, "step", checked_step)
    for doc, _, _ in SCENARIOS.values():
        Simulator(make_config(doc), SEED).run()
    assert used == set(mac._TRANSITIONS)
