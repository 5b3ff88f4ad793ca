"""Golden digests: the rendered trace and metrics must not change across commits.

c07 checks that two runs of one build agree; these digests pin the
trace bytes and the metrics document (energy timeline included)
themselves, so an optimisation that alters behaviour (event order, a
float sum, a skipped receiver, a missed residual sample) fails here. A
change that is meant to alter either output updates the digest and says
why.
"""

import hashlib
import json

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


def _retry_cap_doc():
    # the lifetime-50 benchmark document cut to 100 s. At run seed 0 a
    # sender hits the no-CT retry cap while the rejecting reply is still
    # being dispatched to the nodes that overhear it; the trace pins that
    # the sender's next request waits for its own heap event, after them
    doc = generated_doc(node_count=50, area_m=300.0, active_ms=2.0, mode="auto",
                        horizon_s=100.0, sources=10, packets=100, jitter_ms=200.0)
    doc["sim"]["battery_j"] = 0.05
    return doc


# name -> (scenario, run seed, trace digest, metrics-document digest)
SCENARIOS = {
    "noct": (generated_doc(node_count=120, area_m=400.0, active_ms=1.0, mode="noct",
                           horizon_s=60.0, sources=5, packets=5, jitter_ms=200.0),
             SEED,
             "1bbe01395a3e32ca47cdc902312d3fd60954292696ec0502e9605a733ffe92a3",
             "b41d4cd60f4ee77a89dc297ef2a6d3e3fe0cde084d75680beabc984874c946b8"),
    "ct": (generated_doc(node_count=80, area_m=350.0, active_ms=1.0, mode="ct",
                         horizon_s=60.0, sources=4, packets=5, jitter_ms=200.0),
           SEED,
           "7d63dd26a0a04c572c83a9b38caf7f9780f4ce372d4fac2fdf2e18585d87956e",
           "235ad0782075fe0821edf6dbcde3a9a0a3413c68a683314c107d0fa01991b599"),
    "auto": (_auto_doc(),
             SEED,
             "7de00e5dcb4dad0afc16449379561a1c551eb05b13ed5ad01fc5720ee920ecb4",
             "5ee447aece117c295b26afdac33308c9929a0eb3f20d0eb9118c2b1efaa0e8a0"),
    "retry_cap": (_retry_cap_doc(),
                  0,
                  "4b4cd7420c797fd6ebd0395e3530b39e6c68bc4e0ccf26d08b245b9a888e5caf",
                  "c201885f306c1c6def40ce2d37667287f56889db1ffb48a7c8a5711d04c397a3"),
}


def digests(doc, metrics_path, seed):
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
    return {name: digests(doc, out / f"{name}.metrics.json", seed)
            for name, (doc, seed, _, _) in SCENARIOS.items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_digest_is_pinned(name, computed):
    assert computed[name][0] == SCENARIOS[name][2]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metrics_digest_is_pinned(name, computed):
    assert computed[name][1] == SCENARIOS[name][3]


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

    def schedule_and_count(t_us, kind, *args):
        schedule(t_us, kind, *args)
        if kind == "housekeeping":
            most.append(pending_sweeps())

    sim._schedule = schedule_and_count
    metrics = sim.run()
    assert most and max(most) == 1

    period = cfg.sim.housekeeping_frames * sim.frame_us
    ids = sorted(sim.nodes)
    death = {nid: None for nid in ids}
    for _, _, nid, event, detail_json, _ in sim.rows:
        if event == "node_died":
            death[nid] = json.loads(detail_json)["death_time_us"]
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
    row of its table, and the scenarios between them use every row."""
    used = set()
    step = mac.step

    def checked_step(state, event, t_us):
        key = (state.phase, event)
        assert key in mac._TRANSITIONS, key
        used.add(key)
        return step(state, event, t_us)

    monkeypatch.setattr(mac, "step", checked_step)
    for doc, seed, _, _ in SCENARIOS.values():
        Simulator(make_config(doc), seed).run()
    assert used == set(mac._TRANSITIONS)


@pytest.mark.parametrize("name", ["ct", "auto"])
def test_reserve_rows_log_the_booking_result(name, monkeypatch):
    """Each ``reserve`` trace row reports what its ``mac.reserve`` call
    returned, rejected rendezvous bookings included."""
    results = []
    reserve = mac.reserve

    def recorded_reserve(state, start_us, end_us, rdv_id):
        results.append(reserve(state, start_us, end_us, rdv_id))
        return results[-1]

    monkeypatch.setattr(mac, "reserve", recorded_reserve)
    doc, seed, _, _ = SCENARIOS[name]
    sim = Simulator(make_config(doc), seed)
    sim.run()
    logged = [json.loads(detail) for _, _, _, event, detail, _ in sim.rows
              if event == "reserve"]
    assert [row["accepted"] for row in logged] == results
    assert any(not row["accepted"] for row in logged if row["kind"] == "ct_rdv")
