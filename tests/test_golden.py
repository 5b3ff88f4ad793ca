"""Golden digests: the rendered trace and metrics must not change across commits.

c07 checks that two runs of one build agree; these digests pin the
trace bytes and the metrics document themselves, so an optimisation
that alters behaviour (event order, a float sum, a skipped receiver, a
missed energy_account row) fails here. A change that is meant to alter
either output updates the digest and says why; ``python
tests/test_golden.py`` prints every scenario's current digests for that,
and those of the three benchmark workloads, so that a claim of
byte-identical behaviour is a diff of two of its outputs. The workloads'
digests at benchmark seed 0 are pinned too; seed 7 is held out.
It also prints, per workload at seed 0, how many power sums (``ct_reach``
calls) the cooperative audiences took: a deterministic count of the work a
speed claim on cooperative reach removes.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from oscmac import channel, mac
from oscmac.channel import ct_reach
from oscmac.engine import Simulator
from oscmac.trace import render_trace, write_metrics

from conftest import generated_doc, late_reply_doc, lifetime_doc, make_config, range_extension_doc

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from sample import RUN_SEED, WORKLOADS, scenario_json  # noqa: E402  -- read only

SEED = 3


def _auto_doc():
    # small batteries: nodes die, and drained senders switch to CT
    doc = generated_doc(node_count=40, area_m=250.0, active_ms=2.0, mode="auto",
                        horizon_s=120.0, sources=6, packets=20, jitter_ms=200.0)
    doc["sim"]["battery_j"] = 0.005
    return doc


def _retry_cap_doc():
    # the lifetime-50 benchmark document cut to 100 s. At run seed 7 a
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
             "bbfb220bbc21b99f5cffba0c338b3520511d3cbd0245c33f6f3f540b258ba105",
             "128ac2b937fd440747428d1bc6b284914eb4215c345c503965afd56bf1db6dd3"),
    "ct": (generated_doc(node_count=80, area_m=350.0, active_ms=1.0, mode="ct",
                         horizon_s=60.0, sources=4, packets=5, jitter_ms=200.0),
           SEED,
           "9ac85006dc6ab1ff37b91dc62de3c80977cd8a9df22f98c4bae4f0e2f9d028ec",
           "f3dec1fe8f7d60ae0b618633e94fd5f4acb68929e0780222dcaa5fff21a24a01"),
    "auto": (_auto_doc(),
             SEED,
             "8653ddd314b8b1953a858ecfb2ad8090986266f40a4c965bf30ec06a364d6fa0",
             "eed1db1876b1d930b690473af6726827d8efa1451ee64ee4552cecb973406d05"),
    "retry_cap": (_retry_cap_doc(),
                  7,
                  "482a5d5d694cccdc332db8f16201f68e3eefad785744389382ab8e44d7be7de6",
                  "0dcae765251197cbe1a5b870c34c16c8fdc35386ede82aef183852104c462815"),
    # explicit topology and route: the 120 m hop closes only through the
    # cooperative superframe relay, and 20 slots continue the superframe
    "explicit": (range_extension_doc(mode="ct", packets=20),
                 0,
                 "282ee134c1e4da9515cdbb4567e4cb20dd8d61d6554453556976849bcfc5ed48",
                 "2ccd97545f91b70f857bcc9a2c5f1a41fb0bfa757915e11d351f2ec6cc51603c"),
    # the one scenario whose replies arrive late: every ct_ack times out, and
    # late noct_replies and data_acks reach nodes that await something else
    "late_reply": (late_reply_doc(),
                   SEED,
                   "c5f58f8180e7a2dc55039b4f8fca40e7eaf89583bd24b10467a8a907b8b1b70a",
                   "ed88f3aee9dcc767deea91994aa5b5794969edc066ed8024a3d12a3c6aeadb2d"),
}

# benchmark workload -> (trace digest, metrics-document digest) at benchmark seed 0
WORKLOAD_DIGESTS = {
    "noct-1000": ("3016b51b1b68c8518b38c332d093db383525d7d291f80dc87f2ed659f551945d",
                  "14f837b902bc42a837bd07f03634d9942183e6aeb9c8d386519207583cf666a2"),
    "ct-200": ("ad4b92843f25b0865ef4d0cf511a0d8ff79f61e03f0acc945d84fb5b3dea93df",
               "462e30c170a81f4cdc9f06c7c8c5d65af27851551d03553bb06a579feae1d4ac"),
    "lifetime-50": ("a40e6db379881cd405ae147f2154c7bbb6f38dc9339b7ff7823b548739364c2b",
                    "b1ad7fe429b446c51a0f067c325e5e3d088e9f56fc81b059e9f51f64e7d0691c"),
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


def workload_digests(workload, bench_seed, metrics_path):
    """``digests`` of ``workload``'s scenario under benchmark seed ``bench_seed``."""
    return digests(json.loads(scenario_json(workload, bench_seed)), metrics_path, RUN_SEED)


def audience_ct_reach_calls(workload, bench_seed):
    """How many times ``NeighbourIndex.audience`` calls ``ct_reach`` in a run of
    ``workload`` under benchmark seed ``bench_seed``; nothing else in a run calls it."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return ct_reach(*args)

    channel.ct_reach = counted
    try:
        Simulator(make_config(json.loads(scenario_json(workload, bench_seed))), RUN_SEED).run()
    finally:
        channel.ct_reach = ct_reach
    return calls


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


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_digests_are_pinned(workload, tmp_path):
    assert workload_digests(workload, 0, tmp_path / "metrics.json") == WORKLOAD_DIGESTS[workload]


def test_ct200_audiences_take_few_power_sums():
    """Nodes within the base range of a sender are admitted from the neighbour
    table, and the tight pruning radius keeps most others out of the scan:
    3,343 power sums on ct-200 at seed 0, against 7,099 with neither."""
    assert audience_ct_reach_calls("ct-200", 0) <= 3400


def test_housekeeping_is_one_sweep_per_period():
    """One pending sweep at a time, at multiples of the period, over the
    nodes still alive after the previous sweep; then a last sweep settles
    every node at the horizon."""
    cfg = make_config(SCENARIOS["auto"][0])
    sim = Simulator(cfg, SEED)

    def pending_sweeps():
        return sum(kind == "housekeeping" for _, _, kind, _ in sim.heap)

    assert pending_sweeps() == 1
    most = []
    sweeps = [(t_us, [n.id for n in args[0]])  # (time, listed ids) of each scheduled sweep
              for t_us, _, kind, args in sim.heap if kind == "housekeeping"]
    schedule = sim._schedule

    def schedule_and_count(t_us, kind, *args):
        schedule(t_us, kind, *args)
        if kind == "housekeeping":
            most.append(pending_sweeps())
            sweeps.append((t_us, [n.id for n in args[0]]))

    sim._schedule = schedule_and_count
    sim.run()
    assert most and max(most) == 1

    period = cfg.sim.housekeeping_frames * sim.frame_us
    ids = sorted(sim.nodes)
    death = {nid: None for nid in ids}
    for _, _, nid, event, detail_json, _ in sim.rows:
        if event == "node_died":
            death[nid] = json.loads(detail_json)["death_time_us"]
    assert any(d is not None for d in death.values())  # the rule below is exercised

    assert [t_us for t_us, _ in sweeps] == list(range(period, period * len(sweeps) + 1, period))
    assert sweeps[0][1] == ids and sim.horizon_us - period < sweeps[-1][0] <= sim.horizon_us
    for t_us, listed in sweeps:
        # a node dead by the previous sweep is no longer listed
        assert listed == [n for n in ids if death[n] is None or death[n] > t_us - period]
    assert all(node.last_accounted_us == sim.horizon_us for node in sim.nodes.values())


def test_sweep_costs_the_shared_draw_once():
    """A sweep calls ``_interval_cost`` at most once for the nodes that
    nothing touched since the previous sweep and that hold no reservation,
    plus once for each other node; over the stretch after the traffic, that
    is one call for all 120 nodes, and not one of them goes through the
    per-node ``_account``."""
    sweeps = []  # (interval-cost calls, _account calls, nodes touched or reserved, listed)

    class Counting(Simulator):
        cost_calls = account_calls = 0

        def _interval_cost(self, node, t0, t1):
            self.cost_calls += 1
            return super()._interval_cost(node, t0, t1)

        def _account(self, node):
            self.account_calls += 1
            return super()._account(node)

        def _on_housekeeping(self, nodes):
            before = self.cost_calls, self.account_calls
            others = sum(n.last_accounted_us != self._swept_us or bool(n.mac.reservations)
                         for n in nodes)
            super()._on_housekeeping(nodes)
            sweeps.append((self.cost_calls - before[0], self.account_calls - before[1],
                           others, len(nodes)))

        _HANDLERS = dict(Simulator._HANDLERS, housekeeping=_on_housekeeping)

    doc, seed = SCENARIOS["noct"][:2]
    metrics = Counting(make_config(doc), seed).run()
    assert metrics.network_lifetime_first_death_s is None  # no death bisection
    assert len(sweeps) == 7  # six periods, then the horizon
    for calls, _, others, _ in sweeps:
        assert calls <= 1 + others
    quiet = [(calls, accounted, listed) for calls, accounted, others, listed in sweeps
             if others == 0]
    assert len(quiet) >= 3 and all(q == (1, 0, 120) for q in quiet)


def record_awaits(monkeypatch):
    """Wrap ``mac.step``; returns the list it fills with one
    ``(reply the node awaited, event)`` pair per call."""
    calls = []
    step = mac.step

    def recorded_step(state, event, t_us):
        calls.append((state.awaiting, event))
        return step(state, event, t_us)

    monkeypatch.setattr(mac, "step", recorded_step)
    return calls


def unawaited_replies(calls):
    """The ``ct_ack``, ``noct_reply`` and ``data_ack`` calls made while the
    node awaited something else: each is a late reply the engine acted on."""
    return [(awaited, event) for awaited, event in calls
            if event in ("ct_ack", "noct_reply", "data_ack") and event != awaited]


def test_engine_awaits_every_table_row(monkeypatch):
    """The scenarios send every event of ``mac._AWAITS`` and see each
    awaited reply both answered and timed out, and the engine acts on a
    ``ct_ack``, ``noct_reply`` or ``data_ack`` only while the node awaits it."""
    calls = record_awaits(monkeypatch)
    for doc, seed, _, _ in SCENARIOS.values():
        Simulator(make_config(doc), seed).run()
    assert set(mac._AWAITS) <= {event for _, event in calls}
    replies = set(mac._AWAITS.values())
    assert {event for awaited, event in calls if event == awaited} == replies
    assert {awaited for awaited, event in calls if event == "timeout"} == replies
    assert not unawaited_replies(calls)


# mode -> a run whose CT rendezvous bookings include rejected ones
BOOKING_RUNS = {"ct": SCENARIOS["ct"][:2], "auto": (lifetime_doc(mode="auto"), 0)}


@pytest.mark.parametrize("name", ["ct", "auto"])
def test_reserve_rows_log_the_booking_result(name, monkeypatch):
    """Each ``reserve`` trace row reports what its ``mac.reserve`` call
    returned, rejected rendezvous bookings included."""
    results = []
    reserve = mac.reserve

    def recorded_reserve(state, start_us, end_us):
        results.append(reserve(state, start_us, end_us))
        return results[-1]

    monkeypatch.setattr(mac, "reserve", recorded_reserve)
    doc, seed = BOOKING_RUNS[name]
    sim = Simulator(make_config(doc), seed)
    sim.run()
    logged = [json.loads(detail) for _, _, _, event, detail, _ in sim.rows
              if event == "reserve"]
    assert [row["accepted"] for row in logged] == results
    assert any(not row["accepted"] for row in logged if row["kind"] == "ct_rdv")


if __name__ == "__main__":
    # print each scenario's current digests, to re-pin SCENARIOS after a
    # change that is meant to alter the trace or the metrics; then those of
    # the benchmark workloads at their default seed 0, marked as the
    # scenarios are, and at held-out seed 7, printed only: a change that
    # keeps behaviour leaves both as they were; last, each workload's count
    # of the power sums its cooperative audiences took at seed 0
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = Path(tmp) / "metrics.json"
        for name, (doc, seed, *pinned) in SCENARIOS.items():
            current = digests(doc, metrics_path, seed)
            print(name, *current, "pinned" if list(current) == pinned else "CHANGED")
        for workload in WORKLOADS:
            for bench_seed in (0, 7):
                current = workload_digests(workload, bench_seed, metrics_path)
                mark = [] if bench_seed else [
                    "pinned" if current == WORKLOAD_DIGESTS[workload] else "CHANGED"]
                print(f"{workload}/seed{bench_seed}", *current, *mark, flush=True)
        for workload in WORKLOADS:
            print(f"{workload}/seed0 audience ct_reach calls",
                  audience_ct_reach_calls(workload, 0), flush=True)
