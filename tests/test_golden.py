"""Golden digests: the rendered trace and metrics must not change across commits.

c07 checks that two runs of one build agree; these digests pin the
trace bytes and the metrics document (energy timeline included)
themselves, so an optimisation that alters behaviour (event order, a
float sum, a skipped receiver, a missed residual sample) fails here. A
change that is meant to alter either output updates the digest and says
why; ``python tests/test_golden.py`` prints every scenario's current
digests for that, and those of the three benchmark workloads, so that a
claim of byte-identical behaviour is a diff of two of its outputs. The
workloads' digests at benchmark seed 0 are pinned too; seed 7 is held out.
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
             "e3f03a7d2f99275a084eccf3cb375ce5d591a5d81c074d721a7a87bceafe41ff"),
    "ct": (generated_doc(node_count=80, area_m=350.0, active_ms=1.0, mode="ct",
                         horizon_s=60.0, sources=4, packets=5, jitter_ms=200.0),
           SEED,
           "9ac85006dc6ab1ff37b91dc62de3c80977cd8a9df22f98c4bae4f0e2f9d028ec",
           "1133877e1e7a6a504666e7f179106aa0ec75379800df3a4240ea58bb92adf855"),
    "auto": (_auto_doc(),
             SEED,
             "8653ddd314b8b1953a858ecfb2ad8090986266f40a4c965bf30ec06a364d6fa0",
             "bc92ec691273e64fc0ee7e1a7ffd96cf38a2d44d836927b31fe4ad128a12b754"),
    "retry_cap": (_retry_cap_doc(),
                  7,
                  "482a5d5d694cccdc332db8f16201f68e3eefad785744389382ab8e44d7be7de6",
                  "a79b2acf4588c012e68a9259fb1c8e02bd5e9acc721f1ac6fdbc7b94813d8687"),
    # explicit topology and route: the 120 m hop closes only through the
    # cooperative superframe relay, and 20 slots continue the superframe
    "explicit": (range_extension_doc(mode="ct", packets=20),
                 0,
                 "282ee134c1e4da9515cdbb4567e4cb20dd8d61d6554453556976849bcfc5ed48",
                 "8baa5934278c7a641987139eb37a72741f9c5e17e5e4b6424b77518b5cb59965"),
    # the one scenario whose replies arrive late: every ct_ack times out, and
    # late noct_replies and data_acks reach nodes that await something else
    "late_reply": (late_reply_doc(),
                   SEED,
                   "c5f58f8180e7a2dc55039b4f8fca40e7eaf89583bd24b10467a8a907b8b1b70a",
                   "f313030c0b25b04a8ee9aaf89e103ebe9dd92b61acfd536d8d8bfdde585903b3"),
}

# benchmark workload -> (trace digest, metrics-document digest) at benchmark seed 0
WORKLOAD_DIGESTS = {
    "noct-1000": ("3016b51b1b68c8518b38c332d093db383525d7d291f80dc87f2ed659f551945d",
                  "98f06fd330b6b26dd2f48c29679cfd3104ea0bcc64761f2b4e0a29d81bc9d255"),
    "ct-200": ("ad4b92843f25b0865ef4d0cf511a0d8ff79f61e03f0acc945d84fb5b3dea93df",
               "6e01c1b1899d11f5a41a764b72095b886769a537130d71dd3e10577069f1695f"),
    "lifetime-50": ("a40e6db379881cd405ae147f2154c7bbb6f38dc9339b7ff7823b548739364c2b",
                    "c9b1d469ddd54e9b22061613cd65c650903942b367702e07d5da4f7653487928"),
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
