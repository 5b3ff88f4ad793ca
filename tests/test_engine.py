import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from oscmac.channel import distance
from oscmac.energy import RadioEnergyParams, rx_energy, tx_energy
from oscmac.engine import US, Simulator, run
from oscmac.mac import DutySchedule, MacState, Packet, reserve
from oscmac.trace import render_trace
import trace_audit
from conftest import (generated_doc, late_reply_doc, make_config, range_extension_doc,
                      two_node_doc)
from test_golden import SCENARIOS, record_awaits, unawaited_replies


def rows_for(rows, event=None, node=None):
    out = []
    for r in rows:
        if event is not None and r[3] != event:
            continue
        if node is not None and r[2] != node:
            continue
        out.append(r)
    return out


def detail(row):
    return json.loads(row[4])


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_trace():
    cfg = make_config(generated_doc())
    m1, r1 = run(cfg, 5)
    m2, r2 = run(cfg, 5)
    assert r1 == r2
    assert m1.to_dict() == m2.to_dict()


def test_different_seed_different_jitter():
    cfg = make_config(generated_doc(jitter_ms=500.0))
    _, r1 = run(cfg, 1)
    _, r2 = run(cfg, 2)
    assert r1 != r2


# ---------------------------------------------------------------------------
# a hand-checkable two-node exchange


def test_two_node_noct_delivery_and_energy():
    cfg = make_config(two_node_doc(d=50.0, packets=1))
    metrics, rows = run(cfg, 0)
    assert metrics.packets_offered == 1
    assert metrics.packets_delivered == 1
    assert metrics.packets_failed == 0
    assert metrics.collisions == 0

    # sender: one 64-bit request plus one 800-bit data packet over 50 m,
    # and receptions of the reply and the ack
    p = cfg.radio
    sender = metrics.energy_by_category[1]
    assert sender["transmit"] == pytest.approx(
        tx_energy(64, 50.0, p) + tx_energy(800, 50.0, p), rel=1e-12)
    assert sender["receive"] == pytest.approx(2 * rx_energy(64, p), rel=1e-12)

    # receiver: reply and ack out, request and data in
    receiver = metrics.energy_by_category[0]
    assert receiver["transmit"] == pytest.approx(2 * tx_energy(64, 50.0, p), rel=1e-12)
    assert receiver["receive"] == pytest.approx(
        rx_energy(64, p) + rx_energy(800, p), rel=1e-12)

    assert len(rows_for(rows, event="delivered", node=0)) == 1


def test_zero_traffic_only_duty_cycles():
    doc = two_node_doc(packets=0)
    metrics, rows = run(make_config(doc), 0)
    assert metrics.packets_offered == 0
    assert metrics.packets_delivered == 0
    assert not rows_for(rows, event="tx")
    for cats in metrics.energy_by_category.values():
        assert cats.get("transmit", 0.0) == 0.0
        assert cats.get("receive", 0.0) == 0.0
        assert cats["idle_listen"] > 0.0
        assert cats["sleep"] > 0.0


# ---------------------------------------------------------------------------
# cooperative range extension


def test_ct_closes_link_noct_cannot():
    m_ct, _ = run(make_config(range_extension_doc(mode="ct")), 0)
    m_no, _ = run(make_config(range_extension_doc(mode="noct")), 0)
    assert m_ct.packets_delivered == m_ct.packets_offered == 3
    assert m_no.packets_delivered == 0
    assert m_no.packets_failed == m_no.packets_offered == 3


def test_ct_trace_shows_cooperative_slots():
    _, rows = run(make_config(range_extension_doc(mode="ct")), 0)
    coop = [r for r in rows_for(rows, event="tx") if detail(r)["coop"]]
    assert coop
    senders_by_rdv = {}
    for r in coop:
        senders_by_rdv.setdefault(detail(r)["rdv"], set()).add(r[2])
    assert any(len(s) >= 3 for s in senders_by_rdv.values())


@pytest.mark.parametrize("fr_x, relayed", [(120.0, True), (80.0, False)])
def test_each_sender_transmits_to_its_farthest_addressee(fr_x, relayed):
    """Every ``tx`` row's distance is its sender's distance to the farthest
    node it addresses: the farthest helper (or the next hop, when the
    transmitter reaches it alone) for the announce and the broadcast, the
    next hop for each sender of a cooperative copy, and the requester for
    a reply. The helpers sit 10 m and 13 m from the transmitter, and the
    receiver ``fr_x`` metres from it."""
    doc = range_extension_doc(mode="ct")
    doc["topology"]["nodes"][0]["x"] = fr_x
    doc["topology"]["nodes"][3].update(x=5.0, y=-12.0)
    pos = {n["id"]: (n["x"], n["y"]) for n in doc["topology"]["nodes"]}
    _, rows = run(make_config(doc), 0)
    (reply,) = rows_for(rows, event="candidate_reply")
    helpers = detail(reply)["helpers"]
    assert sorted(helpers) == [2, 3]
    addressees = {  # (tag, cooperative) -> the nodes a transmission addresses
        ("superframe", False): helpers if relayed else [*helpers, 0],
        ("superframe", True): [0],
        ("ct_broadcast", False): helpers,
        ("ct_coop", True): [0],
        ("ct_ack", False): [1],
    }
    seen = set()
    for r in rows_for(rows, event="tx"):
        d = detail(r)
        key = (d["tag"], d["coop"])
        seen.add(key)
        expected = max(distance(pos[r[2]], pos[a]) for a in addressees[key])
        assert d["distance_m"] == expected, (r, expected)
    assert (("superframe", True) in seen) == relayed
    assert {("superframe", False), ("ct_broadcast", False), ("ct_coop", True)} <= seen


# ---------------------------------------------------------------------------
# routes and hop depths


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.sampled_from([60.0, 150.0, 300.0]), st.integers(0, 50))
@example(30, 300.0, 1)  # routes six hops deep, and two nodes without one
def test_explicit_routes_give_the_generated_depths(node_count, area_m, topo_seed):
    """A generated field's breadth-first routes, entered again as an explicit
    topology with the same positions and batteries, give every node the same
    hop depth and wake offset: one walk of the routes sets the depths of
    both, and nodes without a route sit one past the deepest."""
    doc = generated_doc(node_count=node_count, area_m=area_m, active_ms=1.0,
                        topo_seed=topo_seed)
    generated = Simulator(make_config(doc), 0)
    doc["topology"] = {
        "nodes": [{"id": nid, "x": generated.index.positions[nid][0],
                   "y": generated.index.positions[nid][1], "initial_j": node.battery.initial}
                  for nid, node in generated.nodes.items()],
        "fr": generated.fr,
        "routes": {str(nid): node.next_hop.id for nid, node in generated.nodes.items()
                   if node.next_hop is not None},
    }
    explicit = Simulator(make_config(doc), 0)
    assert ({nid: (node.depth, node.mac.schedule.wake_offset_us)
             for nid, node in explicit.nodes.items()}
            == {nid: (node.depth, node.mac.schedule.wake_offset_us)
                for nid, node in generated.nodes.items()})


# ---------------------------------------------------------------------------
# conservation and bookkeeping


def test_late_replies_are_dropped(monkeypatch):
    """A ``ct_ack``, ``noct_reply`` or ``data_ack`` that arrives after its
    timer fired changes nothing: the engine acts only on those the node
    awaits, so some received ``ct_ack``s reserve no slots and some received
    ``data_ack``s advance no batch."""
    calls = record_awaits(monkeypatch)
    _, rows = run(make_config(late_reply_doc()), 3)
    assert {("ct_ack", "timeout"), ("noct_reply", "timeout"), ("data_ack", "timeout")} <= set(calls)
    assert not unawaited_replies(calls)
    received = [detail(r)["tag"] for r in rows_for(rows, event="rx")]
    assert received.count("ct_ack") > len(rows_for(rows, event="ct_reserved"))
    assert received.count("data_ack") > calls.count(("data_ack", "data_ack"))


@pytest.mark.parametrize("doc", [
    two_node_doc(packets=3),
    range_extension_doc(mode="ct"),
    generated_doc(),
    late_reply_doc(),
])
def test_energy_conservation(doc):
    metrics, rows = run(make_config(doc), 4)
    for nid, initial in metrics.initial_by_node.items():
        consumed = sum(metrics.energy_by_category[nid].values())
        assert consumed + metrics.residual_by_node[nid] == pytest.approx(
            initial, abs=1e-9)
    assert metrics.events_processed == len(rows)


def test_packet_accounting_closes():
    metrics, _ = run(make_config(generated_doc()), 2)
    assert metrics.packets_offered == 3 * 4
    assert metrics.packets_delivered + metrics.packets_failed == metrics.packets_offered
    assert 0.0 <= metrics.delivery_ratio <= 1.0
    assert metrics.collision_losses <= metrics.packets_offered * (1 + 3)  # retries included


def assert_packets_conserved(metrics, rows):
    """Every offered seq ends in one fate, read from the rows by the trace
    audit, apart from the engine: delivered once, failed, or queued at a live
    node at the horizon; and the metrics count the same fates."""
    assert not trace_audit.fates_duplicates(rows)
    assert not trace_audit.fates_unaccounted(rows)
    fates = trace_audit.fates(rows)
    delivered, failed = fates["delivered"], fates["failed"]
    assert not delivered & failed
    in_flight = fates["queued"] - delivered - failed
    assert len(fates["offered"]) == metrics.packets_offered
    assert metrics.packets_delivered <= metrics.packets_offered
    assert (metrics.packets_delivered, metrics.packets_failed) == (len(delivered), len(failed))
    assert len(delivered) + len(failed) + len(in_flight) == metrics.packets_offered


@settings(max_examples=40, deadline=None)
@given(node_count=st.integers(6, 30), area_m=st.sampled_from([100.0, 200.0, 300.0]),
       mode=st.sampled_from(["ct", "noct", "auto"]), horizon_s=st.integers(1, 20),
       sources=st.integers(1, 4), packets=st.integers(1, 6), topo_seed=st.integers(0, 30),
       battery_j=st.sampled_from([2e-4, 1e-3, 3e-3, 2.0]), seed=st.integers(0, 3))
def test_every_packet_ends_in_one_fate(node_count, area_m, mode, horizon_s, sources, packets,
                                       topo_seed, battery_j, seed):
    doc = generated_doc(node_count=node_count, area_m=area_m, active_ms=2.0, mode=mode,
                        horizon_s=float(horizon_s), sources=sources, packets=packets,
                        jitter_ms=200.0, topo_seed=topo_seed)
    doc["sim"]["battery_j"] = battery_j
    assert_packets_conserved(*run(make_config(doc), seed))


def test_battery_exhaustion_sets_lifetimes():
    doc = generated_doc(horizon_s=400.0)
    doc["sim"]["battery_j"] = 0.0005  # a fraction of a second of idle power
    metrics, rows = run(make_config(doc), 0)
    assert metrics.network_lifetime_first_death_s is not None
    assert metrics.network_lifetime_first_death_s < 400.0
    assert metrics.trn_death_time_s is not None
    died = {r[2] for r in rows_for(rows, event="node_died")}
    for nid in died:
        assert metrics.residual_by_node[nid] == 0.0


# ---------------------------------------------------------------------------
# no radio activity while dead or asleep


def scan_radio_rows(sim, rows):
    """Check every on-air row against schedules, reservations, deaths."""
    death = {r[2]: detail(r)["death_time_us"] for r in rows_for(rows, event="node_died")}
    reserved = {}
    for r in rows_for(rows, event="reserve"):
        d = detail(r)
        if d["accepted"]:
            reserved.setdefault(r[2], []).append((d["start_us"], d["end_us"]))
    tx_start = {}
    for r in rows_for(rows, event="tx"):
        rdv = detail(r)["rdv"]
        tx_start[rdv] = min(tx_start.get(rdv, r[0]), r[0])

    def awake(nid, t):
        if sim.nodes[nid].mac.schedule.is_awake(t):
            return True
        return any(s <= t < e for s, e in reserved.get(nid, ()))

    checked = 0
    for r in rows:
        event = r[3]
        if event == "tx":
            t = r[0]
        elif event in ("rx", "rx_corrupt", "overhear"):
            rdv = detail(r).get("rdv")
            if rdv is None or rdv not in tx_start:
                continue  # out-of-band exchange, not a radio slot
            t = tx_start[rdv]
        else:
            continue
        nid = r[2]
        assert nid not in death or t <= death[nid], (
            f"node {nid} active at {t} after dying at {death[nid]}")
        assert awake(nid, t), f"node {nid} {event} at {t} while asleep"
        checked += 1
    return checked


@pytest.mark.parametrize("doc", [
    range_extension_doc(mode="ct"),
    generated_doc(),
    late_reply_doc(),
])
def test_no_radio_activity_while_asleep_or_dead(doc):
    cfg = make_config(doc)
    sim = Simulator(cfg, 3)
    sim.run()
    assert scan_radio_rows(sim, sim.rows) > 0


# ---------------------------------------------------------------------------
# mode selection


def test_forced_modes_recorded_in_trace():
    for mode in ("ct", "noct"):
        _, rows = run(make_config(range_extension_doc(mode=mode)), 0)
        modes = {detail(r)["mode"] for r in rows_for(rows, event="mode_selected")}
        assert modes == {mode}


def test_auto_mode_prefers_ct_for_unreachable_hop():
    _, rows = run(make_config(range_extension_doc(mode="auto")), 0)
    modes = {detail(r)["mode"] for r in rows_for(rows, event="mode_selected")}
    assert "ct" in modes


# ---------------------------------------------------------------------------
# collisions: only what overlaps at a receiver


def _send_data(nodes, plan):
    """Run a field of ``nodes`` ((x, y) by id, node 0 the sink) with no traffic
    of its own, after putting one 800-bit data packet on the air for each
    ``(offset_us, sender, addressee)`` of ``plan``, in order, the offsets
    counted from node 0's next wake-up; packet seqs count from 1."""
    field = [{"id": nid, "x": x, "y": y} for nid, (x, y) in nodes.items()]
    field[0]["role"] = "fr"
    doc = {"topology": {"nodes": field}, "traffic": {"packets_per_source": 0},
           "sim": {"horizon_s": 2.0}}
    sim = Simulator(make_config(doc), 0)
    t0 = sim.nodes[0].mac.schedule.next_wake(0)
    for seq, (offset, sender, to) in enumerate(plan, 1):
        sim.now = t0 + offset
        pkt = Packet(seq=seq, size_bits=800, source=sender, kind="data")
        sim._send([sim.nodes[sender]], [sim.nodes[to]], pkt, "data", (sim.nodes[sender],))
    sim.run()
    return sim


def test_transmissions_apart_decode_though_one_burst():
    """Node 0 hears packet 1 from node 1 over [0, 3200) us and packet 3 from
    node 2 over [3700, 6900) us, 0.5 ms apart. Packet 2, from node 3 to node 4
    over [2000, 5200), overlaps both and chains them into one burst, but node
    0 cannot hear it, so it decodes both."""
    sim = _send_data({0: (0.0, 0.0), 1: (50.0, 0.0), 2: (-50.0, 0.0), 3: (200.0, 0.0),
                      4: (250.0, 0.0)},
                     [(0, 1, 0), (2000, 3, 4), (3700, 2, 0)])
    assert sorted(detail(r)["packet"] for r in rows_for(sim.rows, event="rx", node=0)) == [1, 3]
    assert not rows_for(sim.rows, event="collision")
    assert sim.metrics.collisions == 0


def test_a_chain_of_overlaps_loses_every_link():
    """Node 0 hears 1 over [0, 3200) us, 2 over [2000, 5200) and 3 over
    [4000, 7200): 1 and 3 do not overlap, yet each overlaps 2, so node 0
    loses all three. Each start over what node 0 still hears writes one
    collision row: 2 over 1, then 3 over 2, each naming the packets it newly
    loses. The senders sit 104 m apart, so none hears another."""
    sim = _send_data({0: (0.0, 0.0), 1: (60.0, 0.0), 2: (-30.0, 51.96), 3: (-30.0, -51.96)},
                     [(0, 1, 0), (2000, 2, 0), (4000, 3, 0)])
    rows = rows_for(sim.rows, event="collision")
    rdvs = [detail(r)["rdv"] for r in rows_for(sim.rows, event="tx")]
    assert [(row[2], detail(row)) for row in rows] == [
        (0, {"lost_packets": [1, 2], "rdvs": rdvs[:2]}),
        (0, {"lost_packets": [3], "rdvs": rdvs[1:]})]
    assert [detail(r)["packet"] for r in rows_for(sim.rows, event="rx_corrupt")] == [1, 2, 3]
    assert not rows_for(sim.rows, event="rx", node=0)
    assert (sim.metrics.collisions, sim.metrics.collision_losses) == (2, 3)


def test_a_copy_whose_senders_are_all_on_the_air_fails_as_sender_busy():
    """A half-duplex radio sends one thing at a time: each sender of the first
    slot's cooperative copy is made to be on the air as the copy starts, so
    each is skipped with a ``tx_skipped_busy`` row and the seq fails as
    ``sender_busy``; the other slots deliver."""
    class Busy(Simulator):
        def _on_ct_coop(self, node, i):
            if i == 0:
                for sender in (node, *(self.nodes[h] for h in node.xfer.sf.helpers)):
                    sender.on_air_until = self.now + 1
            super()._on_ct_coop(node, i)

        _HANDLERS = dict(Simulator._HANDLERS, ct_coop=_on_ct_coop)

    sim = Busy(make_config(range_extension_doc(mode="ct", packets=3)), 0)
    sim.run()
    skipped = rows_for(sim.rows, event="tx_skipped_busy")
    assert sorted(r[2] for r in skipped) == [1, 2, 3]
    assert {detail(r)["tag"] for r in skipped} == {"ct_coop"}
    (row,) = rows_for(sim.rows, event="delivery_failure")
    assert detail(row) == {"reason": "sender_busy", "seqs": [0]}
    assert sim.fates == {0: "sender_busy", 1: "delivered", 2: "delivered"}


# ---------------------------------------------------------------------------
# memoised interval costs

def _trace_digest(doc):
    cfg = make_config(doc)
    sim = Simulator(cfg, 0)
    sim.run()
    return hashlib.sha256(render_trace(sim.rows, "", 0).encode()).hexdigest()


def test_cost_memo_does_not_leak_between_runs():
    """Two runs that differ only in idle and sleep power, back to back in one
    process, each give the trace of the same scenario run in a fresh
    interpreter; a cost memo shared between runs, or keyed without the
    radio parameters, would charge the second run the first run's joules."""
    docs = []
    for p_rx, p_sleep in ((1e-3, 1e-8), (3e-3, 5e-8)):
        doc = generated_doc(horizon_s=30.0)
        doc["radio"] = {"p_rx": p_rx, "p_sleep": p_sleep}
        docs.append(doc)
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    fresh = ("import json, sys, test_engine; "
             "print(test_engine._trace_digest(json.loads(sys.argv[1])))")
    alone = [subprocess.run([sys.executable, "-c", fresh, json.dumps(doc)], env=env,
                            capture_output=True, text=True, check=True).stdout.strip()
             for doc in docs]
    assert alone[0] != alone[1]  # the rows themselves differ: the header is blank
    assert [_trace_digest(doc) for doc in docs] == alone


# ---------------------------------------------------------------------------
# details formatted at their emit sites

def _dying_sender_doc(battery_j):
    # batteries that run out mid-exchange: at 0.0045 J a cooperative sender is
    # found empty when its slot comes (tx_skipped_dead), and at 0.00412 J a
    # receiver empties while it listens (charge_skipped_dead)
    doc = generated_doc(mode="ct", horizon_s=120.0, packets=20, topo_seed=3)
    doc["sim"]["battery_j"] = battery_j
    return doc


# every event kind the engine writes; the runs below reach them all
_EVENT_KINDS = {
    "batch_done", "candidate_reply", "charge_skipped_dead", "collision", "ct_request",
    "ct_reserved", "ct_slot_skipped", "delivered", "delivery_failure", "duplicate",
    "energy_account", "forwarding", "mode_selected", "node_died", "offered", "overhear",
    "reserve", "retry", "rx", "rx_corrupt", "station_notify", "superframe_continued",
    "timeout", "tx", "tx_skipped_busy", "tx_skipped_dead",
}


def test_details_are_canonical_sorted_key_json():
    """Each site's detail text is what ``json.dumps(detail, sort_keys=True)``
    gives for the detail it holds, over runs that reach every event kind."""
    runs = [(doc, seed) for doc, seed, _, _ in SCENARIOS.values()]
    runs += [(_dying_sender_doc(battery_j), 0) for battery_j in (0.0045, 0.00412)]
    kinds = set()
    for doc, seed in runs:
        _, rows = run(make_config(doc), seed)
        for _, _, _, event, text, _ in rows:
            assert json.dumps(json.loads(text), sort_keys=True) == text, (event, text)
            kinds.add(event)
    assert kinds == _EVENT_KINDS


# ---------------------------------------------------------------------------
# idle and sleep cost of an interval, reservations included

_FRAME, _ACTIVE, _MS = 100_000, 10_000, 1000
_PARAMS = RadioEnergyParams()


@st.composite
def _booked_nodes(draw):
    """A wake offset (wrapping windows included), disjoint, possibly touching
    reservations in booking order, and an interval [t0, t1), all on a
    millisecond grid."""
    offset = draw(st.integers(0, _FRAME // _MS - 1)) * _MS
    cuts = sorted(draw(st.sets(st.integers(0, 4 * _FRAME // _MS), max_size=12)))
    pieces = [(a * _MS, b * _MS) for a, b in zip(cuts, cuts[1:])]
    booked = draw(st.permutations([p for p in pieces if draw(st.booleans())]))  # neighbours touch
    t0, t1 = sorted(draw(st.integers(0, 4 * _FRAME // _MS)) * _MS for _ in range(2))
    return offset, booked, t0, t1


@settings(max_examples=300)
@given(_booked_nodes())
@example((95_000,                  # a wrapping window
          [(97_000, 103_000),      # spans the frame edge
           (90_000, 97_000),       # touches it from below
           (103_000, 110_000)],    # and from above
          0, 2 * _FRAME))
def test_interval_cost_matches_millisecond_scan(case):
    """Both forms of the wake rule match a scan that knows only the window
    formula and the bookings: ``MacState.is_awake`` at every grid point, and
    ``awake_us`` and the engine's idle/sleep cost over [t0, t1)."""
    offset, booked, t0, t1 = case
    mac = MacState(node=0, schedule=DutySchedule(_FRAME, _ACTIVE, offset))
    for s, e in booked:
        assert reserve(mac, s, e)
    grid = range(t0, t1, _MS)
    scan = [(t - offset) % _FRAME < _ACTIVE or any(s <= t < e for s, e in booked)
            for t in grid]
    assert [mac.is_awake(t) for t in grid] == scan
    awake = _MS * sum(scan)
    assert mac.awake_us(t0, t1) == awake
    sim = SimpleNamespace(params=_PARAMS)
    assert Simulator._interval_cost(sim, SimpleNamespace(mac=mac), t0, t1) == (
        (awake / US) * _PARAMS.p_rx, ((t1 - t0 - awake) / US) * _PARAMS.p_sleep)


# ---------------------------------------------------------------------------
# one shared idle/sleep draw per housekeeping sweep


class _PerNodeSweep(Simulator):
    """The reference sweep: every listed node goes through ``_account``."""

    def _on_housekeeping(self, nodes):
        alive = [node for node in nodes if self._account(node)]
        nxt = self.now + self.cfg.sim.housekeeping_frames * self.frame_us
        if nxt <= self.horizon_us and alive:
            self._schedule(nxt, "housekeeping", alive)

    _HANDLERS = dict(Simulator._HANDLERS, housekeeping=_on_housekeeping)


def _middle_dies_doc():
    """Five nodes on a line; node 2's battery lasts under three frames, so it
    dies between the third sweep's shared neighbours 0, 1 and 3, 4."""
    nodes = [{"id": i, "x": 40.0 * i, "y": 0.0} for i in range(5)]
    nodes[0]["role"], nodes[2]["initial_j"] = "fr", 2.5e-5
    return {"topology": {"nodes": nodes},
            "traffic": {"sources": [4], "packets_per_source": 0},
            "sim": {"horizon_s": 1.0, "housekeeping_frames": 1}}


@st.composite
def _swept_runs(draw):
    """A generated field in any mode, with a sweep period of 1-5 frames, a
    horizon that may end mid-frame or inside the first period, batteries
    that may empty between two sweeps, wake-ups booked ahead that no event
    may come to (as for a helper whose broadcast never arrives), and reply
    timeouts and retry caps under which replies come late, requests are
    retried and CT falls back to no-CT."""
    node_count = draw(st.integers(2, 16))
    doc = generated_doc(node_count=node_count,
                        area_m=draw(st.sampled_from([60.0, 150.0, 250.0])),
                        active_ms=draw(st.sampled_from([1.0, 2.0, 5.0])),
                        mode=draw(st.sampled_from(["ct", "noct", "auto"])),
                        horizon_s=(draw(st.integers(0, 60)) * 100
                                   + draw(st.sampled_from([0, 1, 37, 99]))) / 1000 or 0.001,
                        sources=draw(st.integers(0, 3)),
                        packets=draw(st.integers(0, 4)),
                        topo_seed=draw(st.integers(0, 50)))
    doc["sim"]["housekeeping_frames"] = draw(st.integers(1, 5))
    doc["mac"]["timeout_slots"] = draw(st.sampled_from([0.05, 0.3, 2.0]))
    doc["mac"]["retry_cap"] = draw(st.integers(0, 3))
    doc["sim"]["battery_j"] = draw(st.sampled_from([2e-6, 1e-5, 4e-5, 2e-4, 2.0]))
    bookings = draw(st.lists(st.tuples(st.integers(0, node_count - 1), st.integers(0, 6_000),
                                       st.integers(1, 30)), max_size=3))
    return doc, [(nid, start * _MS, (start + dur) * _MS) for nid, start, dur in bookings]


@settings(max_examples=80, deadline=None)
@given(_swept_runs(), st.integers(0, 5))
@example((generated_doc(node_count=12, horizon_s=0.25, sources=2, packets=2), []), 0)  # < a period
@example((dict(two_node_doc(packets=0), sim={"horizon_s": 1.0, "housekeeping_frames": 1}),
          [(1, 150 * _MS, 180 * _MS)]), 0)  # a wake-up booked between two quiet sweeps
@example((dict(generated_doc(node_count=6, sources=0, packets=0),
               sim={"horizon_s": 1.0, "housekeeping_frames": 1}),
          [(3, 150 * _MS, 180 * _MS)]), 0)  # that booking splits the shared nodes' run
@example((_middle_dies_doc(), []), 0)  # so does a middle node that empties at a sweep
def test_shared_draw_sweep_matches_per_node_accounting(run_case, seed):
    doc, bookings = run_case
    cfg = make_config(doc)
    shared, reference = Simulator(cfg, seed), _PerNodeSweep(cfg, seed)
    for sim in (shared, reference):
        for nid, start, end in bookings:
            reserve(sim.nodes[nid].mac, start, end)
    metrics, expected = shared.run(), reference.run()
    assert shared.rows == reference.rows
    assert metrics.residual_by_node == expected.residual_by_node
    assert metrics.to_dict() == expected.to_dict()
