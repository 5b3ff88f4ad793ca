import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from oscmac import mac
from oscmac.energy import RadioEnergyParams, rx_energy, tx_energy
from oscmac.engine import US, Simulator, run
from oscmac.mac import DutySchedule, MacState, reserve
from oscmac.trace import render_trace
from conftest import generated_doc, make_config, range_extension_doc, two_node_doc
from test_golden import SCENARIOS


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


# ---------------------------------------------------------------------------
# conservation and bookkeeping


def late_reply_doc():
    """CT with a timeout far shorter than a handshake: most acks and replies
    arrive after the sender gave up, so the stale-reply guards of
    ``_on_ct_ack_rx``, ``_on_noct_reply_rx`` and ``_on_noct_request`` run."""
    doc = generated_doc(mode="ct")
    doc["mac"]["timeout_slots"] = 0.05
    return doc


def test_late_replies_are_dropped(monkeypatch):
    """A ``ct_ack`` or ``noct_reply`` that arrives after its timer fired
    changes nothing: each one the engine reports to ``mac.step`` matches a
    row of its table, and some received ``ct_ack``s reserve no slots."""
    step = mac.step

    def checked_step(state, event, t_us):
        if event in ("ct_ack", "noct_reply"):
            assert (state.phase, event) in mac._TRANSITIONS, (state.phase, event)
        return step(state, event, t_us)

    monkeypatch.setattr(mac, "step", checked_step)
    _, rows = run(make_config(late_reply_doc()), 3)
    acks = [r for r in rows_for(rows, event="rx") if detail(r)["tag"] == "ct_ack"]
    assert len(acks) > len(rows_for(rows, event="ct_reserved"))


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
    assert metrics.energy_timeline


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
        if sim.nodes[nid].schedule.is_awake(t):
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

def _dying_sender_doc():
    # a battery at which a cooperative sender is found empty when its slot
    # comes (tx_skipped_dead) and a receiver empties while it listens
    # (charge_skipped_dead)
    doc = generated_doc(mode="ct", horizon_s=120.0, packets=20, topo_seed=3)
    doc["sim"]["battery_j"] = 0.004182
    return doc


# every event kind the engine writes; the runs below reach them all
_EVENT_KINDS = {
    "batch_done", "candidate_reply", "charge_skipped_dead", "collision", "ct_request",
    "ct_reserved", "ct_slot_skipped", "delivered", "delivery_failure", "energy_account",
    "forwarding", "mode_selected", "node_died", "offered", "overhear", "reserve", "retry",
    "rx", "rx_corrupt", "station_notify", "superframe_continued", "timeout", "tx",
    "tx_skipped_dead",
}


def test_details_are_canonical_sorted_key_json():
    """Each site's detail text is what ``json.dumps(detail, sort_keys=True)``
    gives for the detail it holds, over runs that reach every event kind."""
    runs = [(doc, seed) for doc, seed, _, _ in SCENARIOS.values()]
    runs += [(late_reply_doc(), 3), (_dying_sender_doc(), 0)]
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
    """A node on a schedule (wrapping windows included) with disjoint,
    possibly touching reservations in booking order, all on a millisecond
    grid, and an interval [t0, t1) on the same grid."""
    offset = draw(st.integers(0, _FRAME // _MS - 1)) * _MS
    cuts = sorted(draw(st.sets(st.integers(0, 4 * _FRAME // _MS), max_size=12)))
    pieces = [(a * _MS, b * _MS) for a, b in zip(cuts, cuts[1:])]
    booked = [p for p in pieces if draw(st.booleans())]  # neighbours touch
    mac = MacState(node=0)
    for rdv, (s, e) in enumerate(draw(st.permutations(booked))):
        assert reserve(mac, s, e, rdv)
    t0, t1 = sorted(draw(st.integers(0, 4 * _FRAME // _MS)) * _MS for _ in range(2))
    return SimpleNamespace(schedule=DutySchedule(_FRAME, _ACTIVE, offset), mac=mac), t0, t1


@settings(max_examples=300)
@given(_booked_nodes())
@example((SimpleNamespace(schedule=DutySchedule(_FRAME, _ACTIVE, 95_000),  # wrapping window
                          mac=MacState(node=0, reservations=[
                              (97_000, 103_000, 1),    # spans the frame edge
                              (90_000, 97_000, 2),     # touches it from below
                              (103_000, 110_000, 3)])),  # and from above
          0, 2 * _FRAME))
def test_interval_cost_matches_millisecond_scan(case):
    node, t0, t1 = case
    awake = sum(_MS for t in range(t0, t1, _MS)
                if node.schedule.is_awake(t)
                or any(s <= t < e for s, e, _ in node.mac.reservations))
    sim = SimpleNamespace(params=_PARAMS)
    assert Simulator._interval_cost(sim, node, t0, t1) == (
        (awake / US) * _PARAMS.p_rx, ((t1 - t0 - awake) / US) * _PARAMS.p_sleep)


# ---------------------------------------------------------------------------
# one shared idle/sleep draw per housekeeping sweep


class _PerNodeSweep(Simulator):
    """The reference sweep: every listed node goes through ``_account``."""

    def _on_housekeeping(self, nodes):
        t_s = self.now / US
        alive = []
        for node in nodes:
            if self._account(node):
                alive.append(node)
            self.metrics.energy_timeline.append((t_s, node.id, node.battery.residual))
        nxt = self.now + self.cfg.sim.housekeeping_frames * self.frame_us
        if nxt <= self.horizon_us and alive:
            self._schedule(nxt, "housekeeping", alive)

    _HANDLERS = dict(Simulator._HANDLERS, housekeeping=_on_housekeeping)


@st.composite
def _swept_runs(draw):
    """A generated field in any mode, with a sweep period of 1-5 frames, a
    horizon that may end mid-frame or inside the first period, batteries
    that may empty between two sweeps, and wake-ups booked ahead that no
    event may come to (as for a helper whose broadcast never arrives)."""
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
    doc["sim"]["battery_j"] = draw(st.sampled_from([2e-6, 1e-5, 4e-5, 2e-4, 2.0]))
    bookings = draw(st.lists(st.tuples(st.integers(0, node_count - 1), st.integers(0, 6_000),
                                       st.integers(1, 30)), max_size=3))
    return doc, [(nid, start * _MS, (start + dur) * _MS) for nid, start, dur in bookings]


@settings(max_examples=80, deadline=None)
@given(_swept_runs(), st.integers(0, 5))
@example((generated_doc(node_count=12, horizon_s=0.25, sources=2, packets=2), []), 0)  # < a period
@example((dict(two_node_doc(packets=0), sim={"horizon_s": 1.0, "housekeeping_frames": 1}),
          [(1, 150 * _MS, 180 * _MS)]), 0)  # a wake-up booked between two quiet sweeps
def test_shared_draw_sweep_matches_per_node_accounting(run_case, seed):
    doc, bookings = run_case
    cfg = make_config(doc)
    shared, reference = Simulator(cfg, seed), _PerNodeSweep(cfg, seed)
    for sim in (shared, reference):
        for rdv, (nid, start, end) in enumerate(bookings):
            reserve(sim.nodes[nid].mac, start, end, -1 - rdv)
    metrics, expected = shared.run(), reference.run()
    assert shared.rows == reference.rows
    assert metrics.energy_timeline == expected.energy_timeline
    assert metrics.residual_by_node == expected.residual_by_node
    assert metrics.to_dict() == expected.to_dict()
