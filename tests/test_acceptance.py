"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them live). Criterion 6 is asserted exactly as stated even though the
default radio constants make it unsatisfiable; it is kept as a strict
expected failure so a silent fix would be noticed. See the README for
the arithmetic.
"""

import hashlib
import json
import math
import random
import resource
import time

import pytest

from oscmac.cli import main
from oscmac.energy import RadioEnergyParams, tx_energy
from oscmac.engine import Simulator, run
from oscmac.selection import CtRequest, WiLemStation, elect_helpers
from conftest import generated_doc, make_config, range_extension_doc, two_node_doc
from test_engine import scan_radio_rows

PARAMS = RadioEnergyParams()


def report(num, name, ok, note=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"[acceptance {num:>2}] {name}: {status}{suffix}")
    assert ok, f"acceptance criterion {num} ({name}) failed{suffix}"


# ---------------------------------------------------------------------------


def oracle_tx(bits, d, p):
    """Independent closed-form transmit cost, coded separately on purpose."""
    amp = p.e_fs * d * d if d < math.sqrt(p.e_fs / p.e_mp) else p.e_mp * d ** 4
    return bits * (p.e_elec + amp)


def test_c01_energy_model_oracle():
    rng = random.Random(0xC01)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        bits = rng.randint(1, 10_000)
        d = rng.uniform(0.0, 300.0)
        got = tx_energy(bits, d, PARAMS)
        want = oracle_tx(bits, d, PARAMS)
        worst = max(worst, abs(got - want) / want)
    d0 = PARAMS.d0
    below = 1 * PARAMS.e_elec + PARAMS.e_fs * d0 * d0
    above = 1 * PARAMS.e_elec + PARAMS.e_mp * d0 ** 4
    cont = abs(below - above) / max(below, above)
    elapsed = time.perf_counter() - t0
    report(1, "transmit energy closed-form oracle",
           worst <= 1e-12 and cont <= 1e-15 and elapsed < 1.0,
           f"max rel err {worst:.2e}, d0 continuity {cont:.2e}, {elapsed:.3f}s")


def test_c02_worked_numbers():
    a = tx_energy(800, 50.0, PARAMS)
    b = tx_energy(800, 100.0, PARAMS)
    ok = (abs(a - 6.0e-5) <= 1e-12 * 6.0e-5
          and abs(b - 1.44e-4) <= 1e-12 * 1.44e-4)
    report(2, "hand-derived transmit energies", ok,
           f"tx(800,50)={a:.6e}, tx(800,100)={b:.6e}")


def test_c03_selection_oracle():
    rng = random.Random(0xC03)
    t0 = time.perf_counter()
    ok = True
    for _ in range(500):
        n = rng.randint(1, 8)
        s = rng.randint(1, 400)
        d = rng.uniform(0.0, 150.0)
        per_packet = tx_energy(8 * s, d, PARAMS)
        station = WiLemStation(registry={i: rng.uniform(0.0, 5e-3)
                                         for i in range(rng.randint(0, 20))})
        req = CtRequest(packet_size_bytes=s, packet_count=n,
                        next_hop_distance=d, neighbor_ids=tuple(station.registry))
        elected, _ = station.handle_ct_request(req, PARAMS)
        bits = 8 * s
        thr = PARAMS.e_elec * bits + PARAMS.e_fs * bits * d * d
        ranked = sorted((-e, i) for i, e in station.registry.items())
        expect = tuple(i for neg, i in ranked
                       if -neg >= thr and -neg / (n * per_packet) >= 1.0)
        ok = ok and elected.helpers == expect
    # boundary: energy exactly N * per-packet cost is elected (inclusive)
    boundary = elect_helpers({1: 5 * 1e-4}, 5, 1e-4)
    ok = ok and boundary.helpers == (1,)
    elapsed = time.perf_counter() - t0
    report(3, "station election brute-force oracle",
           ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_c04_election_scale_invariance():
    rng = random.Random(0xC04)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 8)
        per_packet = rng.uniform(1e-5, 1e-3)
        c = rng.uniform(1e-3, 1e3)
        energies = {i: rng.uniform(0.0, 5e-2) for i in range(rng.randint(1, 15))}
        scaled = {i: e * c for i, e in energies.items()}
        a = elect_helpers(energies, n, per_packet)
        b = elect_helpers(scaled, n, per_packet * c)
        ok = ok and a.helpers == b.helpers and a.leader == b.leader
    report(4, "election invariant under energy rescaling", ok)


def test_c05_range_extension_scenario():
    t0 = time.perf_counter()
    m_no, _ = run(make_config(range_extension_doc(mode="noct")), 0)
    m_ct, _ = run(make_config(range_extension_doc(mode="ct")), 0)
    elapsed = time.perf_counter() - t0
    ok = (m_no.packets_delivered == 0
          and m_ct.packets_delivered == m_ct.packets_offered == 3
          and elapsed < 1.0)
    report(5, "cooperative group closes a 120 m hop",
           ok, f"noct {m_no.packets_delivered}/3, ct {m_ct.packets_delivered}/3, "
               f"{elapsed:.3f}s")


@pytest.mark.xfail(strict=True,
                   reason="under the default constants the 10 m broadcast still "
                          "pays the per-bit electronics floor, so its cost is "
                          "about 16% of the 120 m direct cost, not under 1%; "
                          "only the amplifier component meets the bound")
def test_c06_trn_broadcast_under_one_percent_of_direct():
    L = 800
    broadcast = tx_energy(L, 10.0, PARAMS)
    direct = tx_energy(L, 120.0, PARAMS)
    ok = broadcast < 0.01 * direct
    report(6, "short broadcast below 1% of the long direct hop", ok,
           f"ratio {broadcast / direct:.4f} (documented expected failure)")


def test_c06b_amplifier_component_meets_the_bound():
    """Companion check: the distance-dependent part of the 10 m broadcast
    is far below 1% of the 120 m direct cost (d^2 vs d^4 regimes)."""
    L = 800
    amp_broadcast = L * PARAMS.e_fs * 10.0 ** 2
    direct = tx_energy(L, 120.0, PARAMS)
    report(6, "broadcast amplifier term below 1% of the direct hop",
           amp_broadcast < 0.01 * direct,
           f"ratio {amp_broadcast / direct:.2e}")


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_c07_byte_identical_traces(tmp_path):
    doc = generated_doc()
    cfg_path = tmp_path / "s.json"
    cfg_path.write_text(json.dumps(doc))
    hashes = []
    for tag in ("a", "b"):
        trace = tmp_path / f"{tag}.trace.csv"
        assert main(["run", "--config", str(cfg_path), "--seed", "9",
                     "--trace", str(trace),
                     "--metrics", str(tmp_path / f"{tag}.metrics.json")]) == 0
        hashes.append(sha256_file(trace))
    ok = hashes[0] == hashes[1]
    # the side-by-side comparison must also be reproducible
    for d in ("c1", "c2"):
        sub = tmp_path / d
        sub.mkdir()
        (sub / "s.json").write_text(json.dumps(doc))
        assert main(["compare", "--config", str(sub / "s.json"), "--seeds", "1"]) == 0
    for mode in ("ct", "noct"):
        ok = ok and (sha256_file(tmp_path / "c1" / f"s.{mode}.seed0.trace.csv")
                     == sha256_file(tmp_path / "c2" / f"s.{mode}.seed0.trace.csv"))
    report(7, "byte-identical traces for identical config and seed", ok)


def trace_summed_charges(rows):
    total = 0.0
    for _, _, _, event, detail_json, _ in rows:
        d = json.loads(detail_json)
        if event == "energy_account":
            total += d["idle_j"] + d["sleep_j"]
        elif "j" in d:
            total += d["j"]
    return total


def test_c08_conservation_and_no_ghost_activity():
    ok = True
    notes = []
    for doc in (two_node_doc(packets=3), range_extension_doc(mode="ct"),
                range_extension_doc(mode="noct"), generated_doc()):
        cfg = make_config(doc)
        sim = Simulator(cfg, 4)
        metrics = sim.run()
        spent = sum(metrics.initial_by_node[n] - metrics.residual_by_node[n]
                    for n in metrics.initial_by_node)
        charged = trace_summed_charges(sim.rows)
        err = abs(spent - charged)
        notes.append(f"{err:.1e}J")
        ok = ok and err <= 1e-9
        scan_radio_rows(sim, sim.rows)  # asserts internally
    report(8, "energy conservation and no dead/sleeping radio activity",
           ok, "errors " + ", ".join(notes))


def test_c09_collision_semantics():
    doc = {
        "topology": {"nodes": [
            {"id": 0, "x": 60.0, "y": 0.0, "role": "fr"},
            {"id": 1, "x": 0.0, "y": 0.0},
            {"id": 2, "x": 120.0, "y": 0.0},
            {"id": 3, "x": 60.0, "y": 50.0},
        ]},
        "traffic": {"packets_per_source": 0},
        "sim": {"horizon_s": 2.0},
    }
    from oscmac.mac import Packet

    # two independent senders overlapping at the common receiver
    sim = Simulator(make_config(doc), 0)
    rx_node = sim.nodes[0]
    t = rx_node.mac.schedule.next_wake(0)
    sim.now = t
    for sender in (1, 2):
        pkt = Packet(seq=sender, size_bits=800, source=sender, kind="data")
        sim._send([sim.nodes[sender]], [sim.nodes[0]], pkt, "data", (sim.nodes[sender],))
    sim.run()
    two_senders_ok = (sim.metrics.collisions == 1
                      and sim.metrics.collision_losses == 2)

    # a three-sender cooperative group is one rendezvous: no collision
    sim2 = Simulator(make_config(doc), 0)
    t = sim2.nodes[0].mac.schedule.next_wake(0)
    sim2.now = t
    pkt = Packet(seq=7, size_bits=800, source=1, kind="data")
    sim2._send([sim2.nodes[n] for n in (1, 2, 3)], [sim2.nodes[0]], pkt, "data",
               (sim2.nodes[1],), coop=True)
    sim2.run()
    rx_rows = [r for r in sim2.rows if r[3] == "rx" and r[2] == 0]
    group_ok = sim2.metrics.collisions == 0 and len(rx_rows) == 1
    report(9, "collision counting and cooperative self-immunity",
           two_senders_ok and group_ok,
           f"collisions {sim.metrics.collisions}, losses "
           f"{sim.metrics.collision_losses}; group collisions "
           f"{sim2.metrics.collisions}")


def test_c10_scale_and_runtime():
    doc = generated_doc(node_count=50, area_m=300.0, active_ms=2.0,
                        mode="auto", horizon_s=1000.0, sources=5,
                        packets=10, jitter_ms=200.0)
    cfg = make_config(doc)
    t0 = time.perf_counter()
    metrics, rows = run(cfg, 0)
    elapsed = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = elapsed < 5.0 and peak_mb < 200.0 and metrics.events_processed == len(rows)
    report(10, "50 nodes for 10,000 frames within time and memory budget",
           ok, f"{elapsed:.2f}s, peak {peak_mb:.0f} MB, "
               f"{metrics.events_processed} events")
