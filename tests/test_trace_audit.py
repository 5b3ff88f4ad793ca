"""The trace audit over the golden scenarios and the lifetime document.

Every check of ``trace_audit.CHECKS`` runs over the six golden scenarios and
``lifetime_doc`` at generator seeds 1-3 in all three modes; each scenario
runs once per module. A (check, scenario) pair that fails today is a strict
xfail whose reason names the defect and where ROADMAP lists it; the fixing
change removes the pair. Only ``dead_senders`` and ``half_duplex_rx`` have
such pairs. Hand-made traces show that each check catches what it is for.
"""

import json

import pytest

import trace_audit
from oscmac import run

from conftest import lifetime_doc, make_config
from test_golden import SCENARIOS as GOLDEN

MODES = ("ct", "noct", "auto")
SCENARIOS = {
    **{name: (doc, seed) for name, (doc, seed, _, _) in GOLDEN.items()},
    **{f"lifetime_gen{g}_{mode}": (lifetime_doc(mode=mode, topo_seed=g), 0)
       for g in (1, 2, 3) for mode in MODES},
}

# check -> (defect and where ROADMAP lists it, scenarios it fails on)
KNOWN = {
    "dead_senders": (
        "helpers' cooperative copy of a seq whose transmitter has died is refused as a duplicate, "
        "since the death failed the seq (sender_dead); listed in ROADMAP's small open defects",
        ("auto", "lifetime_gen1_ct", "lifetime_gen1_auto", "lifetime_gen2_ct",
         "lifetime_gen2_auto", "lifetime_gen3_ct")),
    "half_duplex_rx": (
        "a node hears transmissions that overlap its own; "
        "ROADMAP item 9's half-duplex radio fixes it",
        tuple(name for name in SCENARIOS if name != "explicit")),
}


def _cases():
    for scenario in SCENARIOS:
        for check in trace_audit.CHECKS:
            reason, failing = KNOWN.get(check, (None, ()))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if scenario in failing else []
            yield pytest.param(check, scenario, marks=marks, id=f"{check}-{scenario}")


@pytest.fixture(scope="module")
def traces():
    """Scenario name -> its trace rows, each scenario run on first use."""
    rows = {}

    def of(name):
        if name not in rows:
            doc, seed = SCENARIOS[name]
            rows[name] = run(make_config(doc), seed)[1]
        return rows[name]

    return of


@pytest.mark.parametrize("check, scenario", _cases())
def test_trace_passes_audit(check, scenario, traces):
    violations = trace_audit.CHECKS[check](traces(scenario))
    assert not violations, f"{len(violations)} rows, first {violations[:3]}"


def test_known_failures_name_checks_and_scenarios():
    for _, failing in KNOWN.values():
        assert set(failing) <= set(SCENARIOS)
    assert set(KNOWN) <= set(trace_audit.CHECKS)


# ---------------------------------------------------------------------------
# hand-made traces: each check flags exactly the rows that break its rule


def _trace(*rows):
    """``(time_us, node, event, detail[, residual_j])`` rows as ``run`` returns them."""
    return [(t, seq, node, event, json.dumps(detail, sort_keys=True), *(residual or (1.0,)))
            for seq, (t, node, event, detail, *residual) in enumerate(rows)]


def _tx(t, node, rdv, end, packet=-1):
    return (t, node, "tx", {"end_us": end, "j": 0.0, "packet": packet, "rdv": rdv})


HAND_MADE = {
    "clock": (_trace((5, 1, "retry", {}), (5, 1, "retry", {}), (3, 2, "retry", {}),
                     (4, 2, "retry", {})),
              [2]),
    "joules": (_trace((0, 1, "retry", {}, 1.0),
                      (1, 1, "energy_account", {"idle_j": 0.125, "sleep_j": 0.125}, 0.75),
                      (2, 1, "rx", {"j": 0.25, "rdv": None}, 0.5),
                      (3, 1, "retry", {}, 0.5),
                      (4, 1, "tx", {"j": 0.25}, 0.3),      # draws 0.25, loses 0.2
                      (5, 1, "retry", {}, 0.25)),          # loses 0.05 with no draw
               [4, 5]),
    "fates_duplicates": (_trace((0, 0, "delivered", {"seq": 0}), (1, 0, "delivered", {"seq": 1}),
                                (2, 0, "delivered", {"seq": 0})),
                         [2]),
    "fates_unaccounted": (_trace(
        (0, 1, "offered", {"seqs": [0, 1, 2, 3]}),
        (1, 2, "forwarding", {"seq": 0}),             # 0 stranded: node 2 dies with it
        (2, 1, "delivery_failure", {"seqs": [1]}),    # 1 failed with a reason
        _tx(3, 1, 5, 4, packet=2),                    # 2 sent, then never heard of
        (4, 1, "batch_done", {"count": 3}),           # 3 still queued at live node 1
        (5, 2, "node_died", {}),
        (6, 3, "offered", {"seqs": [4]}),
        (7, 0, "delivered", {"seq": 4})),
        [1, 3]),
    "dead_senders": (_trace((0, 2, "duplicate", {"from": 1, "seq": 0}),    # 1 still alive
                            (1, 1, "node_died", {}),
                            (2, 2, "duplicate", {"from": 1, "seq": 0}),    # from dead node 1
                            (2, 3, "duplicate", {"from": 4, "seq": 1}),    # 4 alive
                            (3, 0, "delivered", {"from": 1, "seq": 2})),   # not a duplicate
                     [2]),
    "collisions": (_trace(_tx(0, 1, 1, 10), _tx(10, 2, 2, 20), _tx(15, 3, 3, 25),
                          (30, 4, "collision", {"rdvs": [1, 2]}),      # they only touch
                          (30, 4, "collision", {"rdvs": [1, 2, 3]})),  # 2 and 3 overlap
                   [3]),
    "late_rx": (_trace(_tx(0, 1, 1, 10), _tx(5, 2, 2, 20),
                       (8, 5, "rx", {"rdv": 2}),             # before rdv 2 ends
                       (10, 3, "rx", {"rdv": 1}),
                       (10, 4, "rx", {"rdv": None}),         # the station's reply
                       (12, 3, "overhear", {"rdv": 1}),      # after rdv 1 ended
                       (20, 3, "rx_corrupt", {"rdv": 2}),
                       (25, 4, "rx_corrupt", {"rdv": 2})),   # after rdv 2 ended
                [2, 5, 7]),
    "half_duplex_tx": (_trace(_tx(0, 1, 1, 10), _tx(5, 1, 2, 15), _tx(15, 1, 3, 20),
                              _tx(5, 2, 4, 9)),
                       [1]),
    "half_duplex_rx": (_trace(_tx(0, 1, 1, 10), _tx(5, 2, 2, 15), _tx(10, 3, 3, 20),
                              (15, 1, "rx", {"rdv": 2}),           # overlaps its rdv 1
                              (15, 3, "overhear", {"rdv": 2}),     # overlaps its rdv 3
                              (20, 1, "rx_corrupt", {"rdv": 3}),   # only touches rdv 1
                              (20, 2, "rx", {"rdv": None})),       # the station's reply
                       [3, 4]),
    "dead_nodes": (_trace((0, 1, "rx", {"rdv": 1}), (1, 1, "node_died", {}),
                          (2, 1, "reserve", {}), (3, 1, "overhear", {"rdv": 2})),
                   [3]),
    "reservations": (_trace(
        (0, 1, "reserve", {"accepted": True, "start_us": 0, "end_us": 10}),
        (0, 1, "reserve", {"accepted": False, "start_us": 5, "end_us": 8}),
        (0, 2, "reserve", {"accepted": True, "start_us": 5, "end_us": 8}),
        (0, 1, "reserve", {"accepted": True, "start_us": 10, "end_us": 20}),
        (0, 1, "reserve", {"accepted": True, "start_us": 15, "end_us": 25})),
        [4]),
    "decisions": (_trace(
        (0, 1, "mode_selected", {"mode": "noct"}),
        (1, 1, "batch_done", {"count": 1}),
        (2, 1, "candidate_reply", {}),
        (2, 1, "mode_selected", {"mode": "noct"}),
        (2, 1, "mode_selected", {"mode": "noct"}),           # the same decision again
        (3, 1, "timeout", {"tag": "ct_ack"}),
        (3, 1, "mode_selected", {"mode": "noct"}),           # fallback after the cap
        (4, 1, "timeout", {"tag": "data_ack"}),
        (4, 1, "mode_selected", {"mode": "noct"}),           # no new decision
        (5, 2, "mode_selected", {"mode": "ct"})),
        [4, 8]),
}


def test_every_check_has_a_hand_made_trace():
    assert set(HAND_MADE) == set(trace_audit.CHECKS)


@pytest.mark.parametrize("check", sorted(HAND_MADE))
def test_check_flags_its_violations(check):
    rows, violating = HAND_MADE[check]
    assert [row[1] for row in trace_audit.CHECKS[check](rows)] == violating
