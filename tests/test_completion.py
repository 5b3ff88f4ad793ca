"""Every mode runs to completion on busy fields, each packet with one fate.

A run that raises gives no answer at all, so these runs carry enough load to
keep the air busy for seconds: forced CT once raised ``KeyError`` in its
broadcast handler on most such fields, because a reception was dispatched
only when a long burst of overlapping transmissions ended, after its
transfer was over. Each finished run must pass the trace audit's fate checks.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import trace_audit
from oscmac import run

from conftest import generated_doc, make_config

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from sample import RUN_SEED, WORKLOADS, scenario_json  # noqa: E402  -- read only

MODES = ("noct", "ct", "auto")
FATE_CHECKS = ("fates_duplicates", "fates_unaccounted")


def assert_fates_hold(rows):
    for name in FATE_CHECKS:
        violations = trace_audit.CHECKS[name](rows)
        assert not violations, f"{name}: {len(violations)} rows, first {violations[:3]}"


def busy_doc(node_count, area_m, mode, sources, packets, battery_j, topo_seed, horizon_s=60.0):
    doc = generated_doc(node_count=node_count, area_m=area_m, active_ms=2.0, mode=mode,
                        horizon_s=horizon_s, sources=sources, packets=packets,
                        topo_seed=topo_seed)
    doc["sim"]["battery_j"] = battery_j
    return doc


def test_forced_ct_on_a_busy_field_runs_to_completion():
    """20 nodes on 150 m, 5 sources x 20 packets: a broadcast once decoded
    after its transfer had ended, 0.03 s of wall time into the run."""
    metrics, rows = run(make_config(busy_doc(20, 150.0, "ct", 5, 20, 0.05, 15)), 0)
    assert metrics.packets_offered == 100
    assert_fates_hold(rows)


@st.composite
def busy_fields(draw):
    """Generated fields in every mode with up to 10 sources x 20 packets,
    batteries that may empty inside the horizon, and a run seed."""
    doc = busy_doc(node_count=draw(st.integers(6, 30)),
                   area_m=draw(st.sampled_from([120.0, 150.0, 200.0, 300.0])),
                   mode=draw(st.sampled_from(MODES)),
                   sources=draw(st.integers(1, 10)), packets=draw(st.integers(1, 20)),
                   battery_j=draw(st.sampled_from([0.003, 0.05, 2.0])),
                   topo_seed=draw(st.integers(0, 50)),
                   horizon_s=draw(st.sampled_from([12.0, 60.0])))
    return doc, draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(busy_fields())
@example((busy_doc(30, 200.0, "ct", 10, 20, 0.05, 2), 0))  # once raised in ct's broadcast handler
def test_busy_fields_run_to_completion(field):
    doc, seed = field
    _, rows = run(make_config(doc), seed)
    assert_fates_hold(rows)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_north_star_matrix_cell_runs_to_completion(workload, mode):
    """Each benchmark workload's field at benchmark seed 0, in each mode."""
    doc = json.loads(scenario_json(workload, 0))
    doc["mac"]["mode"] = mode
    metrics, rows = run(make_config(doc), RUN_SEED)
    assert metrics.packets_offered > 0
    assert_fates_hold(rows)
