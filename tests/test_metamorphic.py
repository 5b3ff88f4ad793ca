"""Metamorphic relations: answers that cannot depend on what the model ignores.

A single run has no oracle, but pairs of runs do (Chen et al., "Metamorphic
testing: a review of challenges and opportunities", ACM Computing Surveys
51(1), 2018). Reach depends only on distances, and a run only on what
happened before each moment, so:

- *isometry*: mirroring x, rotating by 90 or 180 degrees or swapping the axes
  of a field gives the same trace and metrics bytes. Each generated field is
  entered again as explicit nodes with ``fr: 0``, its positions transformed.
  Negating or swapping coordinates leaves every ``math.hypot`` argument pair
  exact up to sign and order, and ``hypot`` rounds a swapped pair alike on
  the Pythons tested. Should one ever round it differently, keep mirror and
  180 degrees (exact by negation) byte for byte, and compare the transposed
  and 90-degree runs by their metrics instead;
- *generated == explicit*: the same field entered as explicit nodes gives
  the generated run's bytes;
- *horizon prefix*: a run cut short has the rows of the full run before the
  cut, seq column aside.

Adding an isolated node (no neighbours, no traffic) should leave every other
node's rows as they were; it does not yet (ROADMAP item 15).
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from oscmac.engine import US, Simulator, run
from oscmac.trace import render_trace

from conftest import generated_doc, make_config

ISOMETRIES = {
    "mirror": lambda x, y: (-x, y),
    "rotate90": lambda x, y: (-y, x),
    "rotate180": lambda x, y: (-x, -y),
    "transpose": lambda x, y: (y, x),
}


@st.composite
def fields(draw):
    """Small generated fields: 6-30 nodes, every mode, short horizons, and
    batteries that may empty inside the horizon."""
    doc = generated_doc(node_count=draw(st.integers(6, 30)),
                        area_m=draw(st.sampled_from([120.0, 200.0, 300.0])),
                        active_ms=2.0,  # 50 windows a frame orthogonalize any 30 nodes
                        mode=draw(st.sampled_from(["ct", "noct", "auto"])),
                        horizon_s=draw(st.sampled_from([5.0, 12.0, 20.0])),
                        sources=draw(st.integers(1, 4)), packets=draw(st.integers(1, 6)),
                        topo_seed=draw(st.integers(0, 50)))
    doc["sim"]["battery_j"] = draw(st.sampled_from([0.003, 2.0]))
    return doc, draw(st.integers(0, 3))


def explicit_doc(doc, transform=lambda x, y: (x, y)):
    """``doc``'s generated field as explicit nodes, each at ``transform`` of its position."""
    positions = Simulator(make_config(doc), 0).index.positions
    nodes = []
    for nid in sorted(positions):
        x, y = transform(*positions[nid])
        nodes.append({"id": nid, "x": x, "y": y})
    out = copy.deepcopy(doc)
    out["topology"] = {"nodes": nodes, "fr": 0}
    return out


def outputs(doc, seed):
    """The run's trace text and metrics, as bytes-comparable values."""
    metrics, rows = run(make_config(doc), seed)
    return render_trace(rows, "-", seed), metrics.to_dict()


def without_seq(rows):
    """Each row as (time_us, node, event, detail, residual_j)."""
    return [(t, *rest) for t, _, *rest in rows]


@settings(max_examples=50, deadline=None)
@given(fields())
def test_generated_field_entered_as_explicit_nodes_gives_the_same_run(field):
    doc, seed = field
    assert outputs(explicit_doc(doc), seed) == outputs(doc, seed)


@settings(max_examples=50, deadline=None)
@given(fields(), st.sampled_from(sorted(ISOMETRIES)))
def test_isometric_field_gives_the_same_run(field, name):
    doc, seed = field
    assert outputs(explicit_doc(doc, ISOMETRIES[name]), seed) == outputs(doc, seed)


@settings(max_examples=50, deadline=None)
@given(fields(), st.sampled_from([0.25, 0.5, 0.77]))
def test_horizon_cut_keeps_the_rows_before_it(field, fraction):
    doc, seed = field
    cut = copy.deepcopy(doc)
    cut["sim"]["horizon_s"] = doc["sim"]["horizon_s"] * fraction
    cut_us = int(round(cut["sim"]["horizon_s"] * US))
    _, full_rows = run(make_config(doc), seed)
    _, cut_rows = run(make_config(cut), seed)
    assert ([r for r in without_seq(cut_rows) if r[0] < cut_us]
            == [r for r in without_seq(full_rows) if r[0] < cut_us])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: a routeless node deepens the pipeline, "
                          "moving every routed node's wake offset one active window")
def test_isolated_node_leaves_the_other_nodes_rows_alone():
    for mode in ("ct", "noct", "auto"):
        doc = explicit_doc(generated_doc(node_count=20, area_m=200.0, active_ms=2.0, mode=mode,
                                         horizon_s=20.0))
        # the same sources in both runs, so the isolated node sends nothing
        doc["traffic"]["sources"] = Simulator(make_config(doc), 0).sources
        isolated = copy.deepcopy(doc)
        isolated["topology"]["nodes"].append({"id": 20, "x": 1e6, "y": 1e6})
        _, rows = run(make_config(doc), 0)
        _, with_isolated = run(make_config(isolated), 0)
        assert [r for r in without_seq(with_isolated) if r[1] != 20] == without_seq(rows)
