import copy
import json
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from oscmac.config import (MAX_NODE_COUNT, MAX_PACKETS_PER_SOURCE, ConfigError, GeneratorSpec,
                           MacSpec, NodeSpec, SimSpec, TopologySpec, TrafficSpec, parse_config)
from oscmac.energy import RadioEnergyParams
from oscmac.engine import Simulator
from oscmac.trace import read_trace, write_trace
from conftest import generated_doc, make_config, range_extension_doc, two_node_doc
from test_acceptance import trace_summed_charges
from test_engine import assert_packets_conserved


def test_defaults_applied():
    cfg = make_config(generated_doc())
    assert cfg.traffic.packet_size_bytes == 100
    assert cfg.mac.frame_ms == 100.0
    assert cfg.mac.slot_ms == 20.0
    assert cfg.mac.retry_cap == 3
    assert cfg.sim.base_range_m == 90.0
    assert cfg.radio.e_elec == 50e-9
    assert cfg.radio.e_fs == 10e-12
    assert cfg.radio.e_mp == 0.0013e-12


def test_invalid_json_rejected():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


@pytest.mark.parametrize("mutate", [
    lambda d: d.update({"bogus_section": {}}),
    lambda d: d["mac"].update({"frame_length": 5}),
    lambda d: d["sim"].update({"horizons": 5}),
    lambda d: d["traffic"].update({"packets": 5}),
])
def test_unknown_keys_rejected(mutate):
    doc = generated_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match="unknown key"):
        make_config(doc)


def test_unknown_node_key_rejected():
    doc = range_extension_doc()
    doc["topology"]["nodes"][0]["z"] = 1.0
    with pytest.raises(ConfigError, match="unknown key"):
        make_config(doc)


def test_unknown_role_rejected():
    doc = range_extension_doc()
    doc["topology"]["nodes"][2]["role"] = "banana"
    with pytest.raises(ConfigError, match=r"topology\.nodes\[2\]\.role must be fr, trn or relay"):
        make_config(doc)


def test_nodes_and_generator_mutually_exclusive():
    doc = generated_doc()
    doc["topology"]["nodes"] = range_extension_doc()["topology"]["nodes"]
    with pytest.raises(ConfigError, match="mutually exclusive"):
        make_config(doc)
    with pytest.raises(ConfigError, match="either"):
        make_config({"topology": {}})


def test_fr_inferred_from_role():
    cfg = make_config(range_extension_doc())
    assert cfg.topology.fr == 0


def test_fr_required_when_ambiguous():
    doc = range_extension_doc()
    doc["topology"]["nodes"][0]["role"] = "relay"
    with pytest.raises(ConfigError, match="fr"):
        make_config(doc)
    doc["topology"]["fr"] = 0
    assert make_config(doc).topology.fr == 0


def test_duplicate_node_id_rejected():
    doc = range_extension_doc()
    doc["topology"]["nodes"][2]["id"] = 1
    with pytest.raises(ConfigError, match="duplicates"):
        make_config(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "east"])
def test_node_coordinates_must_be_finite(value):
    doc = range_extension_doc()
    doc["topology"]["nodes"][2]["y"] = value
    with pytest.raises(ConfigError, match=r"topology\.nodes\[2\]\.y"):
        make_config(doc)


def test_route_to_unknown_node_rejected():
    doc = range_extension_doc()
    doc["topology"]["routes"] = {"1": 99}
    with pytest.raises(ConfigError, match="unknown node"):
        make_config(doc)


@pytest.mark.parametrize("routes", [
    {"1": 2, "2": 3, "3": 1},   # a cycle that never reaches the sink
    {"1": 1},                   # a node routed to itself
    {"1": 2},                   # a chain that stops at a node without a route
])
def test_route_that_never_reaches_the_sink_rejected(routes):
    doc = range_extension_doc()
    doc["topology"]["routes"] = routes
    with pytest.raises(ConfigError, match=r"topology\.routes: node 1 never"):
        make_config(doc)


def test_route_chains_to_the_sink_accepted():
    doc = range_extension_doc()
    doc["topology"]["routes"] = {"1": 2, "2": 3, "3": 0}
    assert make_config(doc).topology.routes == {1: 2, 2: 3, 3: 0}


@pytest.mark.parametrize("routes", [{"1": 0, "0": 2}, {"0": 0}])
def test_sink_route_rejected(routes):
    """The sink forwards nothing: a route of its own is a config error, not
    an entry that nothing reads yet that changes ``config_hash``."""
    doc = range_extension_doc()
    doc["topology"]["routes"] = routes
    with pytest.raises(ConfigError, match=r"^topology\.routes entry 0->\d+ routes the sink"):
        make_config(doc)


@pytest.mark.parametrize("doc, sources, msg", [
    (range_extension_doc(), [1, 99], "id 99 is not"),   # unknown id
    (range_extension_doc(), [0], "id 0 is not"),        # the sink
    (generated_doc(node_count=20), [20], "id 20 is not"),
    (generated_doc(node_count=20), [3, 0], "id 0 is not"),
    (generated_doc(), -1, "must be a count"),
    (generated_doc(), 2.5, "must be a count"),
    (generated_doc(), "3", "must be a count"),
    (generated_doc(), {"1": 1}, "must be a count"),
    (range_extension_doc(), [[1]], r"id \[1\] is not"),  # unhashable
    (range_extension_doc(), [True], "id True is not"),
    (generated_doc(node_count=20), [3, 3], "id 3 is listed twice"),  # would double its load
])
def test_sources_that_are_not_sensor_nodes_rejected(doc, sources, msg):
    doc["traffic"]["sources"] = sources
    with pytest.raises(ConfigError, match=rf"traffic\.sources {msg}"):
        make_config(doc)


def test_sources_on_generated_topology_accepted():
    doc = generated_doc(node_count=20)
    doc["traffic"]["sources"] = [1, 19]
    assert make_config(doc).traffic.sources == [1, 19]


def _explicit(doc):
    """Give ``doc`` the explicit four-node topology; returns that section."""
    doc["topology"] = range_extension_doc()["topology"]
    return doc["topology"]


def test_value_validation():
    inf, nan = float("inf"), float("nan")
    for mutate, msg in [
        (lambda d: d["mac"].update({"mode": "turbo"}), "mode"),
        (lambda d: d["mac"].update({"active_ms": 200.0}), "active_ms"),
        (lambda d: d["mac"].update({"frame_ms": -1}), "frame_ms"),
        (lambda d: d["traffic"].update({"packet_size_bytes": 0}), "packet_size_bytes"),
        (lambda d: d["sim"].update({"battery_j": 0}), "battery_j"),
        (lambda d: d["radio"].update({"e_fs": 0}) if "radio" in d
         else d.update({"radio": {"e_fs": 0}}), "e_fs"),
        # each field is named, and its type is the one of the spec dataclass
        (lambda d: d["mac"].update({"retry_cap": "3"}), r"^mac\.retry_cap must be an integer"),
        (lambda d: d["traffic"].update({"packets_per_source": 2.5}),
         r"^traffic\.packets_per_source must be an integer"),
        (lambda d: d["sim"].update({"housekeeping_frames": 1.5}),
         r"^sim\.housekeeping_frames must be an integer"),
        (lambda d: d["sim"].update({"horizon_s": inf}), r"^sim\.horizon_s must be a finite"),
        (lambda d: d["sim"].update({"horizon_s": nan}), r"^sim\.horizon_s must be a finite"),
        (lambda d: d["sim"].update({"battery_j": True}), r"^sim\.battery_j must be a finite"),
        (lambda d: d["mac"].update({"ctrl_bits": 64.5}), r"^mac\.ctrl_bits must be an integer"),
        (lambda d: d["mac"].update({"ct_energy_fraction": "x"}),
         r"^mac\.ct_energy_fraction must be a finite"),
        (lambda d: d["mac"].update({"retry_cap": -1}), r"^mac\.retry_cap must be non-negative"),
        (lambda d: d["topology"]["generator"].update({"node_count": 2.5}),
         r"^topology\.generator\.node_count must be an integer"),
        (lambda d: d["topology"]["generator"].update({"seed": [1]}),
         r"^topology\.generator\.seed must be an integer"),
        (lambda d: d.update({"sim": [1]}), r"^sim must be a JSON object"),
        (lambda d: d.update({"topology": {"nodes": 5}}), r"^topology\.nodes must be a list"),
        (lambda d: _explicit(d).update({"routes": {"a": 0}}), r"^topology\.routes entry a->0"),
        (lambda d: _explicit(d).update({"wilem": {"x": 1}}), r"^topology\.wilem must be"),
        (lambda d: _explicit(d)["nodes"][1].update({"id": "b"}),
         r"^topology\.nodes\[1\]\.id must be an integer"),
        (lambda d: _explicit(d)["nodes"][1].update({"initial_j": inf}),
         r"^topology\.nodes\[1\]\.initial_j must be a finite"),
        (lambda d: _explicit(d)["nodes"][1].pop("x"), r"^topology\.nodes\[1\]\.x is required"),
        (lambda d: _explicit(d).update({"fr": [0]}), r"^topology\.fr \[0\] is not a node id"),
        # node 0's role names it the sink, so another fr contradicts it
        (lambda d: _explicit(d).update({"fr": 2}),
         r"^topology\.nodes\[0\]\.role is fr, but topology\.fr is 2"),
        # a generated network's sink and routes are its own
        (lambda d: d["topology"].update({"fr": 5}), r"^topology\.fr is only for topology\.nodes"),
        (lambda d: d["topology"].update({"routes": {"3": 1}}),
         r"^topology\.routes is only for topology\.nodes"),
    ]:
        doc = generated_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match=msg):
            make_config(doc)


@pytest.mark.parametrize("mutate, cap, msg", [
    (lambda d, v: d["topology"]["generator"].update({"node_count": v}), MAX_NODE_COUNT,
     r"^topology\.generator\.node_count must be at most 100,000, got "),
    (lambda d, v: d["traffic"].update({"packets_per_source": v}), MAX_PACKETS_PER_SOURCE,
     r"^traffic\.packets_per_source must be at most 100,000, got "),
], ids=["node_count", "packets_per_source"])
def test_count_above_its_cap_rejected(mutate, cap, msg):
    """A Simulator allocates for each node and offered packet as it is built,
    so both counts are capped. Only parse_config sees these values: without
    the cap, a Simulator on them allocates until memory runs out."""
    for value in (cap + 1, 10**400):
        doc = generated_doc()
        mutate(doc, value)
        with pytest.raises(ConfigError, match=msg):
            make_config(doc)
    doc = generated_doc()
    mutate(doc, cap)
    make_config(doc)  # the cap itself is allowed


@pytest.mark.parametrize("mode, slot_ms", [("ct", 1.0), ("ct", 2.0), ("ct", 5.0), ("auto", 5.0)])
def test_cooperative_slot_shorter_than_two_packets_rejected(mode, slot_ms):
    """A CT slot holds the helpers' broadcast, then the cooperative copy from
    its middle: one 100 B packet's 3.2 ms of airtime each."""
    doc = range_extension_doc(mode=mode)
    doc["mac"]["slot_ms"] = slot_ms
    with pytest.raises(ConfigError, match=r"^mac\.slot_ms gives half a slot of \d+ us, less "
                                          r"than one packet's 3200 us of airtime"):
        Simulator(make_config(doc), 0)


def test_slot_of_two_packets_closes_the_cooperative_hop():
    doc = range_extension_doc(mode="ct")
    doc["mac"]["slot_ms"] = 6.4
    assert Simulator(make_config(doc), 0).run().packets_delivered == 3


def test_short_slot_runs_without_ct():
    doc = range_extension_doc(mode="noct")
    doc["mac"]["slot_ms"] = 1.0
    assert Simulator(make_config(doc), 0).run().packets_offered == 3


def test_canonical_json_round_trips():
    cfg = make_config(range_extension_doc())
    again = parse_config(cfg.canonical_json())
    assert again == cfg
    assert again.canonical_json() == cfg.canonical_json()
    assert again.config_hash() == cfg.config_hash()


def test_empty_routes_are_not_bfs_routes():
    doc = two_node_doc()
    doc["topology"]["routes"] = {}  # no node has a route: nothing is forwarded
    routeless, bfs = make_config(doc), make_config(two_node_doc())
    assert parse_config(routeless.canonical_json()) == routeless
    assert routeless.topology.routes == {} and bfs.topology.routes is None
    assert routeless.config_hash() != bfs.config_hash()
    assert Simulator(routeless, 0).run().packets_delivered == 0
    assert Simulator(bfs, 0).run().packets_delivered == 1


def _with_battery(doc, battery_j=0.0005):
    doc["sim"]["battery_j"] = battery_j
    return doc


def test_battery_j_starts_every_explicit_node():
    cfg = make_config(_with_battery(range_extension_doc()))
    assert [n.initial_j for n in cfg.topology.nodes] == [0.0005] * 4
    assert Simulator(cfg, 0).metrics.initial_by_node == {0: 0.0005, 1: 0.0005, 2: 0.0005, 3: 0.0005}


def test_explicit_initial_j_wins_over_battery_j():
    doc = _with_battery(range_extension_doc())
    doc["topology"]["nodes"][2]["initial_j"] = 1.5
    cfg = make_config(doc)
    assert [n.initial_j for n in cfg.topology.nodes] == [0.0005, 0.0005, 1.5, 0.0005]


def test_battery_j_with_explicit_nodes_round_trips():
    doc = _with_battery(range_extension_doc())
    doc["topology"]["nodes"][2]["initial_j"] = 1.5
    cfg = make_config(doc)
    again = parse_config(cfg.canonical_json())
    assert again.canonical_json() == cfg.canonical_json()
    assert again.config_hash() == cfg.config_hash()
    assert again.topology.nodes == cfg.topology.nodes


def test_hash_is_sensitive_to_content():
    a = make_config(range_extension_doc(mode="ct"))
    b = make_config(range_extension_doc(mode="noct"))
    assert a.config_hash() != b.config_hash()
    assert len(a.config_hash()) == 64
    assert a.config_hash(strip_mode=True) == b.config_hash(strip_mode=True)


def test_hash_stable_across_key_order():
    doc = generated_doc()
    reordered = json.loads(json.dumps(doc, sort_keys=True))
    assert make_config(doc).config_hash() == make_config(reordered).config_hash()


def test_wilem_accepts_pair_or_object():
    doc = range_extension_doc()
    doc["topology"]["wilem"] = [10.0, 20.0]
    assert make_config(doc).topology.wilem == (10.0, 20.0)
    doc["topology"]["wilem"] = {"x": 3.0, "y": 4.0}
    assert make_config(doc).topology.wilem == (3.0, 4.0)


# ---------------------------------------------------------------------------
# fuzz: one field of a small valid document at a time

_FUZZ_SEED = 3
_SECTIONS = {"radio": RadioEnergyParams, "traffic": TrafficSpec, "mac": MacSpec, "sim": SimSpec}


def _fuzz_bases():
    explicit = range_extension_doc(mode="auto", packets=2, horizon_s=2.0)
    explicit["topology"].update({"fr": 0, "wilem": [60.0, 0.0]})
    generated = generated_doc(node_count=6, area_m=120.0, horizon_s=2.0, packets=2, sources=2)
    return {"generated": dict(generated, radio={}), "explicit": dict(explicit, radio={})}


_BASES = _fuzz_bases()
# wrong types, bools, negatives, zero, NaN/inf and sub-microsecond durations;
# as a valid value none adds nodes, packets or sweeps (2.5 s is the longest horizon)
_BAD = [-1, 0, 4e-7, 0.0004, 2.5, float("nan"), float("inf"), float("-inf"),
        True, False, None, "x", [1], {"x": 1}]
_FIELD_TARGETS = (
    [(base, (name, f.name)) for base in _BASES
     for name, cls in _SECTIONS.items() for f in fields(cls)]
    + [(base, (name,)) for base in _BASES for name in ("topology", *_SECTIONS)]
    + [("generated", ("topology", "generator", f.name)) for f in fields(GeneratorSpec)]
    + [("explicit", ("topology", "nodes", 1, f.name)) for f in fields(NodeSpec)]
    + [("explicit", ("topology", f.name)) for f in fields(TopologySpec)]
    + [("explicit", ("topology", "wilem", 1)), ("explicit", ("topology", "routes", "1"))])
_ID_TARGETS = [("explicit", ("traffic", "sources")), ("generated", ("traffic", "sources")),
               ("explicit", ("topology", "routes", "1")), ("explicit", ("topology", "fr")),
               ("explicit", ("topology", "nodes", 1, "id"))]
_DANGLING = [99, -1, [99], [1, 99], [[1]], [1, 1]]


@settings(max_examples=2000, deadline=None)
@given(case=st.one_of(
    st.tuples(st.sampled_from(_FIELD_TARGETS), st.sampled_from(_BAD)),
    st.tuples(st.sampled_from(_ID_TARGETS), st.sampled_from(_DANGLING))))
@example(case=(("generated", ("sim", "housekeeping_frames")), 1.5))
@example(case=(("generated", ("traffic", "packets_per_source")), 2.5))
@example(case=(("generated", ("mac", "active_ms")), 0.0004))
def test_fuzzed_document_is_rejected_or_runs_cleanly(case, tmp_path_factory):
    """A document with one bad field raises ConfigError, or runs to the horizon
    conserving joules and packets and writing a trace that reads back."""
    (base, path), value = case
    doc = copy.deepcopy(_BASES[base])
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    try:
        cfg = make_config(doc)
        sim = Simulator(cfg, _FUZZ_SEED)
    except ConfigError:
        return
    assert parse_config(cfg.canonical_json()) == cfg
    metrics = sim.run()
    spent = sum(metrics.initial_by_node[n] - metrics.residual_by_node[n]
                for n in metrics.initial_by_node)
    assert abs(spent - trace_summed_charges(sim.rows)) <= 1e-9
    assert_packets_conserved(metrics, sim.rows)
    trace = tmp_path_factory.mktemp("fuzz") / "trace.csv"
    write_trace(trace, sim.rows, cfg.config_hash(), _FUZZ_SEED)
    _, records = read_trace(trace)
    assert [(r["time_us"], r["seq"]) for r in records] == [row[:2] for row in sim.rows]
