import json

import pytest

from oscmac.config import ConfigError, parse_config
from conftest import generated_doc, make_config, range_extension_doc


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


@pytest.mark.parametrize("doc, sources, msg", [
    (range_extension_doc(), [1, 99], "id 99 is not"),   # unknown id
    (range_extension_doc(), [0], "id 0 is not"),        # the sink
    (generated_doc(node_count=20), [20], "id 20 is not"),
    (generated_doc(node_count=20), [3, 0], "id 0 is not"),
    (generated_doc(), -1, "must be a count"),
    (generated_doc(), 2.5, "must be a count"),
    (generated_doc(), "3", "must be a count"),
    (generated_doc(), {"1": 1}, "must be a count"),
])
def test_sources_that_are_not_sensor_nodes_rejected(doc, sources, msg):
    doc["traffic"]["sources"] = sources
    with pytest.raises(ConfigError, match=rf"traffic\.sources {msg}"):
        make_config(doc)


def test_sources_on_generated_topology_accepted():
    doc = generated_doc(node_count=20)
    doc["traffic"]["sources"] = [1, 19]
    assert make_config(doc).traffic.sources == [1, 19]


def test_value_validation():
    for mutate, msg in [
        (lambda d: d["mac"].update({"mode": "turbo"}), "mode"),
        (lambda d: d["mac"].update({"active_ms": 200.0}), "active_ms"),
        (lambda d: d["mac"].update({"frame_ms": -1}), "frame_ms"),
        (lambda d: d["traffic"].update({"packet_size_bytes": 0}), "packet_size_bytes"),
        (lambda d: d["sim"].update({"battery_j": 0}), "battery_j"),
        (lambda d: d["radio"].update({"e_fs": 0}) if "radio" in d
         else d.update({"radio": {"e_fs": 0}}), "e_fs"),
    ]:
        doc = generated_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match=msg):
            make_config(doc)


def test_canonical_json_round_trips():
    cfg = make_config(range_extension_doc())
    again = parse_config(cfg.canonical_json())
    assert again.canonical_json() == cfg.canonical_json()
    assert again.config_hash() == cfg.config_hash()


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
