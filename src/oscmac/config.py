"""Scenario configuration: JSON parsing, defaults, validation, hashing.

Every field has a documented default; unknown keys are rejected so a
typo cannot silently fall back to a default. An explicit node list and
a random topology generator are mutually exclusive.
"""

import hashlib
import json
import math
from dataclasses import dataclass, asdict

from .energy import RadioEnergyParams


class ConfigError(ValueError):
    """Invalid scenario document; the message names the offending field."""


@dataclass(frozen=True)
class NodeSpec:
    id: int
    x: float
    y: float
    initial_j: float = 2.0
    role: str = "relay"  # trn | relay | fr


@dataclass
class TopologySpec:
    nodes: list = None                  # explicit list of NodeSpec
    fr: int = None                      # final receiver id (explicit topologies)
    wilem: tuple = None                 # station position; default: FR position
    routes: dict = None                 # node id -> next hop; default: BFS to FR
    generator: dict = None              # {node_count, area_m, seed}


@dataclass
class TrafficSpec:
    packet_size_bytes: int = 100
    packets_per_source: int = 5
    sources: object = 1  # list of ids, or int = the k nodes farthest from FR
    start_s: float = 0.0
    jitter_ms: float = 0.0


@dataclass
class MacSpec:
    frame_ms: float = 100.0
    active_ms: float = 10.0
    slot_ms: float = 20.0
    timeout_slots: float = 2.0   # handshake timeout, in slot durations
    retry_cap: int = 3
    mode: str = "auto"           # ct | noct | auto
    ctrl_bits: int = 64
    superframe_bits: int = 128
    bit_rate_bps: float = 250000.0
    ct_energy_fraction: float = 0.5  # auto mode: prefer CT when sender is this
                                     # far below the mean neighbour residual


@dataclass
class SimSpec:
    base_range_m: float = 90.0
    horizon_s: float = 60.0
    battery_j: float = 2.0
    housekeeping_frames: int = 100


@dataclass
class ScenarioConfig:
    radio: RadioEnergyParams
    topology: TopologySpec
    traffic: TrafficSpec
    mac: MacSpec
    sim: SimSpec

    def to_dict(self) -> dict:
        d = {
            "radio": asdict(self.radio),
            "topology": {
                "nodes": [asdict(n) for n in self.topology.nodes] if self.topology.nodes else None,
                "fr": self.topology.fr,
                "wilem": list(self.topology.wilem) if self.topology.wilem else None,
                "routes": ({str(k): v for k, v in self.topology.routes.items()}
                           if self.topology.routes else None),
                "generator": self.topology.generator,
            },
            "traffic": asdict(self.traffic),
            "mac": asdict(self.mac),
            "sim": asdict(self.sim),
        }
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self, strip_mode: bool = False) -> str:
        d = self.to_dict()
        if strip_mode:
            d["mac"] = dict(d["mac"])
            d["mac"].pop("mode")
        text = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


_SECTION_KEYS = {
    "radio": {"e_elec", "e_fs", "e_mp", "e_rx", "p_rx", "p_sleep"},
    "topology": {"nodes", "fr", "wilem", "routes", "generator"},
    "traffic": {"packet_size_bytes", "packets_per_source", "sources", "start_s", "jitter_ms"},
    "mac": {"frame_ms", "active_ms", "slot_ms", "timeout_slots", "retry_cap", "mode",
            "ctrl_bits", "superframe_bits", "bit_rate_bps", "ct_energy_fraction"},
    "sim": {"base_range_m", "horizon_s", "battery_j", "housekeeping_frames"},
}

_NODE_KEYS = {"id", "x", "y", "initial_j", "role"}
_GENERATOR_KEYS = {"node_count", "area_m", "seed"}


def _reject_unknown(given: dict, allowed: set, path: str) -> None:
    for key in given:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")


def _require_finite(value, path: str):
    try:
        finite = math.isfinite(float(value))
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")


def _require_positive(value, path: str, strict: bool = True):
    if not isinstance(value, (int, float)) or (value <= 0 if strict else value < 0):
        kind = "strictly positive" if strict else "non-negative"
        raise ConfigError(f"{path} must be {kind}, got {value!r}")
    return value


def parse_config(document: str) -> ScenarioConfig:
    """Parse and validate a UTF-8 JSON scenario document."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, set(_SECTION_KEYS), "config")

    radio_raw = raw.get("radio") or {}
    _reject_unknown(radio_raw, _SECTION_KEYS["radio"], "radio")
    for k, v in radio_raw.items():
        _require_positive(v, f"radio.{k}")
    try:
        radio = RadioEnergyParams(**radio_raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    topo_raw = raw.get("topology") or {}
    _reject_unknown(topo_raw, _SECTION_KEYS["topology"], "topology")
    if topo_raw.get("nodes") is not None and topo_raw.get("generator") is not None:
        raise ConfigError("topology.nodes and topology.generator are mutually exclusive")
    if topo_raw.get("nodes") is None and topo_raw.get("generator") is None:
        raise ConfigError("topology requires either topology.nodes or topology.generator")
    topo = TopologySpec()
    if topo_raw.get("nodes") is not None:
        nodes = []
        seen = set()
        for i, n in enumerate(topo_raw["nodes"]):
            _reject_unknown(n, _NODE_KEYS, f"topology.nodes[{i}]")
            if "id" not in n or "x" not in n or "y" not in n:
                raise ConfigError(f"topology.nodes[{i}] requires id, x, y")
            for axis in ("x", "y"):
                _require_finite(n[axis], f"topology.nodes[{i}].{axis}")
            if n["id"] in seen:
                raise ConfigError(f"topology.nodes[{i}].id duplicates id {n['id']}")
            seen.add(n["id"])
            if "initial_j" in n:
                _require_positive(n["initial_j"], f"topology.nodes[{i}].initial_j")
            nodes.append(NodeSpec(**n))
        topo.nodes = nodes
        if topo_raw.get("fr") is None:
            fr_roles = [n.id for n in nodes if n.role == "fr"]
            if len(fr_roles) != 1:
                raise ConfigError("topology.fr is required unless exactly one node has role 'fr'")
            topo.fr = fr_roles[0]
        else:
            topo.fr = topo_raw["fr"]
        if topo.fr not in seen:
            raise ConfigError(f"topology.fr {topo.fr} is not a node id")
        if topo_raw.get("routes") is not None:
            topo.routes = {}
            for k, v in topo_raw["routes"].items():
                nid = int(k)
                if nid not in seen or v not in seen:
                    raise ConfigError(f"topology.routes entry {k}->{v} names unknown node")
                topo.routes[nid] = v
            for start in topo.routes:
                chain, cur = set(), start
                while cur != topo.fr:
                    if cur in chain or cur not in topo.routes:
                        raise ConfigError(f"topology.routes: node {start} never reaches fr")
                    chain.add(cur)
                    cur = topo.routes[cur]
        node_ids, sink = seen, topo.fr
    else:
        gen = dict(topo_raw["generator"])
        _reject_unknown(gen, _GENERATOR_KEYS, "topology.generator")
        gen.setdefault("node_count", 50)
        gen.setdefault("area_m", 300.0)
        gen.setdefault("seed", 0)
        _require_positive(gen["node_count"], "topology.generator.node_count")
        _require_positive(gen["area_m"], "topology.generator.area_m")
        topo.generator = gen
        node_ids, sink = range(max(1, int(gen["node_count"]))), 0  # the engine's numbering
    if topo_raw.get("wilem") is not None:
        w = topo_raw["wilem"]
        if isinstance(w, dict):
            _reject_unknown(w, {"x", "y"}, "topology.wilem")
            topo.wilem = (float(w["x"]), float(w["y"]))
        else:
            topo.wilem = (float(w[0]), float(w[1]))

    traffic_raw = raw.get("traffic") or {}
    _reject_unknown(traffic_raw, _SECTION_KEYS["traffic"], "traffic")
    traffic = TrafficSpec(**traffic_raw)
    _require_positive(traffic.packet_size_bytes, "traffic.packet_size_bytes")
    if traffic.packets_per_source < 0:
        raise ConfigError("traffic.packets_per_source must be non-negative")
    _require_positive(traffic.start_s, "traffic.start_s", strict=False)
    _require_positive(traffic.jitter_ms, "traffic.jitter_ms", strict=False)
    if isinstance(traffic.sources, list):
        for nid in traffic.sources:
            if nid not in node_ids or nid == sink:
                raise ConfigError(f"traffic.sources id {nid!r} is not a sensor node")
    elif not isinstance(traffic.sources, int) or traffic.sources < 0:
        raise ConfigError(f"traffic.sources must be a count or a list of node ids, "
                          f"got {traffic.sources!r}")

    mac_raw = raw.get("mac") or {}
    _reject_unknown(mac_raw, _SECTION_KEYS["mac"], "mac")
    mac = MacSpec(**mac_raw)
    for f in ("frame_ms", "active_ms", "slot_ms", "timeout_slots", "bit_rate_bps"):
        _require_positive(getattr(mac, f), f"mac.{f}")
    for f in ("ctrl_bits", "superframe_bits"):
        _require_positive(getattr(mac, f), f"mac.{f}")
    if mac.active_ms > mac.frame_ms:
        raise ConfigError("mac.active_ms must not exceed mac.frame_ms")
    if mac.mode not in ("ct", "noct", "auto"):
        raise ConfigError(f"mac.mode must be ct, noct or auto, got {mac.mode!r}")
    if mac.retry_cap < 0:
        raise ConfigError("mac.retry_cap must be non-negative")

    sim_raw = raw.get("sim") or {}
    _reject_unknown(sim_raw, _SECTION_KEYS["sim"], "sim")
    sim = SimSpec(**sim_raw)
    for f in ("base_range_m", "horizon_s", "battery_j"):
        _require_positive(getattr(sim, f), f"sim.{f}")
    _require_positive(sim.housekeeping_frames, "sim.housekeeping_frames")

    return ScenarioConfig(radio=radio, topology=topo, traffic=traffic, mac=mac, sim=sim)
