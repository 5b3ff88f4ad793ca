"""Scenario configuration: JSON parsing, defaults, validation, hashing.

Each section is checked on one path against its spec dataclass, whose
fields give the allowed keys (a typo cannot fall back to a default), the
defaults, the required fields and the types. Scalar values are stored as
given, never coerced. Explicit nodes and a generator are mutually exclusive.
"""

import functools
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields

from .energy import RadioEnergyParams


class ConfigError(ValueError):
    """Invalid or unschedulable scenario document; the message names the field."""


@dataclass(frozen=True)
class NodeSpec:
    id: int
    x: float
    y: float
    initial_j: float  # default: sim.battery_j


@dataclass(frozen=True)
class GeneratorSpec:
    node_count: int = 50
    area_m: float = 300.0
    seed: int = 0


@dataclass
class TopologySpec:
    nodes: list = None                  # explicit list of NodeSpec
    fr: int = None                      # final receiver id (explicit topologies)
    wilem: tuple = None                 # station position; default: FR position
    routes: dict = None                 # node id -> next hop; default: BFS to FR
    generator: GeneratorSpec = None     # generated topology, exclusive of nodes


@dataclass
class TrafficSpec:
    packet_size_bytes: int = 100
    packets_per_source: int = 5
    sources: object = 1  # list of ids, or int k: the k deepest by hops, then farthest from FR
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
        d = asdict(self)
        routes = self.topology.routes
        if routes is not None:  # JSON object keys are strings; {} stays {}
            d["topology"]["routes"] = {str(k): v for k, v in routes.items()}
        return d

    def canonical_json(self, strip_mode: bool = False) -> str:
        d = self.to_dict()
        if strip_mode:
            d["mac"].pop("mode")
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def config_hash(self, strip_mode: bool = False) -> str:
        return hashlib.sha256(self.canonical_json(strip_mode).encode()).hexdigest()


# Every number in a scenario must be strictly positive except these.
_NON_NEGATIVE = {"start_s", "jitter_ms", "packets_per_source", "retry_cap", "ct_energy_fraction"}
# A Simulator allocates a record per node and a Packet per offered packet as it
# is built, so these two counts are capped: past a cap a typo fails here instead
# of allocating until memory runs out.
MAX_NODE_COUNT = 100_000
MAX_PACKETS_PER_SOURCE = 100_000
_AT_MOST = {"node_count": MAX_NODE_COUNT, "packets_per_source": MAX_PACKETS_PER_SOURCE}
# Every node coordinate lies within this many base ranges of the origin, the
# bound under which channel.NeighbourIndex finds each pair in adjacent cells.
MAX_COORD_RANGES = 1_000_000
_UNBOUNDED = {"x", "y", "id", "seed"}
_SECTIONS = {"radio": RadioEnergyParams, "traffic": TrafficSpec, "mac": MacSpec, "sim": SimSpec}


def _is_finite(value) -> bool:
    # type() excludes bool; abs() <= max excludes nan, inf and ints too big for a float
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _check_value(value, kind, name: str, path: str) -> None:
    """Check one scalar field against its annotated type and its bounds."""
    if kind is int:
        ok, what = type(value) is int, "an integer"
    elif kind is float:
        ok, what = _is_finite(value), "a finite number"
    elif kind is str:
        ok, what = type(value) is str, "a string"
    else:
        return  # not a scalar: its section checks it
    if not ok:
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    if kind is str or name in _UNBOUNDED:
        return
    if value < 0 or (value == 0 and name not in _NON_NEGATIVE):
        bound = "non-negative" if name in _NON_NEGATIVE else "strictly positive"
        raise ConfigError(f"{path} must be {bound}, got {value!r}")
    if name in _AT_MOST and value > _AT_MOST[name]:
        raise ConfigError(f"{path} must be at most {_AT_MOST[name]:,}, got {value!r}")


def _object(value, path: str) -> dict:
    """A JSON object; an absent or null one is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a JSON object, got {value!r}")
    return value


def _reject_unknown(given: dict, allowed, path: str) -> None:
    for key in given:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")


@functools.cache
def _fields(cls) -> dict:
    return {f.name: f for f in fields(cls)}


def _build(cls, given, path: str, **defaults):
    """``cls(**defaults, **given)``, given keys winning, once every given key is
    a field of ``cls`` holding a value of its type and bound, and every field
    without a default of its own or in ``defaults`` is given."""
    given = _object(given, path)
    spec = _fields(cls)
    _reject_unknown(given, spec, path)
    for key, value in given.items():
        _check_value(value, spec[key].type, key, f"{path}.{key}")
    for name, f in spec.items():
        if name not in given and name not in defaults and f.default is MISSING:
            raise ConfigError(f"{path}.{name} is required")
    return cls(**{**defaults, **given})


def _topology(raw, battery_j) -> tuple:
    """The topology section and the ids of its sensor nodes (all but the sink)."""
    raw = _object(raw, "topology")
    _reject_unknown(raw, _fields(TopologySpec), "topology")
    nodes, gen = raw.get("nodes"), raw.get("generator")
    if nodes is not None and gen is not None:
        raise ConfigError("topology.nodes and topology.generator are mutually exclusive")
    if nodes is None and gen is None:
        raise ConfigError("topology requires either topology.nodes or topology.generator")
    topo = TopologySpec()
    if gen is not None:
        for key in ("fr", "routes"):  # a generated network's sink is node 0, routed by BFS
            if raw.get(key) is not None:
                raise ConfigError(f"topology.{key} is only for topology.nodes, "
                                  f"not topology.generator")
        gen = _build(GeneratorSpec, gen, "topology.generator")
        topo.generator = gen
        sensors = range(1, gen.node_count)  # the engine numbers the sink 0
    else:
        if not isinstance(nodes, list):
            raise ConfigError(f"topology.nodes must be a list of nodes, got {nodes!r}")
        topo.nodes = [_build(NodeSpec, n, f"topology.nodes[{i}]", initial_j=battery_j)
                      for i, n in enumerate(nodes)]
        seen = set()
        for i, n in enumerate(topo.nodes):
            if n.id in seen:
                raise ConfigError(f"topology.nodes[{i}].id duplicates id {n.id}")
            seen.add(n.id)
        topo.fr = raw.get("fr")
        if topo.fr is None:
            raise ConfigError("topology.fr is required with topology.nodes")
        if type(topo.fr) is not int or topo.fr not in seen:
            raise ConfigError(f"topology.fr {topo.fr!r} is not a node id")
        if raw.get("routes") is not None:
            _routes(topo, _object(raw["routes"], "topology.routes"), seen)
        sensors = seen - {topo.fr}
    w = raw.get("wilem")
    if w is not None:
        if not (isinstance(w, list) and len(w) == 2 and all(map(_is_finite, w))):
            raise ConfigError(f"topology.wilem must be [x, y] of finite numbers, got {w!r}")
        topo.wilem = (float(w[0]), float(w[1]))
    return topo, sensors


def _check_field_bound(topo: TopologySpec, bound: float) -> None:
    """Every node coordinate, explicit or generated, lies within ``bound`` m of the origin."""
    ranges = f"{MAX_COORD_RANGES:,} base ranges ({bound!r} m)"
    if topo.generator is not None:
        if topo.generator.area_m > bound:  # generated coordinates lie in [0, area_m]
            raise ConfigError(f"topology.generator.area_m must be at most {ranges}, "
                              f"got {topo.generator.area_m!r}")
        return
    for i, n in enumerate(topo.nodes):
        for axis, v in (("x", n.x), ("y", n.y)):
            if abs(v) > bound:
                raise ConfigError(f"topology.nodes[{i}].{axis} must lie within {ranges} "
                                  f"of the origin, got {v!r}")


def _routes(topo: TopologySpec, given: dict, ids: set) -> None:
    """Set ``topo.routes`` from ``given``; every chain must reach the sink,
    which has no route of its own."""
    topo.routes = {}
    keys = {str(nid): nid for nid in ids}  # only an id's canonical decimal names it
    for k, v in given.items():
        nid = keys.get(k)
        if nid is None or type(v) is not int or v not in ids:
            raise ConfigError(f"topology.routes entry {k}->{v!r} names unknown node")
        if nid == topo.fr:
            raise ConfigError(f"topology.routes entry {k}->{v} routes the sink fr")
        topo.routes[nid] = v
    for start in topo.routes:
        chain, cur = set(), start
        while cur != topo.fr:
            if cur in chain or cur not in topo.routes:
                raise ConfigError(f"topology.routes: node {start} never reaches fr")
            chain.add(cur)
            cur = topo.routes[cur]


def _unique_keys(pairs: list) -> dict:
    """``json.loads``' object hook: a key stated twice raises, not keeps its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {json.dumps(key)} is stated twice in one object")
        obj[key] = value
    return obj


def parse_config(document: str) -> ScenarioConfig:
    """Parse and validate a UTF-8 JSON scenario document."""
    try:
        raw = json.loads(document, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, an integer past the digit limit, a repeated key
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, ("topology", *_SECTIONS), "config")
    radio, traffic, mac, sim = (_build(cls, raw.get(name), name)
                                for name, cls in _SECTIONS.items())
    topo, sensors = _topology(raw.get("topology"), sim.battery_j)
    _check_field_bound(topo, MAX_COORD_RANGES * sim.base_range_m)

    sources = traffic.sources
    if isinstance(sources, list):
        for n, nid in enumerate(sources):
            if type(nid) is not int or nid not in sensors:
                raise ConfigError(f"traffic.sources id {nid!r} is not a sensor node")
            if nid in sources[:n]:
                raise ConfigError(f"traffic.sources id {nid} is listed twice")
    elif type(sources) is not int or sources < 0:
        raise ConfigError(f"traffic.sources must be a count or a list of node ids, "
                          f"got {sources!r}")
    if mac.active_ms > mac.frame_ms:
        raise ConfigError("mac.active_ms must not exceed mac.frame_ms")
    if mac.mode not in ("ct", "noct", "auto"):
        raise ConfigError(f"mac.mode must be ct, noct or auto, got {mac.mode!r}")
    for path, bits in (("traffic.packet_size_bytes", 8 * traffic.packet_size_bytes),
                       ("mac.ctrl_bits", mac.ctrl_bits), ("mac.superframe_bits", mac.superframe_bits)):
        if not _is_finite(bits):  # airtime divides bits by a float bit rate
            raise ConfigError(f"{path} gives a packet of more bits than a float holds")

    return ScenarioConfig(radio=radio, topology=topo, traffic=traffic, mac=mac, sim=sim)
