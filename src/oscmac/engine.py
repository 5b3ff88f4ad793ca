"""Deterministic discrete-event core for the cooperative duty-cycle MAC.

Single-threaded event loop over a heap of ``(t_us, seq, kind, args)``
entries; ``_HANDLERS[kind](sim, *args)`` handles one, and ``args`` are the
handler's own arguments (node objects, not ids). Time is kept in integer
microseconds and ``seq`` breaks ties, so ordering and trace equality are
exact. ``perfbench/layers.py`` unpacks heap entries in this shape and patches
this module's ``heapq``, ``distance``, ``in_reach``, ``ct_reach``,
``build_schedules``, ``compose_superframe``, ``tx_energy`` and ``rx_energy``,
so both must stay.

Idle and sleep power draws are accounted lazily by integrating each node's
duty schedule (plus reservation wake-ups) between the events that touch it,
with an exact binary search for the moment a battery empties. Between two
housekeeping sweeps a whole number of frames apart, every node untouched and
unreserved draws the same joules, so a sweep costs that draw once and settles
it on each such node it leaves charged; the rest are accounted one by one.
Rows go into the ``trace.TraceRows`` that ``run`` returns. Each emit site
formats its detail as ``json.dumps(detail, sort_keys=True)`` would (sorted
keys, ``repr`` of finite numbers, ``true``/``false``/``null``, ``str`` of int
lists, fixed ASCII names) in a third of the JSON encoder's time; ``_charge``
takes it as a function of the drawn joules, and ``energy_account`` details are
memoised per run. ``perfbench/layers.py`` still assigns ``engine.json``, which
nothing here reads.
"""

import functools
import heapq
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field

from . import mac as macmod
from .channel import (AirTransmission, NeighbourIndex, ct_reach, distance, in_reach,
                      resolve_slot)
from .config import ScenarioConfig
from .energy import Battery, RadioEnergyParams, rx_energy, tx_energy
from .mac import (DutySchedule, MacState, Packet, Phase, Superframe, build_schedules,
                  compose_superframe)
from .selection import CtRequest, WiLemStation
from .trace import TraceRows

US = 1_000_000  # microseconds per second
TURNAROUND_US = 1000  # rx-to-tx turnaround before replies
_CONTENTION_FRAMES = 8  # frames a reservation attempt may be deferred over
# sequence number of each turnaround reply's control packet
_REPLY_SEQ = {"ct_ack": -2, "noct_reply": -4, "data_ack": -5}
_JSON_BOOL = ("false", "true")  # a bool's JSON spelling, indexed by the bool


def _mix(a: int, b: int) -> int:
    """Deterministic integer hash used to desynchronize contenders."""
    x = ((a + 1) * 2654435761 ^ (b + 1) * 2246822519) & 0xFFFFFFFF
    x = (x * 2654435761) & 0xFFFFFFFF
    return x >> 16

__all__ = ["Simulator", "Metrics", "run", "in_reach", "ct_reach", "resolve_slot"]


@dataclass
class Metrics:
    network_lifetime_first_death_s: float = None  # type: ignore[assignment]
    trn_death_time_s: float = None                # type: ignore[assignment]
    packets_offered: int = 0
    packets_delivered: int = 0
    packets_failed: int = 0
    collisions: int = 0
    collision_losses: int = 0
    events_processed: int = 0
    energy_by_category: dict = field(default_factory=dict)  # node -> {cat: J}
    initial_by_node: dict = field(default_factory=dict)
    residual_by_node: dict = field(default_factory=dict)
    energy_timeline: list = field(default_factory=list)     # (t_s, node, residual)

    @property
    def delivery_ratio(self) -> float:
        return self.packets_delivered / self.packets_offered if self.packets_offered else 0.0

    def to_dict(self) -> dict:
        return {
            "network_lifetime_first_death_s": self.network_lifetime_first_death_s,
            "trn_death_time_s": self.trn_death_time_s,
            "packets_offered": self.packets_offered,
            "packets_delivered": self.packets_delivered,
            "packets_failed": self.packets_failed,
            "delivery_ratio": self.delivery_ratio,
            "collisions": self.collisions,
            "collision_losses": self.collision_losses,
            "events_processed": self.events_processed,
            "energy_by_category": {str(k): v for k, v in sorted(self.energy_by_category.items())},
            "initial_by_node": {str(k): v for k, v in sorted(self.initial_by_node.items())},
            "residual_by_node": {str(k): v for k, v in sorted(self.residual_by_node.items())},
            "energy_timeline": self.energy_timeline,
        }


@dataclass
class _Transfer:
    """Engine-side bookkeeping for one node's in-flight batch."""
    batch: list = field(default_factory=list)
    mode: str = None              # type: ignore[assignment]
    request: CtRequest = None     # type: ignore[assignment]
    sf: Superframe = None         # type: ignore[assignment]
    got_broadcast: dict = field(default_factory=dict)  # slot index -> set of helper ids
    noct_index: int = 0
    attempts: int = 0
    retries: int = 0
    active: bool = False
    hop_scheduled: bool = False


@dataclass
class SimNode:
    id: int
    pos: tuple
    battery: Battery
    schedule: DutySchedule
    mac: MacState
    next_hop: int = None          # type: ignore[assignment]
    depth: int = 0
    last_accounted_us: int = 0
    xfer: _Transfer = field(default_factory=_Transfer)  # the hop in progress


@dataclass(eq=False, kw_only=True)
class _Txn(AirTransmission):
    """A transmission on the air and the packet it carries."""
    packet: Packet
    tag: str            # superframe | ct_broadcast | ct_coop | noct_request | noct_reply | data | data_ack | ct_ack
    meta: dict
    resolved: bool = False


class Simulator:
    def __init__(self, cfg: ScenarioConfig, seed: int):
        self.cfg = cfg
        self.rng = random.Random(seed)
        self.params: RadioEnergyParams = cfg.radio
        self.frame_us = int(round(cfg.mac.frame_ms * 1000))
        self.active_us = int(round(cfg.mac.active_ms * 1000))
        self.slot_us = int(round(cfg.mac.slot_ms * 1000))
        self.timeout_us = int(round(cfg.mac.timeout_slots * self.slot_us))
        self.horizon_us = int(round(cfg.sim.horizon_s * US))
        self.bitrate = cfg.mac.bit_rate_bps
        self.base_range = cfg.sim.base_range_m
        self.d0 = self.params.d0

        self.heap = []
        self._seq = 0
        self.rows = TraceRows()
        self.metrics = Metrics()
        self.now = 0
        self._rdv_counter = 0
        self.unresolved = []
        self._swept_us = 0  # time of the last housekeeping sweep
        self._account_detail = functools.cache(  # drawn (idle_j, sleep_j) -> detail
            lambda idle, slept: f'{{"idle_j": {idle!r}, "sleep_j": {slept!r}}}')

        self._build_topology()
        self._build_station()
        self._init_traffic()
        self._init_housekeeping()

    # ------------------------------------------------------------------
    # construction

    def _build_topology(self):
        cfg = self.cfg
        nodes = {}
        if cfg.topology.nodes is not None:
            self.fr = cfg.topology.fr
            positions = {n.id: (float(n.x), float(n.y)) for n in cfg.topology.nodes}
            initial = {n.id: n.initial_j for n in cfg.topology.nodes}
        else:
            gen = cfg.topology.generator
            grng = random.Random(gen["seed"])
            count = int(gen["node_count"])
            area = float(gen["area_m"])
            self.fr = 0
            positions = {0: (area / 2.0, area / 2.0)}
            for i in range(1, count):
                positions[i] = (grng.uniform(0, area), grng.uniform(0, area))
            initial = {i: cfg.sim.battery_j for i in positions}

        # positions never change, so radio neighbourhoods are computed once
        self.index = NeighbourIndex(positions, self.base_range)
        self.neighbours = self.index.neighbours

        # routes and hop depths toward the final receiver
        ids = sorted(positions)
        if cfg.topology.routes is not None:
            routes = dict(cfg.topology.routes)
            depths = {self.fr: 0}
            for nid in ids:
                if nid == self.fr or nid not in routes:
                    continue  # routeless nodes never originate or forward
                chain, cur = [], nid
                while cur != self.fr:  # parse_config checked that it ends there
                    chain.append(cur)
                    cur = routes[cur]
                for hop_up, member in enumerate(reversed(chain), start=1):
                    depths[member] = hop_up
        else:
            routes, depths = self._bfs_routes()

        max_depth = max(depths.values()) if depths else 0
        for nid in ids:
            if nid not in depths:
                depths[nid] = max_depth + 1  # unreachable; still duty-cycles

        schedules = build_schedules(self.neighbours, depths, self.frame_us, self.active_us)
        for nid in ids:
            nodes[nid] = SimNode(
                id=nid, pos=positions[nid],
                battery=Battery(initial=initial[nid]),
                schedule=schedules[nid],
                mac=MacState(node=nid),
                next_hop=routes.get(nid), depth=depths[nid])
        self.nodes = nodes
        self.positions = positions
        self.metrics.initial_by_node = {nid: nodes[nid].battery.initial for nid in ids}

    def _bfs_routes(self):
        depths = {self.fr: 0}
        routes = {}
        frontier = [self.fr]
        while frontier:
            nxt = []
            for cur in sorted(frontier):
                for nb in self.neighbours[cur]:
                    if nb not in depths:
                        depths[nb] = depths[cur] + 1
                        routes[nb] = cur
                        nxt.append(nb)
            frontier = nxt
        return routes, depths

    def _build_station(self):
        pos = self.cfg.topology.wilem or self.positions[self.fr]
        self.station = WiLemStation(positions=dict(self.positions))
        self.station_pos = tuple(pos)

    def _resolve_sources(self):
        spec = self.cfg.traffic.sources
        candidates = [nid for nid in sorted(self.nodes) if nid != self.fr]
        if isinstance(spec, int):
            ranked = sorted(candidates,
                            key=lambda n: (-self.nodes[n].depth,
                                           -distance(self.positions[n], self.positions[self.fr]),
                                           n))
            return ranked[:spec]
        return list(spec)

    def _init_traffic(self):
        self.sources = self._resolve_sources()
        self.trn = self.sources[0] if self.sources else None
        jitter_us = int(round(self.cfg.traffic.jitter_ms * 1000))
        base = int(round(self.cfg.traffic.start_s * US))
        seq = 0
        for src in self.sources:
            t0 = base + (self.rng.randrange(jitter_us + 1) if jitter_us else 0)
            packets = []
            for _ in range(self.cfg.traffic.packets_per_source):
                packets.append(Packet(seq=seq, size_bits=8 * self.cfg.traffic.packet_size_bytes,
                                      source=src, destination=self.fr, kind="data"))
                seq += 1
            if packets:
                self._schedule(t0, "traffic", self.nodes[src], packets)

    def _init_housekeeping(self):
        period = self.cfg.sim.housekeeping_frames * self.frame_us
        self._schedule(min(period, self.horizon_us), "housekeeping",
                       [self.nodes[nid] for nid in sorted(self.nodes)])

    # ------------------------------------------------------------------
    # event plumbing

    def _schedule(self, t_us, kind, *args):
        self._seq += 1
        heapq.heappush(self.heap, (t_us, self._seq, kind, args))

    def _emit(self, node, event, detail):
        self.rows.add(self.now, node.id, event, detail, node.battery.residual)

    def _new_rdv(self):
        self._rdv_counter += 1
        return self._rdv_counter

    # ------------------------------------------------------------------
    # energy accounting

    def _interval_cost(self, node, t0, t1):
        """(idle, sleep) joules the node draws over [t0, t1): awake on its
        schedule or inside one of its reservations (disjoint, as ``mac.reserve``
        keeps them), asleep otherwise."""
        schedule = node.schedule
        awake = schedule.awake_time(t0, t1)
        for s, e, _ in node.mac.reservations:
            if s < t1 and e > t0:
                s, e = max(s, t0), min(e, t1)
                awake += (e - s) - schedule.awake_time(s, e)
        p = self.params
        return (awake / US) * p.p_rx, ((t1 - t0 - awake) / US) * p.p_sleep

    def _account(self, node):
        """Charge idle/sleep power since the node was last accounted;
        returns whether the node is still alive."""
        now = self.now
        t0 = node.last_accounted_us
        if now <= t0 or not node.battery.alive:
            node.last_accounted_us = max(t0, now)
            return node.battery.alive
        idle, sleep = self._interval_cost(node, t0, now)
        if idle + sleep >= node.battery.residual:
            lo, hi = t0 + 1, now
            while lo < hi:
                mid = (lo + hi) // 2
                idle, sleep = self._interval_cost(node, t0, mid)
                if idle + sleep >= node.battery.residual:
                    hi = mid
                else:
                    lo = mid + 1
            self._settle(node, *self._interval_cost(node, t0, lo), dying=True)
            self._register_death(node, lo)
            return False
        self._settle(node, idle, sleep)
        reservations = node.mac.reservations
        for _, end, _ in reservations:
            if end <= now:  # rebuild only when one has expired
                node.mac.reservations = [r for r in reservations if r[1] > now]
                break
        return node.battery.alive

    def _settle(self, node, idle, sleep, dying=False):
        """Draw ``idle`` and ``sleep`` joules from the node's battery, log the
        draw as an ``energy_account`` row and mark the node accounted up to
        now; a ``dying`` node's last rounding residue is drawn as idle."""
        battery = node.battery
        idle, slept = battery.drain_idle(idle, sleep)
        if dying and battery.alive:
            idle += battery.drain(battery.residual, "idle_listen")
        node.last_accounted_us = self.now
        if idle or slept or dying:
            self.rows.add(self.now, node.id, "energy_account",
                          self._account_detail(idle, slept), battery.residual)

    def _register_death(self, node, death_us):
        self._emit(node, "node_died", f'{{"death_time_us": {death_us}}}')
        t = death_us / US
        if (self.metrics.network_lifetime_first_death_s is None
                or t < self.metrics.network_lifetime_first_death_s):
            self.metrics.network_lifetime_first_death_s = t
        if node.id == self.trn and self.metrics.trn_death_time_s is None:
            self.metrics.trn_death_time_s = t

    def _charge(self, node, amount, category, event, detail):
        """Drain ``amount`` J of ``category``; ``detail(j)`` is the row text for ``j`` J drawn."""
        if not self._account(node):
            self._emit(node, "charge_skipped_dead", f'{{"event": "{event}"}}')
            return 0.0
        drawn = node.battery.drain(amount, category)
        self._emit(node, event, detail(drawn))
        if not node.battery.alive:
            self._register_death(node, self.now)
        return drawn

    # ------------------------------------------------------------------
    # wakefulness and reservations

    def _is_awake(self, node, t_us):
        if not node.battery.alive:
            return False
        if node.schedule.is_awake(t_us):
            return True
        for s, e, _ in node.mac.reservations:
            if s <= t_us < e:
                return True
        return False

    def _add_reservation(self, node, start, end, rdv, kind):
        ok = macmod.reserve(node.mac, start, end, rdv)
        self._emit(node, "reserve",
                   f'{{"accepted": {_JSON_BOOL[ok]}, "end_us": {end}, "kind": "{kind}", '
                   f'"rdv": {rdv}, "start_us": {start}}}')
        return ok

    def _ensure_awake_for(self, node, start, end, rdv, kind):
        # reservation-based wake-up: nodes force-wake for their own actions
        if node.schedule.awake_time(start, end) < end - start:
            self._add_reservation(node, start, end, rdv, kind)

    # ------------------------------------------------------------------
    # radio

    def _tx_duration_us(self, bits):
        return max(1, int(math.ceil(bits / self.bitrate * US)))

    def _send(self, sender_specs, addressed, packet, tag, meta, coop=False):
        """Put one transmission on the air.

        sender_specs: list of (node_id, nominal_tx_distance). Dead
        senders are dropped; each live sender is charged the two-regime
        transmit energy over its own nominal distance.
        """
        rdv = self._new_rdv()
        dur = self._tx_duration_us(packet.size_bits)
        live = []
        for nid, dist in sender_specs:
            node = self.nodes[nid]
            if not self._account(node):
                self._emit(node, "tx_skipped_dead", f'{{"tag": "{tag}"}}')
                continue
            self._ensure_awake_for(node, self.now, self.now + dur, rdv, "tx")
            self._charge(node, tx_energy(packet.size_bits, dist, self.params),
                         "transmit", "tx",
                         lambda j: f'{{"bits": {packet.size_bits}, "category": "transmit", '
                                   f'"coop": {_JSON_BOOL[coop]}, "distance_m": {dist!r}, '
                                   f'"end_us": {self.now + dur}, "j": {j!r}, '
                                   f'"packet": {packet.seq}, "pkind": "{packet.kind}", '
                                   f'"rdv": {rdv}, "tag": "{tag}"}}')
            if node.battery.alive:
                live.append(nid)
        if not live:
            return
        txn = _Txn(rdv_id=rdv,
                   sender_positions=tuple(self.nodes[n].pos for n in live),
                   sender_ids=tuple(live),
                   addressed_to=tuple(addressed),
                   cooperative=coop,
                   start_us=self.now, end_us=self.now + dur,
                   packet=packet, tag=tag, meta=meta)
        self.unresolved.append(txn)
        self._schedule(self.now + dur, "tx_end", txn)

    def _reply(self, node, target, kind, meta):
        """Answer ``target`` with a ``kind`` control packet after the
        rx-to-tx turnaround; the heap event is ``send_<kind>``."""
        self._schedule(self.now + TURNAROUND_US, "send_" + kind, node, target, kind, meta)

    def _on_send_reply(self, sender, target, kind, meta):
        pkt = Packet(seq=_REPLY_SEQ[kind], size_bits=self.cfg.mac.ctrl_bits,
                     source=sender.id, destination=target.id, kind=kind)
        self._send([(sender.id, distance(sender.pos, target.pos))], [target.id],
                   pkt, kind, meta)

    def _on_tx_end(self, txn):
        if txn.resolved:
            return
        cluster = [txn]
        changed = True
        while changed:
            changed = False
            for other in self.unresolved:
                if other in cluster or other.resolved:
                    continue
                if any(other.start_us < t.end_us and t.start_us < other.end_us
                       for t in cluster):
                    cluster.append(other)
                    changed = True
        if any(t.end_us > self.now for t in cluster):
            return  # a later-ending member of the cluster resolves it
        for t in cluster:
            t.resolved = True
        self.unresolved = [t for t in self.unresolved if not t.resolved]
        self._resolve_cluster(cluster)

    def _resolve_cluster(self, cluster):
        """Charge and dispatch what each receiver hears of overlapping
        transmissions; the channel decides what that is."""
        listening = defaultdict(list)  # receiver -> members it is awake for
        for t in cluster:
            for rid in self.index.may_hear(t):
                if self._is_awake(self.nodes[rid], t.start_us):
                    listening[rid].append(t)
        for out in resolve_slot(listening, self.positions, self.base_range, self.d0):
            rid = out.receiver
            receiver = self.nodes[rid]
            if out.collision:
                self.metrics.collisions += 1
                lost = [t.packet.seq for t in out.audible if rid in t.addressed_to]
                self.metrics.collision_losses += len(lost)
                self._emit(receiver, "collision",
                           f'{{"lost_packets": {lost}, '
                           f'"rdvs": {sorted({t.rdv_id for t in out.audible})}}}')
                for t in out.audible:
                    cat = "receive" if rid in t.addressed_to else "overhear"
                    self._charge(receiver, rx_energy(t.packet.size_bits, self.params),
                                 cat, "rx_corrupt",
                                 lambda j: f'{{"bits": {t.packet.size_bits}, "category": "{cat}", '
                                           f'"j": {j!r}, "packet": {t.packet.seq}, '
                                           f'"rdv": {t.rdv_id}}}')
                continue
            t = out.decoded
            if rid in t.addressed_to:
                self._charge(receiver, rx_energy(t.packet.size_bits, self.params),
                             "receive", "rx",
                             lambda j: f'{{"bits": {t.packet.size_bits}, "category": "receive", '
                                       f'"j": {j!r}, "packet": {t.packet.seq}, '
                                       f'"pkind": "{t.packet.kind}", "rdv": {t.rdv_id}, '
                                       f'"tag": "{t.tag}"}}')
                if receiver.battery.alive:
                    self._RX_HANDLERS[t.tag](self, receiver, t)
            else:
                self._charge(receiver, rx_energy(t.packet.size_bits, self.params),
                             "overhear", "overhear",
                             lambda j: f'{{"bits": {t.packet.size_bits}, "category": "overhear", '
                                       f'"j": {j!r}, "packet": {t.packet.seq}, '
                                       f'"rdv": {t.rdv_id}, "tag": "{t.tag}"}}')

    # ------------------------------------------------------------------
    # protocol: hop orchestration

    def _resolve_mode(self, node, elected):
        mode = self.cfg.mac.mode
        if not elected or not elected.helpers:
            return "noct"
        if mode == "ct":
            return "ct"
        # auto: cooperate when the hop is out of direct reach or the
        # sender has fallen well below its neighbourhood's mean energy
        nxt = self.nodes[node.next_hop]
        if not in_reach(node.pos, nxt.pos, self.base_range):
            return "ct"
        neigh = [self.nodes[n].battery.residual for n in self.neighbours[node.id]
                 if self.nodes[n].battery.alive]
        if neigh and node.battery.residual < self.cfg.mac.ct_energy_fraction * (sum(neigh) / len(neigh)):
            return "ct"
        return "noct"

    def _on_traffic(self, node, packets):
        self.metrics.packets_offered += len(packets)
        self._emit(node, "offered",
                   f'{{"count": {len(packets)}, "seqs": {[p.seq for p in packets]}}}')
        node.mac.pending_packets.extend(packets)
        self._kick_hop(node)

    def _kick_hop(self, node):
        xfer = node.xfer
        if xfer.active or xfer.hop_scheduled or not node.mac.pending_packets:
            return
        if node.next_hop is None:
            self._emit(node, "delivery_failure",
                       f'{{"reason": "no route to receiver", '
                       f'"seqs": {[p.seq for p in node.mac.pending_packets]}}}')
            self.metrics.packets_failed += len(node.mac.pending_packets)
            node.mac.pending_packets.clear()
            return
        t = node.schedule.next_wake(self.now)
        xfer.hop_scheduled = True
        self._schedule(max(t, self.now), "start_hop", node)

    def _on_start_hop(self, node):
        xfer = node.xfer
        xfer.hop_scheduled = False
        if not self._account(node) or not node.mac.pending_packets or xfer.active:
            return
        xfer.active = True
        xfer.batch = list(node.mac.pending_packets)
        if self.cfg.mac.mode == "noct":
            self._noct_begin(node)
        else:
            self._ct_query(node)

    def _finish_batch(self, node):
        # pending packets only grow by append while a hop is active, so the
        # batch is still their prefix
        count = len(node.xfer.batch)
        del node.mac.pending_packets[:count]
        node.xfer = _Transfer()
        self._emit(node, "batch_done", f'{{"count": {count}}}')
        self._kick_hop(node)

    # --- cooperative path -------------------------------------------------

    def _ct_query(self, node):
        xfer = node.xfer
        nxt = self.nodes[node.next_hop]
        neighbors = tuple(n for n in self.neighbours[node.id]
                          if n not in (node.next_hop, self.fr)
                          and self.nodes[n].battery.alive)
        xfer.request = CtRequest(
            requester=node.id,
            packet_size_bytes=self.cfg.traffic.packet_size_bytes,
            packet_count=len(xfer.batch),
            next_hop_distance=distance(node.pos, nxt.pos),
            neighbor_ids=neighbors)
        ctrl_dur = self._tx_duration_us(self.cfg.mac.ctrl_bits)
        macmod.step(node.mac, "ct_query", self.now)
        self._ensure_awake_for(node, self.now, self.now + 2 * ctrl_dur + TURNAROUND_US,
                               self._new_rdv(), "station_exchange")
        d_station = distance(node.pos, self.station_pos)
        self._charge(node, tx_energy(self.cfg.mac.ctrl_bits, d_station, self.params),
                     "transmit", "ct_request",
                     lambda j: f'{{"bits": {self.cfg.mac.ctrl_bits}, "category": "transmit", '
                               f'"d": {xfer.request.next_hop_distance!r}, "j": {j!r}, '
                               f'"n": {xfer.request.packet_count}, '
                               f'"neighbors": {list(neighbors)}}}')
        if not node.battery.alive:
            return
        self._schedule(self.now + 2 * ctrl_dur + TURNAROUND_US, "station_reply", node)

    def _on_station_reply(self, node):
        xfer = node.xfer
        if xfer.request is None or not self._account(node):
            return
        # the station meters every battery losslessly and instantly; the
        # election reads only the requester's neighbours
        for nid in xfer.request.neighbor_ids:
            self.station.update_energy(nid, self.nodes[nid].battery.residual)
        elected, skipped = self.station.handle_ct_request(xfer.request, self.params)
        leader = "null" if elected.leader is None else elected.leader
        self._emit(node, "candidate_reply",
                   f'{{"helpers": {list(elected.helpers)}, "leader": {leader}, '
                   f'"skipped": {skipped}}}')
        self._charge(node, rx_energy(self.cfg.mac.ctrl_bits, self.params),
                     "receive", "rx",
                     lambda j: f'{{"bits": {self.cfg.mac.ctrl_bits}, "category": "receive", '
                               f'"j": {j!r}, "packet": null, "pkind": "candidate_reply", '
                               f'"rdv": null, "tag": "candidate_reply"}}')
        macmod.step(node.mac, "candidate_reply", self.now)
        xfer.mode = self._resolve_mode(node, elected)
        self._emit(node, "mode_selected", f'{{"mode": "{xfer.mode}"}}')
        if xfer.mode == "noct":
            self._noct_begin(node)
            return
        origin = self.now + TURNAROUND_US
        xfer.sf = compose_superframe(node.id, elected, node.next_hop,
                                     len(xfer.batch), origin,
                                     self.slot_us, self.frame_us)
        if xfer.sf.continued:
            self._emit(node, "superframe_continued",
                       f'{{"frame_us": {self.frame_us}, "slots": {xfer.sf.packet_count}}}')
        # station-assisted wake bootstrap: elected helpers and the next
        # hop are told (out of band) when to listen for the superframe
        control_end = origin + self.slot_us
        for nid in (*elected.helpers, node.next_hop):
            listener = self.nodes[nid]
            self._charge(listener, rx_energy(self.cfg.mac.ctrl_bits, self.params),
                         "receive", "station_notify",
                         lambda j: f'{{"category": "receive", "j": {j!r}, "listen_from_us": '
                                   f'{origin}, "listen_until_us": {control_end}}}')
            if listener.battery.alive:
                self._add_reservation(listener, origin, control_end, self._new_rdv(),
                                      "sf_listen")
        self._schedule(origin, "sf_announce", node)

    def _on_sf_announce(self, node):
        sf = node.xfer.sf
        if sf is None:
            return
        addressed = list(sf.helpers)  # a cooperative hop has at least one helper
        nxt = self.nodes[node.next_hop]
        if in_reach(node.pos, nxt.pos, self.base_range):
            addressed.append(node.next_hop)
        dist = max(distance(node.pos, self.nodes[h].pos) for h in addressed)
        pkt = Packet(seq=-1, size_bits=self.cfg.mac.superframe_bits,
                     source=node.id, destination=-1, kind="superframe")
        self._ensure_awake_for(node, sf.origin_us, sf.rdv_slots()[-1][1],
                               self._new_rdv(), "sf_span")
        macmod.step(node.mac, "sf_announce", self.now)
        self._send([(node.id, dist)], addressed, pkt, "superframe", {"origin": node.id})
        self._set_timer(node, "ct_ack", self.timeout_us)

    def _on_superframe_rx(self, receiver, txn):
        origin = self.nodes[txn.meta["origin"]]
        sf = origin.xfer.sf
        if sf is None:
            return
        rdv = self._new_rdv()
        accepted, is_leader = macmod.on_superframe(receiver.mac, sf, rdv)
        for (start, end), ok in zip(sf.rdv_slots(), accepted):
            self._emit(receiver, "reserve",
                       f'{{"accepted": {_JSON_BOOL[ok]}, "end_us": {end}, "kind": "ct_rdv", '
                       f'"rdv": {rdv}, "start_us": {start}}}')
        if is_leader:
            self._reply(receiver, origin, "ct_ack", {"origin": origin.id})

    def _on_ct_ack_rx(self, node, txn):
        xfer = node.xfer
        if xfer.sf is None or node.mac.phase is not Phase.AWAITING_CT_ACK:
            return
        macmod.step(node.mac, "ct_ack", self.now)
        self._cancel_timer(node)
        self._emit(node, "ct_reserved", f'{{"leader": {txn.sender_ids[0]}}}')
        nxt = self.nodes[node.next_hop]
        if not in_reach(node.pos, nxt.pos, self.base_range):
            self._schedule(self.now + TURNAROUND_US, "sf_relay", node)
        for i, (start, _) in enumerate(xfer.sf.rdv_slots()):
            self._schedule(start, "ct_slot", node, i)

    def _on_sf_relay(self, node):
        xfer = node.xfer
        if xfer.sf is None:
            return
        nxt = self.nodes[node.next_hop]
        senders = [(node.id, distance(node.pos, nxt.pos))]
        for h in xfer.sf.helpers:
            senders.append((h, distance(self.nodes[h].pos, nxt.pos)))
        pkt = Packet(seq=-1, size_bits=self.cfg.mac.superframe_bits,
                     source=node.id, destination=node.next_hop, kind="superframe")
        self._send(senders, [node.next_hop], pkt, "superframe",
                   {"origin": node.id}, coop=True)

    def _on_ct_slot(self, node, i):
        xfer = node.xfer
        if xfer.sf is None:
            return
        if not self._account(node):
            self._emit(node, "ct_slot_skipped", f'{{"index": {i}, "reason": "transmitter dead"}}')
            return
        if i >= len(xfer.batch):
            return
        macmod.step(node.mac, "slot_start", self.now)
        packet = xfer.batch[i]
        helpers_alive = [h for h in xfer.sf.helpers if self.nodes[h].battery.alive]
        xfer.got_broadcast[i] = set()
        if helpers_alive:
            dist = max(distance(node.pos, self.nodes[h].pos) for h in helpers_alive)
            self._send([(node.id, dist)], helpers_alive, packet, "ct_broadcast",
                       {"origin": node.id, "index": i})
        start, _ = xfer.sf.rdv_slots()[i]
        self._schedule(start + xfer.sf.slot_us // 2, "ct_coop", node, i)

    def _on_ct_broadcast_rx(self, receiver, txn):
        origin = self.nodes[txn.meta["origin"]]
        origin.xfer.got_broadcast[txn.meta["index"]].add(receiver.id)

    def _on_ct_coop(self, node, i):
        xfer = node.xfer
        if xfer.sf is None or i >= len(xfer.batch):
            return
        packet = xfer.batch[i]
        nxt = self.nodes[node.next_hop]
        senders = []
        if self._account(node):
            senders.append((node.id, distance(node.pos, nxt.pos)))
        for h in xfer.sf.helpers:
            if h in xfer.got_broadcast.get(i, ()) and self.nodes[h].battery.alive:
                senders.append((h, distance(self.nodes[h].pos, nxt.pos)))
        if not senders:
            self._emit(node, "delivery_failure",
                       f'{{"reason": "no live cooperative senders", "seqs": [{packet.seq}]}}')
        else:
            self._send(senders, [node.next_hop], packet, "ct_coop",
                       {"origin": node.id, "index": i}, coop=True)
        macmod.step(node.mac, "coop_done", self.now)
        if i == len(xfer.batch) - 1:
            self._schedule(xfer.sf.rdv_slots()[i][1], "ct_batch_done", node)

    # --- no-CT path -------------------------------------------------------

    def _noct_begin(self, node):
        xfer = node.xfer
        xfer.mode = "noct"
        xfer.noct_index = 0
        self._emit(node, "mode_selected", '{"mode": "noct"}')
        self._noct_next(node)

    def _noct_next(self, node):
        xfer = node.xfer
        if xfer.noct_index >= len(xfer.batch):
            self._finish_batch(node)
            return
        xfer.attempts = 0
        self._on_noct_request(node)

    def _on_noct_request(self, node):
        xfer = node.xfer
        if not xfer.active or xfer.noct_index >= len(xfer.batch):
            return
        nxt = self.nodes[node.next_hop]
        t_req = nxt.schedule.next_wake(self.now)
        if t_req > self.now:
            # one handshake fits per wake window, so contenders spread over
            # the next few frames by a deterministic per-(sender, attempt)
            # draw instead of piling into the same window
            frame_pick = _mix(node.id, xfer.attempts) % _CONTENTION_FRAMES
            self._schedule(t_req + frame_pick * self.frame_us, "noct_request", node)
            return
        if not self._account(node):
            return
        interval_start = self.now + self.timeout_us + TURNAROUND_US
        data_bits = 8 * self.cfg.traffic.packet_size_bytes
        interval_us = (self._tx_duration_us(data_bits)
                       + self._tx_duration_us(self.cfg.mac.ctrl_bits)
                       + 3 * TURNAROUND_US)
        rdv = self._new_rdv()
        self._ensure_awake_for(node, self.now, self.now + self.timeout_us, rdv, "noct_wait")
        pkt = Packet(seq=-3, size_bits=self.cfg.mac.ctrl_bits, source=node.id,
                     destination=node.next_hop, kind="noct_request")
        macmod.step(node.mac, "noct_request", self.now)
        self._send([(node.id, distance(node.pos, nxt.pos))], [node.next_hop], pkt,
                   "noct_request",
                   {"origin": node.id, "interval_start": interval_start,
                    "interval_us": interval_us, "rdv": rdv})
        self._set_timer(node, "noct_reply", self.timeout_us)

    def _on_noct_request_rx(self, receiver, txn):
        start = txn.meta["interval_start"]
        dur = txn.meta["interval_us"]
        accepted = macmod.reserve_noct(receiver.mac, start, dur, txn.meta["rdv"])
        self._emit(receiver, "reserve",
                   f'{{"accepted": {_JSON_BOOL[accepted]}, "end_us": {start + dur}, '
                   f'"kind": "noct_rdv", "rdv": {txn.meta["rdv"]}, "start_us": {start}}}')
        self._reply(receiver, self.nodes[txn.meta["origin"]], "noct_reply",
                    {"accepted": accepted, "interval_start": start, "interval_us": dur})

    def _on_noct_reply_rx(self, node, txn):
        if node.mac.phase is not Phase.AWAITING_NOCT_REPLY:
            return
        macmod.step(node.mac, "noct_reply", self.now)
        self._cancel_timer(node)
        if txn.meta["accepted"]:
            start = txn.meta["interval_start"]
            rdv = self._new_rdv()
            self._add_reservation(node, start, start + txn.meta["interval_us"], rdv, "noct_tx")
            self._schedule(start, "noct_data", node)
        else:
            self._noct_retry(node, "reservation rejected")

    def _noct_retry(self, node, reason):
        xfer = node.xfer
        xfer.attempts += 1
        if xfer.attempts > self.cfg.mac.retry_cap:
            packet = xfer.batch[xfer.noct_index]
            self._emit(node, "delivery_failure",
                       f'{{"attempts": {xfer.attempts}, "reason": "{reason}", '
                       f'"seqs": [{packet.seq}]}}')
            self.metrics.packets_failed += 1
            xfer.noct_index += 1
            self._noct_next_packet_after_failure(node)
            return
        # the re-request path re-draws its contention frame, so the local
        # backoff only needs to clear the current exchange
        backoff = self.slot_us
        self._emit(node, "retry", f'{{"attempt": {xfer.attempts}, "reason": "{reason}"}}')
        self._schedule(self.now + backoff, "noct_request", node)

    def _noct_next_packet_after_failure(self, node):
        xfer = node.xfer
        if xfer.noct_index >= len(xfer.batch):
            self._finish_batch(node)
        else:
            xfer.attempts = 0
            self._schedule(self.now, "noct_request", node)

    def _on_noct_data(self, node):
        xfer = node.xfer
        if xfer.noct_index >= len(xfer.batch) or not self._account(node):
            return
        packet = xfer.batch[xfer.noct_index]
        nxt = self.nodes[node.next_hop]
        self._send([(node.id, distance(node.pos, nxt.pos))], [node.next_hop], packet,
                   "data", {"origin": node.id, "mode": "noct"})
        macmod.step(node.mac, "noct_data", self.now)  # now waiting for the data ack
        self._set_timer(node, "data_ack", self.timeout_us)

    def _on_data_rx(self, receiver, txn):
        origin = self.nodes[txn.meta["origin"]]
        self._accept_packet(receiver, txn.packet, origin)
        self._reply(receiver, origin, "data_ack", {"packet": txn.packet.seq})

    def _on_data_ack_rx(self, node, txn):
        xfer = node.xfer
        if xfer.mode == "noct" and xfer.active:
            self._cancel_timer(node)
            macmod.step(node.mac, "data_ack", self.now)
            xfer.noct_index += 1
            self._noct_next(node)

    def _accept_packet(self, receiver, packet, origin):
        if receiver.id == self.fr or receiver.id == packet.destination:
            self.metrics.packets_delivered += 1
            self._emit(receiver, "delivered",
                       f'{{"from": {origin.id}, "seq": {packet.seq}, "source": {packet.source}}}')
        else:
            self._emit(receiver, "forwarding", f'{{"from": {origin.id}, "seq": {packet.seq}}}')
            receiver.mac.pending_packets.append(packet)
            self._kick_hop(receiver)

    # ------------------------------------------------------------------
    # timers

    def _set_timer(self, node, tag, delay_us):
        node.mac.timer_token += 1
        self._schedule(self.now + delay_us, "timer", node, tag, node.mac.timer_token)

    def _cancel_timer(self, node):
        node.mac.timer_token += 1

    def _on_timer(self, node, tag, token):
        if token != node.mac.timer_token or not self._account(node):
            return
        xfer = node.xfer
        self._emit(node, "timeout", f'{{"tag": "{tag}"}}')
        if tag == "ct_ack":
            macmod.step(node.mac, "timeout", self.now)
            xfer.retries += 1
            xfer.sf = None
            if xfer.retries <= self.cfg.mac.retry_cap:
                self._ct_query(node)
            else:
                self._noct_begin(node)
        elif tag in ("noct_reply", "data_ack"):
            macmod.step(node.mac, "timeout", self.now)
            self._noct_retry(node, f"{tag} timeout")

    # ------------------------------------------------------------------
    # housekeeping and run loop

    def _on_housekeeping(self, nodes):
        """Account and sample every listed node, in id order, then schedule
        the next sweep over those still alive.

        Accounting schedules no event, so the samples of one sweep are
        exactly those of one back-to-back event per node. Every schedule is
        awake equally long over a whole number of frames, so when the last
        sweep lies that far back, the nodes it accounted that nothing touched
        since and that hold no reservation all draw one ``(idle_j, sleep_j)``:
        it is costed once and settled on each such node it leaves charged.
        Every other node goes through ``_account``.
        """
        now, t0 = self.now, self._swept_us
        self._swept_us = now
        draw = math.inf  # idle + sleep of the shared draw; none is settled at inf
        if (now - t0) % self.frame_us == 0:
            for node in nodes:
                if node.last_accounted_us == t0 and not node.mac.reservations:
                    idle, sleep = self._interval_cost(node, t0, now)
                    draw = idle + sleep
                    break
        t_s = now / US
        timeline = self.metrics.energy_timeline
        alive = []
        for node in nodes:
            battery = node.battery
            if (node.last_accounted_us == t0 and not node.mac.reservations
                    and draw < battery.residual):
                self._settle(node, idle, sleep)
            else:
                self._account(node)
            if battery.alive:
                alive.append(node)
            timeline.append((t_s, node.id, battery.residual))
        nxt = now + self.cfg.sim.housekeeping_frames * self.frame_us
        if nxt <= self.horizon_us and alive:
            self._schedule(nxt, "housekeeping", alive)

    # heap kind -> handler, called as handler(self, *args)
    _HANDLERS = {
        "traffic": _on_traffic,
        "start_hop": _on_start_hop,
        "station_reply": _on_station_reply,
        "sf_announce": _on_sf_announce,
        "send_ct_ack": _on_send_reply,
        "sf_relay": _on_sf_relay,
        "ct_slot": _on_ct_slot,
        "ct_coop": _on_ct_coop,
        "ct_batch_done": _finish_batch,
        "noct_request": _on_noct_request,
        "noct_data": _on_noct_data,
        "send_noct_reply": _on_send_reply,
        "send_data_ack": _on_send_reply,
        "tx_end": _on_tx_end,
        "timer": _on_timer,
        "housekeeping": _on_housekeeping,
    }

    # tag of a received transmission -> handler(self, receiver, txn)
    _RX_HANDLERS = {
        "superframe": _on_superframe_rx,
        "ct_ack": _on_ct_ack_rx,
        "ct_broadcast": _on_ct_broadcast_rx,
        "ct_coop": _on_data_rx,
        "noct_request": _on_noct_request_rx,
        "noct_reply": _on_noct_reply_rx,
        "data": _on_data_rx,
        "data_ack": _on_data_ack_rx,
    }

    def run(self) -> Metrics:
        while self.heap:
            t, _, kind, args = heapq.heappop(self.heap)
            if t > self.horizon_us:
                break
            self.now = t
            self._HANDLERS[kind](self, *args)
        # settle every node's power draw up to the horizon and record it: a
        # last sweep, which schedules no other
        self.now = self.horizon_us
        nodes = [self.nodes[nid] for nid in sorted(self.nodes)]
        self._on_housekeeping(nodes)
        for node in nodes:
            self.metrics.residual_by_node[node.id] = node.battery.residual
            self.metrics.energy_by_category[node.id] = dict(node.battery.consumed_by_category)
        undeliverable = self.metrics.packets_offered - self.metrics.packets_delivered
        self.metrics.packets_failed = max(self.metrics.packets_failed, undeliverable)
        self.metrics.events_processed = len(self.rows)
        return self.metrics


def run(cfg: ScenarioConfig, seed: int):
    """Execute one scenario; returns (Metrics, trace rows)."""
    sim = Simulator(cfg, seed)
    return sim.run(), sim.rows
