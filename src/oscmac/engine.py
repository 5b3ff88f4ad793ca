"""Deterministic discrete-event core for the cooperative duty-cycle MAC.

Single-threaded event loop over a heap of ``(t_us, seq, kind, args)``
entries; ``_HANDLERS[kind](sim, *args)`` handles one, and ``args`` are the
handler's own arguments (node objects, not ids). Time is kept in integer
microseconds and ``seq`` breaks ties, so ordering and trace equality are
exact. ``perfbench/layers.py`` unpacks heap entries in this shape and patches
this module's ``heapq``, ``distance``, ``in_reach``, ``ct_reach``,
``build_schedules``, ``compose_superframe``, ``tx_energy`` and ``rx_energy``,
so the entry shape and these names must stay. A transmission (``_Txn``) carries
its sender ids and its rx handler's arguments: ``_RX_HANDLERS[tag](sim,
receiver, txn, *txn.args)``. Its listeners are fixed as it goes on the air: the
nodes it reaches that are alive and awake then. ``channel.collide`` decides at
each of them, as it starts, whether it overlaps another transmission that node
hears; a ``collision`` row names the overlapping rendezvous. At its own
``tx_end`` each listener, in id order, is charged for it and, if it is
addressed there and not lost, dispatched it.

Node positions live only in the neighbour index, ``index.positions``. Each
routed node holds its next-hop node, the hop's length and whether it reaches
the hop alone, all fixed at build; ``_send`` alone picks how far a sender
transmits: to its farthest addressee.

Three event orders hold by construction, so no handler re-checks them. A node's
superframe is set from its ``station_reply`` until its batch is done (only a
``ct_ack`` timeout clears it, and accepting the ``ct_ack`` makes that timer
stale), so its announce, relay, slot and coop events find it, each slot index
inside the batch; so does each ``ct_broadcast`` reception, dispatched at the
broadcast's own end, inside the first half of its slot. A ``start_hop`` is
scheduled only for pending packets and no batch, and ``hop_scheduled`` blocks a
second one. A no-CT batch advances only on an awaited ``data_ack`` or at the
retry cap; while a ``noct_request`` or ``noct_data`` event is pending the node
awaits nothing and its timer is stale, so each finds its packet in the batch.

``fates`` maps each offered seq to the id of the node holding it, to
``"delivered"``, or to why it was lost. A receiver takes a data packet only
from its holder: routes form a tree, so that is the whole duplicate filter, as
IEEE 802.15.4's data sequence number is. Another copy gets a ``duplicate`` row
and, on no-CT, an ack that stops the retries. ``_fail`` writes every
``delivery_failure`` row, for the seqs the node still holds: ``out_of_reach``
(no route, or a CT copy's next hop outside its audience), ``receiver_asleep``
(in it but not awake, or dying as it receives), ``collision``, ``sender_dead``
(no live CT sender, or the holder died), ``sender_busy`` (every live CT sender
still on the air) or ``retry_cap``. CT has no ARQ and sends no ack, so a CT copy
is final when it ends.

Idle and sleep power draws are accounted lazily from the MAC's awake time
(``MacState.awake_us``) between the events that touch a node, with an exact
binary search for the moment a battery empties. Between two housekeeping sweeps
a whole number of frames apart, every node untouched and unreserved draws the
same joules: a sweep costs them once, and drains and logs each run of such nodes
it leaves charged as one block, in id order; the rest are accounted one by one.
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
from dataclasses import dataclass, field, fields

from . import mac as macmod
from .channel import AirTransmission, NeighbourIndex, collide, ct_reach, distance, in_reach
from .config import ConfigError, ScenarioConfig
from .energy import Battery, RadioEnergyParams, drain_idle_all, rx_energy, tx_energy
from .mac import MacState, Packet, Superframe, build_schedules, compose_superframe
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

__all__ = ["Simulator", "Metrics", "run", "in_reach", "ct_reach"]


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

    @property
    def delivery_ratio(self) -> float:
        return self.packets_delivered / self.packets_offered if self.packets_offered else 0.0

    def to_dict(self) -> dict:
        """Every field, node-keyed maps with str keys, and ``delivery_ratio``."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in doc.items():
            if isinstance(value, dict):
                doc[name] = {str(k): v for k, v in value.items()}
        doc["delivery_ratio"] = self.delivery_ratio
        return doc


@dataclass
class _Transfer:
    """Engine-side bookkeeping for one node's in-flight batch."""
    batch: list = field(default_factory=list)
    sf: Superframe = None         # type: ignore[assignment]
    got_broadcast: dict = field(default_factory=dict)  # slot index -> set of helper ids
    noct_index: int = 0
    attempts: int = 0
    retries: int = 0
    hop_scheduled: bool = False


@dataclass(eq=False)
class SimNode:
    id: int
    battery: Battery
    mac: MacState
    next_hop: "SimNode" = None    # type: ignore[assignment]  # None: no route
    hop_m: float = None           # type: ignore[assignment]  # distance to next_hop
    hop_direct: bool = False      # whether it reaches next_hop alone
    depth: int = 0
    last_accounted_us: int = 0
    on_air_until: int = 0         # end of its latest transmission
    hearing: list = field(default_factory=list)  # what it listens to, in start order
    xfer: _Transfer = field(default_factory=_Transfer)  # the hop in progress


@dataclass(eq=False, kw_only=True)
class _Txn(AirTransmission):
    """A transmission on the air and the packet it carries."""
    packet: Packet
    tag: str            # superframe | ct_broadcast | ct_coop | noct_request | noct_reply | data | data_ack | ct_ack
    args: tuple         # its rx handler's arguments after (receiver, txn)
    listeners: list = field(default_factory=list)  # nodes that hear it, in id order
    lost: set = field(default_factory=set)  # ids of the listeners it collided at


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
        bits = max(8 * cfg.traffic.packet_size_bytes, cfg.mac.ctrl_bits, cfg.mac.superframe_bits)
        if not math.isfinite(bits / self.bitrate * US):
            raise ConfigError(f"mac.bit_rate_bps gives a {bits}-bit packet no finite airtime")
        self.data_us = self._tx_duration_us(8 * cfg.traffic.packet_size_bytes)
        # a CT slot's broadcast and its cooperative copy each take half of it
        if cfg.mac.mode != "noct" and self.slot_us // 2 < self.data_us:
            raise ConfigError(f"mac.slot_ms gives half a slot of {self.slot_us // 2} us, less "
                              f"than one packet's {self.data_us} us of airtime")

        self.heap = []
        self._seq = 0
        self.rows = TraceRows()
        self.metrics = Metrics()
        self.fates = {}  # seq -> id of the node holding it, "delivered", or why it was lost
        self.now = 0
        self._rdv_counter = 0
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
            grng = random.Random(gen.seed)
            area = gen.area_m
            self.fr = 0
            positions = {0: (area / 2.0, area / 2.0)}
            for i in range(1, gen.node_count):
                positions[i] = (grng.uniform(0, area), grng.uniform(0, area))
            initial = {i: cfg.sim.battery_j for i in positions}

        # positions never change, so radio neighbourhoods are computed once
        self.index = NeighbourIndex(positions, cfg.sim.base_range_m, self.params.d0)

        # routes toward the final receiver, and each routed node's hop count
        # along them; routeless nodes never originate or forward
        ids = sorted(positions)
        routes = self._bfs_routes() if cfg.topology.routes is None else cfg.topology.routes
        depths = {self.fr: 0}
        for nid in routes:
            depth, hop = 1, routes[nid]
            while hop != self.fr:  # parse_config checked that every chain ends at fr
                depth, hop = depth + 1, routes[hop]
            depths[nid] = depth

        unreachable = max(depths.values()) + 1  # routeless nodes still duty-cycle
        depths = {nid: depths.get(nid, unreachable) for nid in ids}

        schedules = build_schedules(self.index.neighbours, depths, self.frame_us, self.active_us)
        for nid in ids:
            nodes[nid] = SimNode(id=nid, battery=Battery(initial=initial[nid]),
                                 mac=MacState(nid, schedules[nid]), depth=depths[nid])
        for nid, hop in routes.items():
            node = nodes[nid]
            node.next_hop, node.hop_m = nodes[hop], distance(positions[nid], positions[hop])
            node.hop_direct = hop in self.index.neighbours[nid]
        self.nodes = nodes
        self.metrics.initial_by_node = {nid: nodes[nid].battery.initial for nid in ids}

    def _bfs_routes(self):
        routes = {}
        frontier = [self.fr]
        while frontier:
            nxt = []
            for cur in sorted(frontier):
                for nb in self.index.neighbours[cur]:
                    if nb not in routes and nb != self.fr:
                        routes[nb] = cur
                        nxt.append(nb)
            frontier = nxt
        return routes

    def _build_station(self):
        pos = self.cfg.topology.wilem or self.index.positions[self.fr]
        self.station = WiLemStation()
        self.station_pos = tuple(pos)

    def _resolve_sources(self):
        spec = self.cfg.traffic.sources
        candidates = [nid for nid in sorted(self.nodes) if nid != self.fr]
        if isinstance(spec, int):
            pos = self.index.positions
            ranked = sorted(candidates, key=lambda n: (-self.nodes[n].depth,
                                                       -distance(pos[n], pos[self.fr]), n))
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
                                      source=src, kind="data"))
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
        """(idle, sleep) joules the node draws over [t0, t1), awake as its MAC says."""
        awake = node.mac.awake_us(t0, t1)
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
        node.mac.expire(now)
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

    def _settle_shared(self, nodes, idle, sleep):
        """``_settle`` each of ``nodes`` (left charged) as one drain and one block; empty it."""
        if nodes and (idle or sleep):
            self.rows.add_block(self.now, [node.id for node in nodes], "energy_account",
                                self._account_detail(idle, sleep),
                                drain_idle_all([node.battery for node in nodes], idle, sleep))
        nodes.clear()

    def _register_death(self, node, death_us):
        self._emit(node, "node_died", f'{{"death_time_us": {death_us}}}')
        self._fail(node, "sender_dead", [seq for seq, at in self.fates.items() if at == node.id])
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
    # reservations

    def _add_reservation(self, node, start, end, rdv, kind):
        self._log_reservation(node, macmod.reserve(node.mac, start, end), start, end, rdv, kind)

    def _log_reservation(self, node, accepted, start, end, rdv, kind):
        """The ``reserve`` row of one booking and whether ``mac`` accepted it."""
        self._emit(node, "reserve",
                   f'{{"accepted": {_JSON_BOOL[accepted]}, "end_us": {end}, "kind": "{kind}", '
                   f'"rdv": {rdv}, "start_us": {start}}}')

    def _ensure_awake_for(self, node, start, end, rdv, kind):
        # reservation-based wake-up: nodes force-wake for their own actions
        if node.mac.schedule.awake_time(start, end) < end - start:
            self._add_reservation(node, start, end, rdv, kind)

    # ------------------------------------------------------------------
    # radio

    def _tx_duration_us(self, bits):
        return max(1, int(math.ceil(bits / self.bitrate * US)))

    def _send(self, senders, addressed, packet, tag, args, coop=False):
        """Put one transmission from the ``senders`` nodes to the
        ``addressed`` nodes on the air, carrying its rx handler's ``args``.

        Dead senders are dropped, and so are senders still on the air: a
        half-duplex radio sends one thing at a time. Each other sender
        transmits as far as its farthest addressee and is charged the
        two-regime transmit energy over that distance: the one rule for how
        far any sender transmits. Returns whether the transmission went on
        the air; its listeners are fixed then, and its collisions decided.
        """
        rdv = self._new_rdv()
        dur = self._tx_duration_us(packet.size_bits)
        ids = []  # of the senders alive after transmitting
        pos = self.index.positions
        for node in senders:
            if not self._account(node):
                self._emit(node, "tx_skipped_dead", f'{{"tag": "{tag}"}}')
                continue
            if node.on_air_until > self.now:
                self._emit(node, "tx_skipped_busy", f'{{"tag": "{tag}"}}')
                continue
            dist = max(distance(pos[node.id], pos[a.id]) for a in addressed)
            node.on_air_until = self.now + dur
            self._ensure_awake_for(node, self.now, self.now + dur, rdv, "tx")
            self._charge(node, tx_energy(packet.size_bits, dist, self.params),
                         "transmit", "tx",
                         lambda j: f'{{"bits": {packet.size_bits}, "category": "transmit", '
                                   f'"coop": {_JSON_BOOL[coop]}, "distance_m": {dist!r}, '
                                   f'"end_us": {self.now + dur}, "j": {j!r}, '
                                   f'"packet": {packet.seq}, "pkind": "{packet.kind}", '
                                   f'"rdv": {rdv}, "tag": "{tag}"}}')
            if node.battery.alive:
                ids.append(node.id)
        if not ids:
            return False
        txn = _Txn(rdv_id=rdv,
                   sender_ids=tuple(ids),
                   addressed_to=tuple(a.id for a in addressed),
                   cooperative=coop,
                   start_us=self.now, end_us=self.now + dur,
                   packet=packet, tag=tag, args=args)
        for rid in self.index.audience(txn):  # its listeners: alive and awake as it starts
            listener = self.nodes[rid]
            if listener.battery.alive and listener.mac.is_awake(self.now):
                txn.listeners.append(listener)
                if lost := collide(listener.hearing, txn):
                    self._collide(listener, lost)
        self._schedule(self.now + dur, "tx_end", txn)
        return True

    def _collide(self, receiver, lost):
        """Lose each of ``lost``, in start order, at ``receiver``: one
        ``collision`` row, naming the addressed packets it newly loses."""
        rid = receiver.id
        seqs = [t.packet.seq for t in lost if rid in t.addressed_to and rid not in t.lost]
        for t in lost:
            t.lost.add(rid)
        self.metrics.collisions += 1
        self._emit(receiver, "collision",
                   f'{{"lost_packets": {seqs}, "rdvs": {[t.rdv_id for t in lost]}}}')

    def _reply(self, node, target, kind, *args):
        """Answer ``target`` with a ``kind`` control packet carrying ``args``
        after the rx-to-tx turnaround, or once the node is off the air (a
        half-duplex radio); the heap event is ``send_<kind>``."""
        self._schedule(self.now + TURNAROUND_US, "send_" + kind, node, target, kind, *args)

    def _on_send_reply(self, sender, target, kind, *args):
        if sender.on_air_until > self.now:
            self._schedule(sender.on_air_until, "send_" + kind, sender, target, kind, *args)
            return
        pkt = Packet(seq=_REPLY_SEQ[kind], size_bits=self.cfg.mac.ctrl_bits,
                     source=sender.id, kind=kind)
        self._send([sender], [target], pkt, kind, args)

    def _on_tx_end(self, txn):
        """Charge and dispatch ``txn`` to each of its listeners, in id order:
        corrupt where it collided, else received if addressed, else overheard."""
        seq, bits = txn.packet.seq, txn.packet.size_bits
        for receiver in txn.listeners:
            addressed = receiver.id in txn.addressed_to
            if receiver.id in txn.lost:
                self.metrics.collision_losses += addressed
                cat = "receive" if addressed else "overhear"
                self._charge(receiver, rx_energy(bits, self.params), cat, "rx_corrupt",
                             lambda j: f'{{"bits": {bits}, "category": "{cat}", "j": {j!r}, '
                                       f'"packet": {seq}, "rdv": {txn.rdv_id}}}')
                if txn.tag == "ct_coop" and addressed:
                    self._fail(txn.args[0], "collision", [seq])
            elif addressed:
                self._charge(receiver, rx_energy(bits, self.params), "receive", "rx",
                             lambda j: f'{{"bits": {bits}, "category": "receive", "j": {j!r}, '
                                       f'"packet": {seq}, "pkind": "{txn.packet.kind}", '
                                       f'"rdv": {txn.rdv_id}, "tag": "{txn.tag}"}}')
                if receiver.battery.alive:
                    self._RX_HANDLERS[txn.tag](self, receiver, txn, *txn.args)
            else:
                self._charge(receiver, rx_energy(bits, self.params), "overhear", "overhear",
                             lambda j: f'{{"bits": {bits}, "category": "overhear", "j": {j!r}, '
                                       f'"packet": {seq}, "rdv": {txn.rdv_id}, '
                                       f'"tag": "{txn.tag}"}}')
        if txn.tag == "ct_coop":  # a cooperative copy is final: lost unless its next hop took it
            reach = txn.args[0].next_hop.id in self.index.audience(txn)
            self._fail(txn.args[0], "receiver_asleep" if reach else "out_of_reach", [seq])

    # ------------------------------------------------------------------
    # protocol: hop orchestration

    def _cooperates(self, node, elected):
        # never without helpers; forced ct always, and auto when the hop is out of
        # direct reach or the sender has fallen well below its neighbourhood's mean energy
        if not elected.helpers or self.cfg.mac.mode == "ct" or not node.hop_direct:
            return bool(elected.helpers)
        neigh = [self.nodes[n].battery.residual for n in self.index.neighbours[node.id]
                 if self.nodes[n].battery.alive]
        fraction = self.cfg.mac.ct_energy_fraction
        return bool(neigh) and node.battery.residual < fraction * (sum(neigh) / len(neigh))

    def _on_traffic(self, node, packets):
        self.fates.update((p.seq, node.id) for p in packets)
        self._emit(node, "offered",
                   f'{{"count": {len(packets)}, "seqs": {[p.seq for p in packets]}}}')
        node.mac.pending_packets.extend(packets)
        self._kick_hop(node)

    def _kick_hop(self, node):
        xfer = node.xfer
        if xfer.batch or xfer.hop_scheduled or not node.mac.pending_packets:
            return
        if node.next_hop is None:
            self._fail(node, "out_of_reach", [p.seq for p in node.mac.pending_packets])
            node.mac.pending_packets.clear()
            return
        t = node.mac.schedule.next_wake(self.now)
        xfer.hop_scheduled = True
        self._schedule(max(t, self.now), "start_hop", node)

    def _on_start_hop(self, node):
        xfer = node.xfer
        xfer.hop_scheduled = False
        if not self._account(node):
            return
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
        neighbors = tuple(n for n in self.index.neighbours[node.id]
                          if n not in (node.next_hop.id, self.fr)
                          and self.nodes[n].battery.alive)
        request = CtRequest(
            packet_size_bytes=self.cfg.traffic.packet_size_bytes,
            packet_count=len(xfer.batch),
            next_hop_distance=node.hop_m,
            neighbor_ids=neighbors)
        ctrl_dur = self._tx_duration_us(self.cfg.mac.ctrl_bits)
        self._ensure_awake_for(node, self.now, self.now + 2 * ctrl_dur + TURNAROUND_US,
                               self._new_rdv(), "station_exchange")
        d_station = distance(self.index.positions[node.id], self.station_pos)
        self._charge(node, tx_energy(self.cfg.mac.ctrl_bits, d_station, self.params),
                     "transmit", "ct_request",
                     lambda j: f'{{"bits": {self.cfg.mac.ctrl_bits}, "category": "transmit", '
                               f'"d": {node.hop_m!r}, "j": {j!r}, "n": {len(xfer.batch)}, '
                               f'"neighbors": {list(neighbors)}}}')
        if not node.battery.alive:
            return
        self._schedule(self.now + 2 * ctrl_dur + TURNAROUND_US, "station_reply", node, request)

    def _on_station_reply(self, node, request):
        xfer = node.xfer
        if not self._account(node):
            return
        # the station meters every battery losslessly and instantly; the
        # election reads only the requester's neighbours
        for nid in request.neighbor_ids:
            self.station.update_energy(nid, self.nodes[nid].battery.residual)
        elected, skipped = self.station.handle_ct_request(request, self.params)
        leader = "null" if elected.leader is None else elected.leader
        self._emit(node, "candidate_reply",
                   f'{{"helpers": {list(elected.helpers)}, "leader": {leader}, '
                   f'"skipped": {skipped}}}')
        self._charge(node, rx_energy(self.cfg.mac.ctrl_bits, self.params),
                     "receive", "rx",
                     lambda j: f'{{"bits": {self.cfg.mac.ctrl_bits}, "category": "receive", '
                               f'"j": {j!r}, "packet": null, "pkind": "candidate_reply", '
                               f'"rdv": null, "tag": "candidate_reply"}}')
        if not self._cooperates(node, elected):
            self._noct_begin(node)
            return
        self._emit(node, "mode_selected", '{"mode": "ct"}')
        origin = self.now + TURNAROUND_US
        xfer.sf = compose_superframe(elected, len(xfer.batch), origin, self.slot_us, self.frame_us)
        if xfer.sf.continued:
            self._emit(node, "superframe_continued",
                       f'{{"frame_us": {self.frame_us}, "slots": {xfer.sf.packet_count}}}')
        # station-assisted wake bootstrap: elected helpers and the next
        # hop are told (out of band) when to listen for the superframe
        control_end = origin + self.slot_us
        for listener in (*(self.nodes[h] for h in elected.helpers), node.next_hop):
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
        # a cooperative hop has at least one helper
        addressed = [self.nodes[h] for h in sf.helpers]
        if node.hop_direct:
            addressed.append(node.next_hop)
        pkt = Packet(seq=-1, size_bits=self.cfg.mac.superframe_bits,
                     source=node.id, kind="superframe")
        self._ensure_awake_for(node, sf.origin_us, sf.rdv_slots()[-1][1],
                               self._new_rdv(), "sf_span")
        self._send([node], addressed, pkt, "superframe", (node, sf))
        self._await(node, "sf_announce")

    def _on_superframe_rx(self, receiver, txn, origin, sf):
        rdv = self._new_rdv()
        accepted, is_leader = macmod.on_superframe(receiver.mac, sf)
        for (start, end), ok in zip(sf.rdv_slots(), accepted):
            self._log_reservation(receiver, ok, start, end, rdv, "ct_rdv")
        if is_leader:
            self._reply(receiver, origin, "ct_ack")

    def _on_ct_ack_rx(self, node, txn):
        if node.mac.awaiting != "ct_ack":  # awaited only while its superframe is set
            return
        self._await(node, "ct_ack")
        self._emit(node, "ct_reserved", f'{{"leader": {txn.sender_ids[0]}}}')
        if not node.hop_direct:
            self._schedule(self.now + TURNAROUND_US, "sf_relay", node)
        for i, (start, _) in enumerate(node.xfer.sf.rdv_slots()):
            self._schedule(start, "ct_slot", node, i)

    def _on_sf_relay(self, node):
        xfer = node.xfer
        senders = [node, *(self.nodes[h] for h in xfer.sf.helpers)]
        pkt = Packet(seq=-1, size_bits=self.cfg.mac.superframe_bits,
                     source=node.id, kind="superframe")
        self._send(senders, [node.next_hop], pkt, "superframe", (node, xfer.sf), coop=True)

    def _on_ct_slot(self, node, i):
        xfer = node.xfer
        if not self._account(node):
            self._emit(node, "ct_slot_skipped", f'{{"index": {i}, "reason": "transmitter dead"}}')
            return
        packet = xfer.batch[i]
        helpers_alive = [self.nodes[h] for h in xfer.sf.helpers
                         if self.nodes[h].battery.alive]
        xfer.got_broadcast[i] = set()
        if helpers_alive:
            self._send([node], helpers_alive, packet, "ct_broadcast", (node, i))
        start, _ = xfer.sf.rdv_slots()[i]
        self._schedule(start + xfer.sf.slot_us // 2, "ct_coop", node, i)

    def _on_ct_broadcast_rx(self, receiver, txn, origin, i):
        origin.xfer.got_broadcast[i].add(receiver.id)

    def _on_ct_coop(self, node, i):
        xfer = node.xfer
        packet = xfer.batch[i]
        senders = [node] if self._account(node) else []
        for h in xfer.sf.helpers:
            if h in xfer.got_broadcast.get(i, ()) and self.nodes[h].battery.alive:
                senders.append(self.nodes[h])
        if not (senders and self._send(senders, [node.next_hop], packet, "ct_coop", (node,),
                                       coop=True)):
            busy = any(n.battery.alive for n in senders)  # alive, yet all still on the air
            self._fail(node, "sender_busy" if busy else "sender_dead", [packet.seq])
        if i == len(xfer.batch) - 1:
            self._schedule(xfer.sf.rdv_slots()[i][1], "ct_batch_done", node)

    # --- no-CT path -------------------------------------------------------

    def _noct_begin(self, node):
        self._emit(node, "mode_selected", '{"mode": "noct"}')
        self._on_noct_request(node)  # a batch is never empty

    def _noct_next(self, node):
        """Move to the batch's next packet with no attempts yet and return True;
        with none left, finish the batch and return False."""
        xfer = node.xfer
        xfer.noct_index += 1
        xfer.attempts = 0
        if xfer.noct_index < len(xfer.batch):
            return True
        self._finish_batch(node)
        return False

    def _on_noct_request(self, node):
        nxt = node.next_hop
        t_req = nxt.mac.schedule.next_wake(self.now)
        if t_req > self.now:
            # one handshake fits per wake window, so contenders spread over
            # the next few frames by a deterministic per-(sender, attempt)
            # draw instead of piling into the same window
            frame_pick = _mix(node.id, node.xfer.attempts) % _CONTENTION_FRAMES
            self._schedule(t_req + frame_pick * self.frame_us, "noct_request", node)
            return
        if not self._account(node):
            return
        interval_start = self.now + self.timeout_us + TURNAROUND_US
        interval_us = (self.data_us + self._tx_duration_us(self.cfg.mac.ctrl_bits)
                       + 3 * TURNAROUND_US)
        rdv = self._new_rdv()
        self._ensure_awake_for(node, self.now, self.now + self.timeout_us, rdv, "noct_wait")
        pkt = Packet(seq=-3, size_bits=self.cfg.mac.ctrl_bits, source=node.id, kind="noct_request")
        self._send([node], [nxt], pkt, "noct_request", (node, interval_start, interval_us, rdv))
        self._await(node, "noct_request")

    def _on_noct_request_rx(self, receiver, txn, origin, start, dur, rdv):
        accepted = macmod.reserve_noct(receiver.mac, start, dur)
        self._log_reservation(receiver, accepted, start, start + dur, rdv, "noct_rdv")
        self._reply(receiver, origin, "noct_reply", accepted, start, dur)

    def _on_noct_reply_rx(self, node, txn, accepted, start, dur):
        if node.mac.awaiting != "noct_reply":
            return
        self._await(node, "noct_reply")
        if accepted:
            self._add_reservation(node, start, start + dur, self._new_rdv(), "noct_tx")
            self._schedule(start, "noct_data", node)
        else:
            self._noct_retry(node, "reservation rejected")

    def _noct_retry(self, node, reason):
        xfer = node.xfer
        xfer.attempts += 1
        if xfer.attempts > self.cfg.mac.retry_cap:
            self._fail(node, "retry_cap", [xfer.batch[xfer.noct_index].seq],
                       f'"attempts": {xfer.attempts}, ')
            if self._noct_next(node):  # a heap event of its own: the goldens pin that order
                self._schedule(self.now, "noct_request", node)
            return
        # the re-request path re-draws its contention frame, so the local
        # backoff only needs to clear the current exchange
        backoff = self.slot_us
        self._emit(node, "retry", f'{{"attempt": {xfer.attempts}, "reason": "{reason}"}}')
        self._schedule(self.now + backoff, "noct_request", node)

    def _on_noct_data(self, node):
        if self._account(node):
            xfer = node.xfer
            self._send([node], [node.next_hop], xfer.batch[xfer.noct_index], "data", (node,))
            self._await(node, "noct_data")

    def _on_data_rx(self, receiver, txn, origin):
        self._accept_packet(receiver, txn, origin)
        self._reply(receiver, origin, "data_ack")  # a duplicate too, so the sender stops

    def _on_data_ack_rx(self, node, txn):
        if node.mac.awaiting == "data_ack":
            self._await(node, "data_ack")
            if self._noct_next(node):
                self._on_noct_request(node)

    def _accept_packet(self, receiver, txn, origin):
        """Take the packet if ``origin`` holds it; any other copy is a duplicate."""
        packet = txn.packet
        if self.fates.get(packet.seq) != origin.id:
            self._emit(receiver, "duplicate", f'{{"from": {origin.id}, "seq": {packet.seq}}}')
        elif receiver.id == self.fr:  # every data packet is addressed to fr
            self.fates[packet.seq] = "delivered"
            self._emit(receiver, "delivered",
                       f'{{"from": {origin.id}, "seq": {packet.seq}, "source": {packet.source}}}')
        else:
            self.fates[packet.seq] = receiver.id
            self._emit(receiver, "forwarding", f'{{"from": {origin.id}, "seq": {packet.seq}}}')
            receiver.mac.pending_packets.append(packet)
            self._kick_hop(receiver)

    def _fail(self, node, reason, seqs, head=""):
        """Lose those of ``seqs`` that ``node`` still holds, in one ``delivery_failure``
        row; ``head`` leads its detail (the retry cap's attempts)."""
        lost = [seq for seq in seqs if self.fates.get(seq) == node.id]
        if lost:
            self.fates.update((seq, reason) for seq in lost)
            self._emit(node, "delivery_failure", f'{{{head}"reason": "{reason}", "seqs": {lost}}}')

    # ------------------------------------------------------------------
    # timers

    def _await(self, node, event):
        """Report ``event`` to ``mac.step`` and time out the reply it awaits, if any."""
        token = macmod.step(node.mac, event, self.now)
        if node.mac.awaiting is not None:
            self._schedule(self.now + self.timeout_us, "timer", node, token)

    def _on_timer(self, node, token):
        if token != node.mac.timer_token or not self._account(node):
            return
        tag = node.mac.awaiting
        self._emit(node, "timeout", f'{{"tag": "{tag}"}}')
        self._await(node, "timeout")
        if tag != "ct_ack":
            self._noct_retry(node, f"{tag} timeout")
            return
        xfer = node.xfer
        xfer.retries += 1
        xfer.sf = None
        if xfer.retries <= self.cfg.mac.retry_cap:
            self._ct_query(node)
        else:
            self._noct_begin(node)

    # ------------------------------------------------------------------
    # housekeeping and run loop

    def _on_housekeeping(self, nodes):
        """Account every listed node, in id order, then schedule the next
        sweep over those still alive.

        Accounting schedules no event and drains no other node, so the rows
        are exactly those of one back-to-back event per node. Every schedule is
        awake equally long over a whole number of frames, so when the last sweep
        lies that far back, the nodes it accounted that nothing touched since and
        that hold no reservation all draw one ``(idle_j, sleep_j)``, costed once.
        Each run of them that it leaves charged is settled as one block before the
        next node goes through ``_account``, so rows stay in id order.
        """
        now, t0 = self.now, self._swept_us
        self._swept_us = now
        whole = (now - t0) % self.frame_us == 0
        idle, sleep, shared_run = None, None, []  # the shared draw, once costed; its nodes
        for node in nodes:
            shared = whole and node.last_accounted_us == t0 and not node.mac.reservations
            if shared and idle is None:
                idle, sleep = self._interval_cost(node, t0, now)
            if shared and idle + sleep < node.battery.residual:
                node.last_accounted_us = now
                shared_run.append(node)
            else:
                self._settle_shared(shared_run, idle, sleep)
                self._account(node)
        self._settle_shared(shared_run, idle, sleep)
        nxt = now + self.cfg.sim.housekeeping_frames * self.frame_us
        if nxt <= self.horizon_us and (alive := [n for n in nodes if n.battery.alive]):
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

    # tag of a received transmission -> handler(self, receiver, txn, *txn.args)
    _RX_HANDLERS = {
        "superframe": _on_superframe_rx,
        "ct_ack": _on_ct_ack_rx,
        "ct_broadcast": _on_ct_broadcast_rx,
        "ct_coop": _accept_packet,
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
        # a last sweep, which schedules no other, settles every node up to the horizon
        self.now = self.horizon_us
        nodes = [self.nodes[nid] for nid in sorted(self.nodes)]
        self._on_housekeeping(nodes)
        for node in nodes:
            self.metrics.residual_by_node[node.id] = node.battery.residual
            self.metrics.energy_by_category[node.id] = dict(node.battery.consumed_by_category)
        m, fates = self.metrics, list(self.fates.values())  # an id: in flight at the horizon
        m.packets_offered, m.packets_delivered = len(fates), fates.count("delivered")
        m.packets_failed = sum(isinstance(f, str) for f in fates) - m.packets_delivered
        self.metrics.events_processed = len(self.rows)
        return self.metrics


def run(cfg: ScenarioConfig, seed: int):
    """Execute one scenario; returns (Metrics, trace rows)."""
    sim = Simulator(cfg, seed)
    return sim.run(), sim.rows
