"""An audit of a run's trace rows against the protocol's physical rules.

Each check is a pure function over the rows that ``oscmac.run`` returns,
``(time_us, seq, node, event, detail, residual_j)`` tuples in row order with
``detail`` as JSON text. It returns the rows that break its rule, in row
order; an empty list is a clean trace. The checks read nothing but the rows,
so they see the run as a reader of its trace would, not through the engine's
own state.

Radio rows name their rendezvous (``rdv``). A transmission's interval is
``[time_us, end_us)`` of its ``tx`` rows, one per sender; two intervals
overlap when each starts before the other ends.

``python tests/trace_audit.py`` prints each check's violation count on the
three benchmark workloads at benchmark seed 0.
"""

import bisect
import json
import math
from collections import defaultdict
from itertools import accumulate, pairwise

RECEIVE = ("rx", "rx_corrupt", "overhear")  # rows of a node hearing a transmission
RADIO = ("tx",) + RECEIVE
# rows that draw from a battery: energy_account draws idle_j + sleep_j, the others j
DRAWS = ("energy_account", "ct_request", "station_notify") + RADIO


def _parsed(rows, events):
    """(row, detail dict) for each row whose event is one of ``events``."""
    for row in rows:
        if row[3] in events:
            yield row, json.loads(row[4])


def clock(rows):
    """Rows whose time is earlier than the time of the row before them."""
    return [row for prev, row in pairwise(rows) if row[0] < prev[0]]


def joules(rows):
    """Rows whose residual is not their node's previous residual less the
    row's draw (``j``, or ``idle_j`` + ``sleep_j``; other rows draw nothing).

    Each node's first row sets its baseline; acceptance check c08 ties the
    totals to the initial charges. The subtractions are done in the battery's
    order, so the residual must match exactly, except on a row that empties
    the battery: a dying node's last draw also takes its rounding residue, so
    that row may miss zero by a few ulps.
    """
    residual, out = {}, []
    for row in rows:
        nid, event, left = row[2], row[3], row[5]
        if nid in residual:
            expected = residual[nid]
            if event in DRAWS:
                d = json.loads(row[4])
                if event == "energy_account":
                    expected = expected - d["idle_j"] - d["sleep_j"]
                else:
                    expected -= d["j"]
            if abs(expected - left) > (4 * math.ulp(residual[nid]) if left == 0 else 0):
                out.append(row)
        residual[nid] = left
    return out


def fates_duplicates(rows):
    """Each seq's second and later ``delivered`` rows."""
    delivered, out = set(), []
    for row, d in _parsed(rows, ("delivered",)):
        if d["seq"] in delivered:
            out.append(row)
        delivered.add(d["seq"])
    return out


def fates(rows):
    """Each packet's fate as the rows tell it: a dict of the seqs ``offered``,
    ``delivered`` and ``failed`` (named by a ``delivery_failure`` row), the
    seqs ``queued`` at the horizon, and ``last``, each seq's last ``offered``,
    ``forwarding`` or ``tx`` row.

    Queued at the horizon means waiting in the queue of a node with no
    ``node_died`` row. Queues are rebuilt from the rows as the engine keeps
    them: ``offered`` and ``forwarding`` append to the node's queue, and
    ``batch_done`` removes its first ``count`` seqs.
    """
    offered, delivered, failed, last = set(), set(), set(), {}
    queues, dead = defaultdict(list), set()
    for row, d in _parsed(rows, ("offered", "forwarding", "tx", "delivered",
                                 "delivery_failure", "batch_done", "node_died")):
        event, queue = row[3], queues[row[2]]
        if event == "delivered":
            delivered.add(d["seq"])
        elif event == "delivery_failure":
            failed.update(d["seqs"])
        elif event == "batch_done":
            del queue[:d["count"]]
        elif event == "node_died":
            dead.add(row[2])
        elif event == "offered":
            offered.update(d["seqs"])
            queue.extend(d["seqs"])
            last.update((seq, row) for seq in d["seqs"])
        elif event == "forwarding":
            queue.append(d["seq"])
            last[d["seq"]] = row
        elif d["packet"] >= 0:  # a tx row of a data packet
            last[d["packet"]] = row
    queued = {seq for nid, queue in queues.items() if nid not in dead for seq in queue}
    return {"offered": offered, "delivered": delivered, "failed": failed, "queued": queued,
            "last": last}


def fates_unaccounted(rows):
    """For each seq that is neither delivered, nor failed by a
    ``delivery_failure`` row, nor queued at a live node at the horizon (see
    ``fates``), the last ``offered``, ``forwarding`` or ``tx`` row naming it
    (once per such seq)."""
    f = fates(rows)
    lost = set(f["last"]) - f["delivered"] - f["failed"] - f["queued"]
    return sorted((f["last"][seq] for seq in lost), key=lambda row: row[1])


def dead_senders(rows):
    """``duplicate`` rows whose ``from`` node has an earlier ``node_died`` row:
    a copy the receiver decoded yet refused, because the sender's death had
    already failed its seq."""
    dead, out = set(), []
    for row in rows:
        if row[3] == "node_died":
            dead.add(row[2])
        elif row[3] == "duplicate" and json.loads(row[4])["from"] in dead:
            out.append(row)
    return out


def collisions(rows):
    """``collision`` rows whose rendezvous include no pair that overlaps in time."""
    spans = {d["rdv"]: (row[0], d["end_us"]) for row, d in _parsed(rows, ("tx",))}
    out = []
    for row, d in _parsed(rows, ("collision",)):
        # sorted by start, some pair overlaps iff some neighbouring pair does
        heard = sorted(spans[rdv] for rdv in d["rdvs"])
        if not any(b[0] < a[1] for a, b in pairwise(heard)):
            out.append(row)
    return out


def late_rx(rows):
    """Receive-side rows that name a rendezvous and are not stamped at its
    ``tx`` rows' ``end_us``: a reception is resolved when its transmission
    ends, neither before nor after."""
    ends, out = {}, []
    for row, d in _parsed(rows, RADIO):
        if row[3] == "tx":
            ends[d["rdv"]] = d["end_us"]
        elif d["rdv"] is not None and row[0] != ends.get(d["rdv"]):
            out.append(row)
    return out


def half_duplex_tx(rows):
    """``tx`` rows that start while the same node is still on the air."""
    on_air_until, out = {}, []
    for row, d in _parsed(rows, ("tx",)):
        nid = row[2]
        if row[0] < on_air_until.get(nid, row[0]):
            out.append(row)
        on_air_until[nid] = max(on_air_until.get(nid, 0), d["end_us"])
    return out


def half_duplex_rx(rows):
    """Receive-side rows of a transmission that overlaps one of the
    receiver's own transmissions."""
    spans, own = {}, defaultdict(list)  # rdv -> (start, end); node -> its (start, end)s
    for row, d in _parsed(rows, ("tx",)):
        spans[d["rdv"]] = (row[0], d["end_us"])
        own[row[2]].append(spans[d["rdv"]])
    starts, latest_end = {}, {}  # node -> sorted starts, and the latest end up to each
    for nid, spans_of in own.items():
        spans_of.sort()
        starts[nid] = [s for s, _ in spans_of]
        latest_end[nid] = list(accumulate((e for _, e in spans_of), max))
    out = []
    for row, d in _parsed(rows, RECEIVE):
        if d["rdv"] is None:
            continue  # the station's out-of-band reply
        start, end = spans[d["rdv"]]
        n = bisect.bisect_left(starts.get(row[2], ()), end)  # own spans starting before end
        if n and latest_end[row[2]][n - 1] > start:
            out.append(row)
    return out


def dead_nodes(rows):
    """Radio rows of a node after its ``node_died`` row."""
    dead, out = set(), []
    for row in rows:
        if row[3] == "node_died":
            dead.add(row[2])
        elif row[3] in RADIO and row[2] in dead:
            out.append(row)
    return out


def reservations(rows):
    """Accepted ``reserve`` rows that overlap an earlier accepted booking of
    the same node."""
    booked, out = defaultdict(list), []
    for row, d in _parsed(rows, ("reserve",)):
        if d["accepted"]:
            start, end = d["start_us"], d["end_us"]
            if any(s < end and start < e for s, e in booked[row[2]]):
                out.append(row)
            booked[row[2]].append((start, end))
    return out


def decisions(rows):
    """``mode_selected`` rows that repeat a decision: since the node's previous
    ``mode_selected`` row there was no election (``candidate_reply``), no new
    batch (``batch_done``) and no ``ct_ack`` timeout, after which the node
    retries the election or falls back to no-CT."""
    decided, out = set(), []  # nodes whose last decision is logged
    for row in rows:
        nid, event = row[2], row[3]
        if event == "mode_selected":
            if nid in decided:
                out.append(row)
            decided.add(nid)
        elif (event in ("candidate_reply", "batch_done")
              or (event == "timeout" and json.loads(row[4])["tag"] == "ct_ack")):
            decided.discard(nid)
    return out


# name -> check; fates and half-duplex are two checks each
CHECKS = {
    "clock": clock,
    "joules": joules,
    "fates_duplicates": fates_duplicates,
    "fates_unaccounted": fates_unaccounted,
    "dead_senders": dead_senders,
    "collisions": collisions,
    "late_rx": late_rx,
    "half_duplex_tx": half_duplex_tx,
    "half_duplex_rx": half_duplex_rx,
    "dead_nodes": dead_nodes,
    "reservations": reservations,
    "decisions": decisions,
}


if __name__ == "__main__":
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from oscmac import parse_config, run
    from sample import RUN_SEED, WORKLOADS, scenario_json

    for workload in WORKLOADS:
        _, trace = run(parse_config(scenario_json(workload, 0)), RUN_SEED)
        print(workload, " ".join(f"{name}={len(check(trace))}" for name, check in CHECKS.items()),
              flush=True)
