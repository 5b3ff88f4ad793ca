"""The neighbour index against brute-force scans of the channel predicates."""

import math

from hypothesis import assume, given, settings, strategies as st

from oscmac import channel
from oscmac.channel import (AirTransmission, NeighbourIndex, ct_prune_radius, ct_reach, distance,
                            in_reach)
from oscmac.config import MAX_COORD_RANGES
from oscmac.energy import RadioEnergyParams
from oscmac.engine import Simulator
from oscmac.mac import two_hop_sets

from conftest import examples, make_config
from test_channel import lost_at

D0 = RadioEnergyParams().d0
R = 90.0


def brute_neighbours(positions, base_range):
    return {i: tuple(j for j in sorted(positions)
                     if j != i and in_reach(positions[i], positions[j], base_range))
            for i in positions}


@st.composite
def layouts(draw, span=4):
    """Node layouts with negative coordinates, coincident nodes and pairs
    exactly one base range apart, on shuffled ids, within ``span`` base
    ranges of the origin."""
    r = draw(st.sampled_from([0.7, R, 123.4]))
    coord = st.one_of(
        st.floats(-span * r, span * r),
        st.integers(-span, span).map(lambda k: k * r),
        st.sampled_from([0.0, -0.0, -1e-15, 1e-15, -5e-324]))
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    points += draw(st.lists(st.sampled_from(points), max_size=5))
    ids = draw(st.permutations(range(len(points))))
    return {3 * ids[n] + 1: p for n, p in enumerate(points)}, r


@given(layouts())
def test_neighbour_table_matches_pairwise_scan(layout):
    positions, r = layout
    assert NeighbourIndex(positions, r, D0).neighbours == brute_neighbours(positions, r)


@given(layouts(), st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
def test_neighbour_table_matches_pairwise_scan_at_the_coordinate_bound(layout, sx, sy):
    """The same layouts moved next to a corner of the bound, where each cell
    index is near 10^6 and rounds the most."""
    positions, r = layout
    cx, cy = sx * (MAX_COORD_RANGES - 4) * r, sy * (MAX_COORD_RANGES - 4) * r
    moved = {nid: (cx + x, cy + y) for nid, (x, y) in positions.items()}
    assert NeighbourIndex(moved, r, D0).neighbours == brute_neighbours(moved, r)


def test_field_at_the_coordinate_bound_spans_four_cells():
    """A field set up with nodes on the bound: a base-range disk round any
    node spans at most 4 cells per axis. The span grew with the coordinate,
    to thousands of cells at 3e14 m, and set-up with it."""
    bound = MAX_COORD_RANGES * R
    corners = [(bound, bound), (bound - R, bound), (-bound, -bound), (0.0, 0.0)]
    sim = Simulator(make_config({
        "topology": {"fr": 3, "nodes": [{"id": n, "x": x, "y": y}
                                         for n, (x, y) in enumerate(corners)]}}), 0)
    index = sim.index
    assert index.neighbours == {0: (1,), 1: (0,), 2: (), 3: ()}
    assert all(len(index._span(v, R)) <= 4 for pos in index.positions.values() for v in pos)


def test_pair_in_reach_across_two_cells():
    # -1e-15 and 90 fall in cells -1 and 1, yet the computed distance is
    # exactly the base range
    positions = {0: (-1e-15, 0.0), 1: (R, 0.0), 2: (0.0, -R), 3: (R, R)}
    assert NeighbourIndex(positions, R, D0).neighbours == brute_neighbours(positions, R)
    assert NeighbourIndex(positions, R, D0).neighbours[0] == (1, 2)


def test_two_hop_sets_match_pairwise_scan():
    positions = {i: (37.0 * (i % 7) - 100.0, 53.0 * (i // 7) - 60.0) for i in range(35)}
    adj = brute_neighbours(positions, R)
    expected = {i: (set(adj[i]).union(*(adj[j] for j in adj[i])) - {i}) for i in positions}
    assert two_hop_sets(NeighbourIndex(positions, R, D0).neighbours) == expected


def _ring(rx, radius, polar):
    """Senders around ``rx``, each at ``radius`` times (1 + its s) in its direction a."""
    return [(rx[0] + radius * (1 + s) * math.cos(a), rx[1] + radius * (1 + s) * math.sin(a))
            for a, s in polar]


_D0 = st.one_of(st.floats(0, R), st.floats(R, 8 * R))  # below and above the base range


@given(k=st.integers(1, 16),
       rx=st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
       polar=st.lists(st.tuples(st.floats(0, 2 * math.pi), st.floats(1e-12, 0.05)),
                      min_size=16, max_size=16),
       d0=_D0)
def test_ct_reach_false_beyond_prune_radius(k, rx, polar, d0):
    # the worst case for the bound: every sender just past the radius
    radius = ct_prune_radius(R, k, d0)
    senders = _ring(rx, radius, polar[:k])
    assume(all(distance(p, rx) > radius for p in senders))
    assert not ct_reach(senders, rx, R, d0)


@given(k=st.integers(1, 16),
       rx=st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
       angles=st.lists(st.floats(0, 2 * math.pi), min_size=16, max_size=16),
       d0=_D0)
def test_prune_radius_is_tight(k, rx, angles, d0):
    """k senders just inside the radius reach, so no smaller radius is exact."""
    senders = _ring(rx, ct_prune_radius(R, k, d0), [(a, -1e-6) for a in angles[:k]])
    assert ct_reach(senders, rx, R, d0)


@given(layouts(span=3), st.data())
def test_audience_asks_ct_reach_only_beyond_the_base_range(layout, data):
    """A node within the base range of a sender is admitted from the
    neighbour table: ``audience`` never asks ``ct_reach`` about it."""
    positions, r = layout
    group = data.draw(st.lists(st.sampled_from(sorted(positions)), min_size=1, max_size=12,
                               unique=True))
    index = NeighbourIndex(positions, r, data.draw(st.floats(0, 4 * r)))
    nearest = []

    def recorded(senders, receiver, base_range, d0):
        nearest.append(min(distance(s, receiver) for s in senders))
        return ct_reach(senders, receiver, base_range, d0)

    channel.ct_reach = recorded
    try:
        index.audience(AirTransmission(rdv_id=0, sender_ids=tuple(group), addressed_to=(),
                                       cooperative=True))
    finally:
        channel.ct_reach = ct_reach
    assert all(d > r for d in nearest)


@settings(max_examples=examples(300))  # a receiver only a cooperative group reaches is rare
@given(layouts(span=3), st.data())
def test_audience_matches_scan_of_all_nodes(layout, data):
    """``audience`` names the ids, other than the senders, that ``in_reach``
    (a lone sender) or ``ct_reach`` (a group) keeps among all nodes; each
    transmission asked twice, others asked in between."""
    positions, r = layout
    ids = sorted(positions)
    d0 = data.draw(st.floats(0, 4 * r))
    transmissions = []
    for rdv in range(data.draw(st.integers(1, 4))):
        coop = data.draw(st.booleans())
        senders = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                     max_size=12 if coop else 1, unique=True))
        transmissions.append(AirTransmission(rdv_id=rdv, sender_ids=tuple(senders),
                                             addressed_to=(), cooperative=coop))
    index = NeighbourIndex(positions, r, d0)
    for air in data.draw(st.permutations(transmissions + transmissions)):
        group = [positions[i] for i in air.sender_ids]
        if air.cooperative:
            scan = [i for i in ids if ct_reach(group, positions[i], r, d0)]
        else:
            scan = [i for i in ids if in_reach(group[0], positions[i], r)]
        assert list(index.audience(air)) == [i for i in scan if i not in air.sender_ids]


@settings(max_examples=examples(300))  # a receiver only a cooperative group reaches is rare
@given(layouts(span=2), st.data())
def test_resolve_over_may_hear_matches_full_listening(layout, data):
    """Listening only where ``audience`` allows loses, at each listener, the
    same transmissions as filtering every transmission by a brute-force reach
    test does, ``collide`` fed each listener's transmissions in start order."""
    positions, r = layout
    ids = sorted(positions)
    d0 = data.draw(st.floats(0, 4 * r))
    transmissions = []
    for _ in range(data.draw(st.integers(1, 4))):
        coop = data.draw(st.booleans())
        senders = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                     max_size=6 if coop else 1, unique=True))
        start = data.draw(st.integers(0, 3))
        transmissions.append(AirTransmission(
            rdv_id=data.draw(st.integers(0, 2)),
            sender_ids=tuple(senders), addressed_to=(), cooperative=coop,
            start_us=start, end_us=start + data.draw(st.integers(1, 3))))
    deaf = data.draw(st.sets(st.sampled_from(ids)))
    listeners = [i for i in ids if i not in deaf]

    def reaches(t, rid):
        group = [positions[i] for i in t.sender_ids]
        if rid in t.sender_ids:
            return False
        if t.cooperative:
            return ct_reach(group, positions[rid], r, d0)
        return in_reach(group[0], positions[rid], r)

    index = NeighbourIndex(positions, r, d0)
    pruned = {rid: [t for t in transmissions if rid in index.audience(t)] for rid in listeners}
    full = {rid: [t for t in transmissions if reaches(t, rid)] for rid in listeners}
    assert {rid: (heard, lost_at(heard)) for rid, heard in pruned.items()} == {
        rid: (heard, lost_at(heard)) for rid, heard in full.items()}


@given(layouts(span=3), st.data())
def test_cooperative_may_hear_matches_uncached_query(layout, data):
    """The per-group memo behind ``audience`` answers as a fresh index does,
    the same group asked twice and other groups asked in between included."""
    positions, r = layout
    ids = sorted(positions)
    d0 = data.draw(st.floats(0, 4 * r))
    groups = data.draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=12,
                                         unique=True), min_size=1, max_size=4))
    order = data.draw(st.permutations(groups + groups))  # every group asked twice
    index = NeighbourIndex(positions, r, d0)
    for rdv, group in enumerate(order):
        air = AirTransmission(rdv_id=rdv, sender_ids=tuple(group), addressed_to=(),
                              cooperative=True)
        fresh = NeighbourIndex(positions, r, d0).audience(air)
        assert list(index.audience(air)) == list(fresh)
