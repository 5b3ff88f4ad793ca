"""The neighbour index against brute-force scans of the channel predicates."""

import math

from hypothesis import assume, given, settings, strategies as st

from oscmac.channel import (AirTransmission, NeighbourIndex, ct_prune_radius, ct_reach, distance,
                            in_reach, resolve_slot)
from oscmac.mac import two_hop_sets

R = 90.0


def brute_neighbours(positions, base_range):
    return {i: tuple(j for j in sorted(positions)
                     if j != i and in_reach(positions[i], positions[j], base_range))
            for i in positions}


def brute_within(positions, points, radius):
    return [i for i in sorted(positions)
            if any(distance(p, positions[i]) <= radius for p in points)]


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
    assert NeighbourIndex(positions, r).neighbours == brute_neighbours(positions, r)


@given(layouts(), st.data())
def test_radius_query_matches_scan(layout, data):
    positions, r = layout
    centres = data.draw(st.lists(st.sampled_from(sorted(positions.values())),
                                 min_size=1, max_size=4))
    radius = data.draw(st.one_of(st.floats(0, 6 * r), st.integers(0, 4).map(lambda k: k * r)))
    assert NeighbourIndex(positions, r).within(centres, radius) == brute_within(
        positions, centres, radius)


def test_pair_in_reach_across_two_cells():
    # -1e-15 and 90 fall in cells -1 and 1, yet the computed distance is
    # exactly the base range
    positions = {0: (-1e-15, 0.0), 1: (R, 0.0), 2: (0.0, -R), 3: (R, R)}
    assert NeighbourIndex(positions, R).neighbours == brute_neighbours(positions, R)
    assert NeighbourIndex(positions, R).neighbours[0] == (1, 2)


def test_two_hop_sets_match_pairwise_scan():
    positions = {i: (37.0 * (i % 7) - 100.0, 53.0 * (i // 7) - 60.0) for i in range(35)}
    adj = brute_neighbours(positions, R)
    expected = {i: (set(adj[i]).union(*(adj[j] for j in adj[i])) - {i}) for i in positions}
    assert two_hop_sets(NeighbourIndex(positions, R).neighbours) == expected


@given(k=st.integers(1, 8),
       rx=st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
       polar=st.lists(st.tuples(st.floats(0, 2 * math.pi), st.floats(1e-12, 0.05)),
                      min_size=8, max_size=8),
       d0=st.floats(0, 2000))
def test_ct_reach_false_beyond_prune_radius(k, rx, polar, d0):
    # the worst case for the bound: every sender just past the radius
    radius = ct_prune_radius(R, k)
    senders = [(rx[0] + radius * (1 + s) * math.cos(a), rx[1] + radius * (1 + s) * math.sin(a))
               for a, s in polar[:k]]
    assume(all(distance(p, rx) > radius for p in senders))
    assert not ct_reach(senders, rx, R, d0)


@settings(max_examples=300)  # a receiver only a cooperative group reaches is rare
@given(layouts(span=2), st.data())
def test_resolve_over_may_hear_matches_full_listening(layout, data):
    """Listening only where ``may_hear`` allows resolves a slot exactly as
    every listener hearing every transmission does."""
    positions, r = layout
    ids = sorted(positions)
    d0 = data.draw(st.floats(0, 4 * r))
    transmissions = []
    for _ in range(data.draw(st.integers(1, 4))):
        coop = data.draw(st.booleans())
        senders = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                     max_size=6 if coop else 1, unique=True))
        transmissions.append(AirTransmission(
            rdv_id=data.draw(st.integers(0, 2)),
            sender_positions=tuple(positions[i] for i in senders),
            sender_ids=tuple(senders), addressed_to=(), cooperative=coop))
    deaf = data.draw(st.sets(st.sampled_from(ids)))
    listeners = [i for i in ids if i not in deaf]
    index = NeighbourIndex(positions, r)
    pruned = {rid: [t for t in transmissions if rid in index.may_hear(t)] for rid in listeners}
    full = {rid: list(transmissions) for rid in listeners}
    assert resolve_slot(pruned, positions, r, d0) == resolve_slot(full, positions, r, d0)


@given(layouts(), st.data())
def test_cooperative_may_hear_matches_uncached_query(layout, data):
    """The per-group memo answers as a fresh ``within`` query does, the same
    group asked twice and other groups asked in between included."""
    positions, r = layout
    ids = sorted(positions)
    groups = data.draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=6,
                                         unique=True), min_size=1, max_size=4))
    order = data.draw(st.permutations(groups + groups))  # every group asked twice
    index = NeighbourIndex(positions, r)
    for rdv, group in enumerate(order):
        air = AirTransmission(rdv_id=rdv, sender_positions=tuple(positions[i] for i in group),
                              sender_ids=tuple(group), addressed_to=(), cooperative=True)
        fresh = NeighbourIndex(positions, r).within(air.sender_positions,
                                                    ct_prune_radius(r, len(group)))
        assert list(index.may_hear(air)) == [i for i in fresh if i not in group]
