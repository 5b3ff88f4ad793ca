import math

import pytest
from hypothesis import assume, given, strategies as st

from oscmac.energy import RadioEnergyParams, tx_energy
from oscmac.selection import CtRequest, ElectedList, WiLemStation, elect_helpers

PARAMS = RadioEnergyParams()


def request(s=100, n=5, d=50.0, neighbors=()):
    return CtRequest(packet_size_bytes=s, packet_count=n,
                     next_hop_distance=d, neighbor_ids=tuple(neighbors))


def threshold(s, d, params=PARAMS):
    """The one-packet free-space screen the station once applied before electing."""
    bits = 8 * s
    return params.e_elec * bits + params.e_fs * bits * d * d


def test_elect_keeps_at_and_above_burst_cost():
    burst = 5 * 1e-4
    e = elect_helpers({1: burst * 2, 2: burst, 3: burst * 0.999}, 5, 1e-4)
    assert e.helpers == (1, 2)


def test_elect_accepts_equal_energies():
    assert elect_helpers({1: 0.5, 2: 0.5}, 5, 1e-4).helpers == (1, 2)


def test_elect_boundary_inclusive():
    # energy exactly N * per_packet is elected
    e = elect_helpers({7: 5e-4}, 5, 1e-4)
    assert e.helpers == (7,)
    assert e.leader == 7


def test_elect_below_boundary_excluded():
    e = elect_helpers({7: 4.999e-4}, 5, 1e-4)
    assert e.helpers == ()
    assert e.leader is None


def test_elect_preserves_order_and_picks_leader():
    e = elect_helpers({3: 0.9, 1: 0.6, 5: 0.4}, 2, 1e-4)
    assert e.helpers == (3, 1, 5)
    assert e.leader == 3


def test_elect_orders_unsorted_input():
    e = elect_helpers({5: 0.4, 1: 0.6, 3: 0.9}, 2, 1e-4)
    assert e.helpers == (3, 1, 5)
    assert e.leader == 3


def test_leader_tie_breaks_to_lowest_id():
    e = elect_helpers({9: 0.5, 2: 0.5, 4: 0.5, 1: 0.1}, 1, 1e-4)
    assert e.helpers == (2, 4, 9, 1)
    assert e.leader == 2


def test_elect_rejects_bad_burst():
    with pytest.raises(ValueError):
        elect_helpers({1: 0.5}, 0, 1e-4)
    with pytest.raises(ValueError):
        elect_helpers({1: 0.5}, 1, 0.0)


def test_elected_list_invariants():
    with pytest.raises(ValueError):
        ElectedList(helpers=(1, 1))
    assert ElectedList(helpers=(3, 1)).leader == 3
    assert ElectedList().leader is None


def test_request_validation():
    with pytest.raises(ValueError):
        request(s=0)
    with pytest.raises(ValueError):
        request(n=0)
    with pytest.raises(ValueError):
        request(d=-1.0)


def test_station_skips_unknown_neighbors():
    st_ = WiLemStation(registry={0: 2.0, 1: 2.0})
    elected, skipped = st_.handle_ct_request(
        request(neighbors=(1, 42)), PARAMS)
    assert skipped == [42]
    assert elected.helpers == (1,)


def test_station_per_packet_cost_uses_hop_distance():
    st_ = WiLemStation(registry={0: 2.0, 1: 2.0})
    n = 4
    per_packet = tx_energy(800, 50.0, PARAMS)
    # just below affordability for the burst -> not elected
    st_.registry[1] = n * per_packet * 0.999
    elected, _ = st_.handle_ct_request(request(n=n, neighbors=(1,)), PARAMS)
    assert elected.helpers == ()
    st_.registry[1] = n * per_packet
    elected, _ = st_.handle_ct_request(request(n=n, neighbors=(1,)), PARAMS)
    assert elected.helpers == (1,)


def test_station_elects_single_packet_boundary_below_d0():
    """A residual of exactly one packet's cost is elected for N = 1.

    At S = 100 and D = 12.25 m the one-packet free-space screen rounds to
    4.12005e-05 J, one ulp above tx_energy's 4.120049999999999e-05 J, so a
    screen ahead of the election would reject this boundary residual."""
    cost = tx_energy(800, 12.25, PARAMS)
    assert cost < threshold(100, 12.25)
    st_ = WiLemStation(registry={1: cost})
    elected, skipped = st_.handle_ct_request(request(s=100, n=1, d=12.25, neighbors=(1,)),
                                             PARAMS)
    assert (elected.helpers, elected.leader, skipped) == ((1,), 1, [])


@given(energies=st.lists(st.floats(0, 1e-2), min_size=0, max_size=12),
       n=st.integers(1, 8),
       d=st.floats(0, 150),
       s=st.integers(1, 500))
def test_pipeline_matches_bruteforce(energies, n, d, s):
    """Request -> registry -> election equals the direct set comprehension, and no
    elected node falls below the one-packet screen by more than rounding."""
    st_ = WiLemStation(registry=dict(enumerate(energies)))
    elected, skipped = st_.handle_ct_request(
        request(s=s, n=n, d=d, neighbors=range(len(energies) + 1)), PARAMS)

    per_packet = tx_energy(8 * s, d, PARAMS)
    ranked = sorted((-e, i) for i, e in enumerate(energies))
    expect = [i for neg, i in ranked if -neg / (n * per_packet) >= 1.0]
    assert skipped == [len(energies)]
    assert elected.helpers == tuple(expect)
    assert elected.leader == (expect[0] if expect else None)
    thr = threshold(s, d)
    assert all(energies[i] >= thr * (1 - 1e-15) for i in expect)


@given(ks=st.lists(st.integers(-3, 3), min_size=1, max_size=8),
       n=st.integers(1, 8),
       d=st.floats(0, 150),
       s=st.integers(1, 500))
def test_election_at_the_boundary_ulp_by_ulp(ks, n, d, s):
    """Residuals within 3 ulps of N * per_packet: elected iff at or above it."""
    per_packet = tx_energy(8 * s, d, PARAMS)
    burst = n * per_packet
    energies = {i: burst + k * math.ulp(burst) for i, k in enumerate(ks)}
    elected = elect_helpers(energies, n, per_packet)
    expect = tuple(i for _, i in sorted((-e, i) for i, e in energies.items()
                                        if e / (n * per_packet) >= 1.0))
    assert elected.helpers == expect
    assert set(expect) == {i for i, k in enumerate(ks) if k >= 0}


@given(energies=st.lists(st.floats(1e-6, 1e-2), min_size=1, max_size=10),
       scale=st.floats(0.1, 100.0),
       n=st.integers(1, 8))
def test_election_scale_invariance(energies, scale, n):
    """Scaling all energies and costs together must not change the outcome."""
    # keep clear of the affordability boundary; an ulp of rounding there
    # would legitimately flip the decision
    assume(all(abs(e / (n * 1e-4) - 1.0) > 1e-9 for e in energies))
    base = dict(enumerate(energies))
    scaled = {i: e * scale for i, e in base.items()}
    assert elect_helpers(base, n, 1e-4).helpers == elect_helpers(scaled, n, 1e-4 * scale).helpers
