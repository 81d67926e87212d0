"""Tests for Assignment and the realised-cost evaluation (extended Eq. 3)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.assignment import Assignment, evaluate_assignment, service_indices
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.utils.seeding import RngRegistry


@pytest.fixture
def setting():
    rngs = RngRegistry(seed=8)
    network = MECNetwork.synthetic(5, 2, rngs)
    requests = [
        Request(index=0, service_index=0, basic_demand_mb=2.0),
        Request(index=1, service_index=1, basic_demand_mb=1.0),
        Request(index=2, service_index=0, basic_demand_mb=1.5),
    ]
    return network, requests


class TestAssignment:
    def test_cache_derived_from_constraint_six(self, setting):
        _, requests = setting
        assignment = Assignment.from_stations([0, 0, 1], requests)
        assert assignment.cached == frozenset({(0, 0), (1, 0), (0, 1)})

    def test_stations_used(self, setting):
        _, requests = setting
        assignment = Assignment.from_stations([2, 0, 2], requests)
        np.testing.assert_array_equal(assignment.stations_used(), [0, 2])

    def test_loads(self, setting):
        _, requests = setting
        assignment = Assignment.from_stations([0, 0, 1], requests)
        loads = assignment.loads_mhz(np.array([2.0, 1.0, 1.5]), 10.0, 5)
        np.testing.assert_allclose(loads, [30.0, 15.0, 0.0, 0.0, 0.0])

    def test_cache_churn(self, setting):
        _, requests = setting
        first = Assignment.from_stations([0, 0, 1], requests)
        second = Assignment.from_stations([0, 1, 1], requests)
        # second caches {(0,0), (1,1), (0,1)}; new vs first: (1,1).
        assert second.cache_churn(first) == 1
        assert first.cache_churn(first) == 0

    def test_validation(self, setting):
        _, requests = setting
        with pytest.raises(ValueError, match="one station per request"):
            Assignment.from_stations([0, 1], requests)
        with pytest.raises(ValueError, match="non-negative"):
            Assignment.from_stations([0, -1, 2], requests)

    def test_loads_shape_checked(self, setting):
        _, requests = setting
        assignment = Assignment.from_stations([0, 0, 1], requests)
        with pytest.raises(ValueError):
            assignment.loads_mhz(np.array([1.0]), 10.0, 5)


class TestCacheSet:
    @pytest.fixture
    def pair_sets(self):
        rng = np.random.default_rng(3)
        requests = [
            Request(index=l, service_index=int(k), basic_demand_mb=1.0)
            for l, k in enumerate(rng.integers(0, 4, size=40))
        ]
        first, second = (
            Assignment.from_stations(rng.integers(0, 9, size=40), requests).cached
            for _ in range(2)
        )
        return first, second, frozenset(first), frozenset(second)

    def test_behaves_as_the_frozenset_of_its_pairs(self, pair_sets):
        first, second, plain_first, plain_second = pair_sets
        assert list(first) == sorted(plain_first)
        assert all(type(k) is int and type(i) is int for k, i in first)
        assert first == plain_first and plain_first == first
        assert hash(first) == hash(plain_first)
        assert first & second == plain_first & plain_second
        assert first - second == plain_first - plain_second
        assert second - first == plain_second - plain_first
        assert first | second == plain_first | plain_second
        assert first & plain_second == plain_first & plain_second
        assert plain_first - second == plain_first - plain_second

    def test_membership(self, pair_sets):
        first, _, plain_first, _ = pair_sets
        for service in range(5):
            for station in range(10):
                pair = (service, station)
                assert (pair in first) == (pair in plain_first)
        service, station = next(iter(first))
        assert (np.int64(service), np.int64(station)) in first
        for other in [(service, station, 0), (-1, station), (service, 2**32), "ab", 3]:
            assert other not in first

    def test_retained_bytes_per_assignment(self):
        # One given_fig3 repetition's decisions: 3 controllers x 30 slots
        # over 60 requests of 4 services and 50 stations.  Measured with
        # numpy 2.x on CPython 3.11: ~6 890 bytes each while the cache set
        # was a frozenset of pair tuples next to a pair array, ~1 300 with
        # the packed codes alone.
        rng = np.random.default_rng(29)
        requests = [
            Request(index=l, service_index=int(k), basic_demand_mb=1.0)
            for l, k in enumerate(rng.integers(0, 4, size=60))
        ]
        service_of = service_indices(requests)
        draws = rng.integers(0, 50, size=(90, 60))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [
                Assignment.from_stations(row.copy(), requests, service_of=service_of)
                for row in draws
            ]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(kept) < 3000


class TestEvaluateAssignment:
    def test_matches_hand_computation(self, setting):
        network, requests = setting
        demands = np.array([2.0, 1.0, 1.5])
        assignment = Assignment.from_stations([0, 1, 0], requests)
        d_t = network.delays.sample(0)

        processing = (
            demands[0] * d_t[0] + demands[1] * d_t[1] + demands[2] * d_t[0]
        )
        instantiation = (
            network.services.instantiation_delay(0, 0)
            + network.services.instantiation_delay(1, 1)
        )
        expected = (processing + instantiation) / 3.0

        got = evaluate_assignment(assignment, network, requests, demands, d_t)
        assert got == pytest.approx(expected)

    def test_overload_penalty_applied(self, setting):
        network, requests = setting
        # Huge demand concentrated on one station: load exceeds capacity.
        demands = np.array([500.0, 1.0, 1.0])
        assignment = Assignment.from_stations([0, 0, 0], requests)
        d_t = network.delays.sample(0)
        loaded_cost = evaluate_assignment(assignment, network, requests, demands, d_t)

        # The same assignment priced without the overload would be cheaper.
        load = demands.sum() * network.c_unit_mhz
        overload = load / network.stations[0].capacity_mhz
        assert overload > 1.0
        base_processing = (demands * d_t[0]).sum()
        instantiation = sum(
            network.services.instantiation_delay(i, k) for k, i in assignment.cached
        )
        unpenalised = (base_processing + instantiation) / 3.0
        assert loaded_cost > unpenalised
        expected = (base_processing * overload + instantiation) / 3.0
        assert loaded_cost == pytest.approx(expected)

    def test_no_penalty_when_feasible(self, setting):
        network, requests = setting
        demands = np.array([0.1, 0.1, 0.1])
        assignment = Assignment.from_stations([0, 1, 2], requests)
        d_t = network.delays.sample(0)
        cost = evaluate_assignment(assignment, network, requests, demands, d_t)
        expected = (
            (demands * d_t[[0, 1, 2]]).sum()
            + network.services.instantiation_delay(0, 0)
            + network.services.instantiation_delay(1, 1)
            + network.services.instantiation_delay(2, 0)
        ) / 3.0
        assert cost == pytest.approx(expected)

    def test_validation(self, setting):
        network, requests = setting
        demands = np.array([1.0, 1.0, 1.0])
        d_t = network.delays.sample(0)
        bad = Assignment.from_stations([0, 1], requests[:2])
        with pytest.raises(ValueError, match="covers"):
            evaluate_assignment(bad, network, requests, demands, d_t)
        out_of_range = Assignment.from_stations([0, 1, 99], requests)
        with pytest.raises(ValueError, match="outside"):
            evaluate_assignment(out_of_range, network, requests, demands, d_t)
        with pytest.raises(ValueError, match="unit delay"):
            evaluate_assignment(
                Assignment.from_stations([0, 1, 2], requests),
                network,
                requests,
                demands,
                d_t[:-1],
            )
