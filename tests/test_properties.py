"""Cross-cutting property-based tests on randomly generated instances.

These assert the *relationships* that must hold for any instance of the
caching problem: LP lower-bounds every integral solution, the exact ILP
sits between the LP bound and every heuristic, rounding respects the
candidate structure, and the evaluator agrees with the ILP objective on
feasible assignments.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Assignment,
    clairvoyant_cost,
    clairvoyant_cost_exact,
    evaluate_assignment,
)
from repro.core.candidates import build_candidate_sets, repair_capacity
from repro.core.fastlp import PerSlotLpSolver
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.utils.seeding import RngRegistry


def make_instance(seed, n_stations, n_requests, n_services=2):
    rngs = RngRegistry(seed=seed)
    network = MECNetwork.synthetic(n_stations, n_services, rngs)
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(n_services)),
            basic_demand_mb=float(rng.uniform(0.5, 2.0)),
        )
        for i in range(n_requests)
    ]
    demands = np.array([r.basic_demand_mb for r in requests])
    return network, requests, demands


instance_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=2, max_value=6),       # stations
    st.integers(min_value=1, max_value=5),       # requests
)


class TestOptimalityChain:
    @given(instance_params)
    @settings(max_examples=20, deadline=None)
    def test_lp_below_ilp_below_heuristics(self, params):
        seed, n_stations, n_requests = params
        network, requests, demands = make_instance(seed, n_stations, n_requests)
        d_t = network.delays.sample(0)
        lp = clairvoyant_cost(network, requests, demands, d_t)
        ilp = clairvoyant_cost_exact(network, requests, demands, d_t)
        assert lp <= ilp + 1e-6
        # Every feasible single-station colocation is an upper bound.
        for station in range(n_stations):
            plan = Assignment.from_stations([station] * n_requests, requests)
            loads = plan.loads_mhz(demands, network.c_unit_mhz, n_stations)
            if np.any(loads > network.capacities_mhz):
                continue
            cost = evaluate_assignment(plan, network, requests, demands, d_t)
            assert ilp <= cost + 1e-6

    @given(instance_params)
    @settings(max_examples=15, deadline=None)
    def test_evaluator_matches_ilp_objective(self, params):
        """The engine's cost of the ILP's own assignment equals its objective."""
        seed, n_stations, n_requests = params
        network, requests, demands = make_instance(seed, n_stations, n_requests)
        d_t = network.delays.sample(0)
        x, objective = PerSlotLpSolver(network, requests).exact_optimum(
            np.outer(demands, d_t), demands
        )
        stations = [int(np.argmax(x[l])) for l in range(n_requests)]
        plan = Assignment.from_stations(stations, requests)
        cost = evaluate_assignment(plan, network, requests, demands, d_t)
        # The optimum caches exactly what its assignment needs (Eq. 6 with
        # the smallest y), which is the cache the evaluator charges.
        assert cost == pytest.approx(objective, rel=1e-9, abs=1e-9)


class TestRoundingProperties:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.01, max_value=0.9),
    )
    @settings(max_examples=30, deadline=None)
    def test_candidates_cover_lp_mass(self, seed, n_stations, n_requests, gamma):
        """Each candidate set holds every station at/above the threshold."""
        rng = np.random.default_rng(seed)
        x = rng.dirichlet(np.ones(n_stations), size=n_requests)
        candidates = build_candidate_sets(x, gamma)
        for l in range(n_requests):
            above = set(np.nonzero(x[l] >= gamma)[0].tolist())
            if above:
                assert above == set(candidates[l].tolist())
            else:
                assert candidates[l].tolist() == [int(np.argmax(x[l]))]

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_repair_is_idempotent(self, seed, n_stations, n_requests):
        rng = np.random.default_rng(seed)
        x = rng.dirichlet(np.ones(n_stations), size=n_requests)
        demands = rng.uniform(0.5, 2.0, size=n_requests)
        capacities = rng.uniform(1.0, 5.0, size=n_stations)
        stations = rng.integers(0, n_stations, size=n_requests)
        once = repair_capacity(stations, x, demands, capacities, 1.0)
        twice = repair_capacity(once, x, demands, capacities, 1.0)
        np.testing.assert_array_equal(once, twice)


class TestDelayScaling:
    @given(instance_params, st.floats(min_value=1.1, max_value=5.0))
    @settings(max_examples=15, deadline=None)
    def test_cost_monotone_in_demand(self, params, scale):
        """Scaling every demand up never lowers the clairvoyant cost."""
        seed, n_stations, n_requests = params
        network, requests, demands = make_instance(seed, n_stations, n_requests)
        d_t = network.delays.sample(0)
        base = clairvoyant_cost(network, requests, demands, d_t)
        total_need = float((demands * scale).sum()) * network.c_unit_mhz
        if total_need > network.total_capacity_mhz():
            return  # scaled instance infeasible; nothing to compare
        scaled = clairvoyant_cost(network, requests, demands * scale, d_t)
        assert scaled >= base - 1e-9
