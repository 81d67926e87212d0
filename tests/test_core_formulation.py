"""Tests for the Eq. (3)-(7) program as PerSlotLpSolver builds it, and
for the clairvoyant optimum."""

import numpy as np
import pytest

from repro.core.fastlp import PerSlotLpSolver
from repro.core.optimal import clairvoyant_cost, clairvoyant_cost_exact
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.utils.seeding import RngRegistry


@pytest.fixture
def small():
    rngs = RngRegistry(seed=5)
    network = MECNetwork.synthetic(6, 2, rngs)
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(2)),
            basic_demand_mb=float(rng.uniform(1.0, 2.0)),
        )
        for i in range(4)
    ]
    demands = np.array([r.basic_demand_mb for r in requests])
    return network, requests, demands


class TestBuildCachingModel:
    def test_variable_count(self, small):
        network, requests, _ = small
        solver = PerSlotLpSolver(network, requests)
        n_services_needed = len({r.service_index for r in requests})
        expected = len(requests) * 6 + n_services_needed * 6
        assert solver.n_variables == expected

    def test_constraint_count(self, small):
        network, requests, _ = small
        solver = PerSlotLpSolver(network, requests)
        # Eq.4: |R|; Eq.5: |BS|; Eq.6: |R| * |BS|.
        assert solver._n_rows == 4 + 6 + 4 * 6

    def test_lp_solution_is_valid_distribution(self, small):
        network, requests, demands = small
        x, _ = PerSlotLpSolver(network, requests).solve(
            demands, network.delays.true_means
        )
        np.testing.assert_allclose(x.sum(axis=1), np.ones(len(requests)), atol=1e-6)
        assert np.all(x >= -1e-9)

    def test_lp_respects_capacity(self, small):
        network, requests, demands = small
        x, _ = PerSlotLpSolver(network, requests).solve(
            demands, network.delays.true_means
        )
        loads = (x * demands[:, np.newaxis]).sum(axis=0) * network.c_unit_mhz
        assert np.all(loads <= network.capacities_mhz + 1e-6)

    def test_y_covers_x(self, small):
        """Eq. 6: the objective pays for caching mass that dominates x.

        The y part of the optimum is at least the instantiation cost of
        the smallest cache Eq. 6 allows, ``y_ki = max_l x_li`` over the
        requests of service k.
        """
        network, requests, demands = small
        theta = network.delays.true_means
        x, objective = PerSlotLpSolver(network, requests).optimum(
            np.outer(demands, theta), demands
        )
        R = len(requests)
        x_cost = float((np.outer(demands, theta) / R * x).sum())
        least_cache_cost = 0.0
        for k in {r.service_index for r in requests}:
            of_k = [l for l, r in enumerate(requests) if r.service_index == k]
            for i in range(network.n_stations):
                d_ins = network.services.instantiation_delay(i, k)
                least_cache_cost += d_ins / R * x[of_k, i].max()
        assert objective >= x_cost + least_cache_cost - 1e-9

    def test_mass_concentrates_on_fast_stations(self, small):
        network, requests, demands = small
        theta = network.delays.true_means
        x, _ = PerSlotLpSolver(network, requests).solve(demands, theta)
        # The bulk of assignment mass should sit on below-median-delay stations.
        fast = theta <= np.median(theta)
        assert x[:, fast].sum() > 0.5 * x.sum()

    def test_shape_validation(self, small):
        network, requests, demands = small
        solver = PerSlotLpSolver(network, requests)
        with pytest.raises(ValueError, match="demand"):
            solver.solve(demands[:-1], network.delays.true_means)
        with pytest.raises(ValueError, match="theta"):
            solver.solve(demands, network.delays.true_means[:-1])
        with pytest.raises(ValueError, match="request"):
            PerSlotLpSolver(network, [])

    def test_negative_demand_rejected(self, small):
        network, requests, demands = small
        demands = demands.copy()
        demands[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            PerSlotLpSolver(network, requests).solve(
                demands, network.delays.true_means
            )


class TestClairvoyant:
    def test_lp_bound_below_exact(self, small):
        network, requests, demands = small
        d_t = network.delays.sample(0)
        lp = clairvoyant_cost(network, requests, demands, d_t)
        exact = clairvoyant_cost_exact(network, requests, demands, d_t)
        assert lp <= exact + 1e-9

    def test_exact_beats_any_heuristic(self, small):
        """The ILP optimum must be <= the cost of every single-station plan."""
        from repro.core.assignment import Assignment, evaluate_assignment

        network, requests, demands = small
        d_t = network.delays.sample(0)
        exact = clairvoyant_cost_exact(network, requests, demands, d_t)
        for station in range(network.n_stations):
            plan = Assignment.from_stations([station] * len(requests), requests)
            load = plan.loads_mhz(demands, network.c_unit_mhz, network.n_stations)
            if np.any(load > network.capacities_mhz):
                continue  # infeasible plan, not comparable
            cost = evaluate_assignment(plan, network, requests, demands, d_t)
            assert exact <= cost + 1e-6

    def test_costs_positive(self, small):
        network, requests, demands = small
        d_t = network.delays.sample(0)
        assert clairvoyant_cost(network, requests, demands, d_t) > 0
