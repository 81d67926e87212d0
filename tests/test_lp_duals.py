"""Tests for the per-slot LP's capacity-row duals (station congestion prices)."""

import numpy as np
import pytest

from repro.core.fastlp import PerSlotLpSolver
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.utils.seeding import RngRegistry


def _loads(network, x, demands):
    return (x * demands[:, None]).sum(axis=0) * network.c_unit_mhz


class TestSolveLpWithDuals:
    def _world(self, seed, n_stations=5, n_requests=8):
        rngs = RngRegistry(seed=seed)
        network = MECNetwork.synthetic(n_stations, 2, rngs)
        rng = rngs.get("requests")
        requests = [
            Request(index=i, service_index=int(rng.integers(2)), basic_demand_mb=2.0)
            for i in range(n_requests)
        ]
        return network, requests, np.full(n_requests, 2.0)

    def test_binding_constraint_has_positive_price(self):
        """Scarce compute at the fastest station: its capacity binds and
        relaxing it is worth something."""
        network, requests, demands = self._world(61)
        theta = network.delays.true_means
        fastest = int(np.argmin(theta))
        network.stations[fastest].capacity_mhz = 1.5 * 2.0 * network.c_unit_mhz
        solver = PerSlotLpSolver(network, requests)
        x, _ = solver.solve(demands, theta)
        prices = solver.capacity_prices(demands, theta)
        assert _loads(network, x, demands)[fastest] == pytest.approx(
            network.capacities_mhz[fastest]
        )
        assert prices[fastest] > 1e-9

    def test_slack_constraint_zero_price(self):
        """Ample compute everywhere: no capacity row binds, no price."""
        network, requests, demands = self._world(62)
        network.c_unit_mhz = float(network.capacities_mhz.min() / 100.0)
        theta = network.delays.true_means
        solver = PerSlotLpSolver(network, requests)
        x, _ = solver.solve(demands, theta)
        assert np.all(_loads(network, x, demands) < network.capacities_mhz)
        np.testing.assert_array_equal(solver.capacity_prices(demands, theta), 0.0)


class TestCapacityShadowPrices:
    def _congested_world(self):
        rngs = RngRegistry(seed=61)
        network = MECNetwork.synthetic(5, 2, rngs)
        rng = rngs.get("requests")
        requests = [
            Request(
                index=i,
                service_index=int(rng.integers(2)),
                basic_demand_mb=2.0,
            )
            for i in range(8)
        ]
        demands = np.full(8, 2.0)
        # Make compute scarce so capacity rows bind at the fast stations.
        network.c_unit_mhz = float(network.capacities_mhz.min() / 2.5)
        return network, requests, demands

    def test_prices_shape_and_nonnegative(self):
        network, requests, demands = self._congested_world()
        prices = PerSlotLpSolver(network, requests).capacity_prices(
            demands, network.delays.true_means
        )
        assert prices.shape == (network.n_stations,)
        assert np.all(prices >= -1e-9)

    def test_congested_fast_station_is_priced(self):
        network, requests, demands = self._congested_world()
        theta = network.delays.true_means
        solver = PerSlotLpSolver(network, requests)
        x, _ = solver.solve(demands, theta)
        prices = solver.capacity_prices(demands, theta)
        utilisation = _loads(network, x, demands) / network.capacities_mhz
        # Complementary slackness: priced stations are saturated.
        for i in range(network.n_stations):
            if prices[i] > 1e-6:
                assert utilisation[i] == pytest.approx(1.0, abs=1e-6)
        # And with compute this scarce, at least one station is priced.
        assert prices.max() > 1e-6

    def test_requires_optimal_duals(self):
        network, requests, demands = self._congested_world()
        solver = PerSlotLpSolver(network, requests)
        with pytest.raises(RuntimeError, match="LP failed"):
            solver.capacity_prices(demands * 1e6, network.delays.true_means)
