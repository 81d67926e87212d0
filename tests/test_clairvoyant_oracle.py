"""The run loop's hot-started clairvoyant oracle against the cold solve.

``run_simulation(..., compute_optimal=True)`` computes each slot's optimum
through one :class:`~repro.core.optimal.ClairvoyantOracle`, which starts
primal simplex from the previous slot's basis.  Its optima must match the
cold :func:`~repro.core.optimal.clairvoyant_cost` of the same slot to
1e-12 relative, also while stations are out, and a slot without a
feasible assignment must raise rather than repeat an earlier optimum.
"""

import numpy as np
import pytest

from repro.core import GreedyController, OlGdController
from repro.core.fastlp import PerSlotLpSolver
from repro.core.optimal import ClairvoyantOracle, clairvoyant_cost
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.sim import FailureSchedule, run_simulation
from repro.utils.seeding import RngRegistry
from repro.workload import ConstantDemandModel

HORIZON = 8


def build_world(seed=11, n_stations=16, n_requests=24):
    """Capacity binds: a small cell hosts about two average requests."""
    rngs = RngRegistry(seed=seed)
    network = MECNetwork.synthetic(n_stations, 2, rngs)
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(2)),
            basic_demand_mb=float(rng.uniform(1.0, 2.0)),
            hotspot_index=i % 2,
        )
        for i in range(n_requests)
    ]
    mean_demand = float(np.mean([r.basic_demand_mb for r in requests]))
    network.c_unit_mhz = float(network.capacities_mhz.min() / (2.0 * mean_demand))
    return rngs, network, requests


def loaded_stations(network, requests):
    """Stations by the load slot 0's optimum puts on them, heaviest first."""
    demands = ConstantDemandModel(requests).demand_at(0)
    x, _ = PerSlotLpSolver(network, requests).optimum(
        np.outer(demands, network.delays.sample(0)), demands
    )
    return np.argsort(-(x * demands[:, None]).sum(axis=0))


@pytest.fixture
def world():
    rngs, network, requests = build_world()
    heaviest = loaded_stations(network, requests)
    return rngs, network, requests, heaviest


@pytest.fixture
def record_cold(world, monkeypatch):
    """Record, next to each oracle call, the cold optimum of the same slot
    (on the live capacities) and whether the oracle held a basis."""
    _, network, requests, _ = world
    calls = []
    cost = ClairvoyantOracle.cost

    def recorded(self, demands, delays):
        cold = clairvoyant_cost(network, requests, demands, delays)
        held = self._basis is not None
        calls.append((cost(self, demands, delays), cold, held))
        return calls[-1][0]

    monkeypatch.setattr(ClairvoyantOracle, "cost", recorded)
    return calls


def run(world, failures, controller_type=OlGdController):
    rngs, network, requests, _ = world
    controller = controller_type(network, requests, rngs.get("ctrl"))
    return run_simulation(
        network, ConstantDemandModel(requests), controller, HORIZON,
        compute_optimal=True, failures=failures,
    )


class TestHotOracleUnderOutages:
    def test_matches_cold_solve_through_full_and_partial_outages(
        self, world, record_cold
    ):
        heaviest = world[3]
        failures = (
            FailureSchedule()
            .add_outage(int(heaviest[0]), start=2, duration=3)
            .add_outage(int(heaviest[1]), start=4, duration=3, remaining_fraction=0.3)
        )
        result = run(world, failures)
        hot, cold, held = (
            np.array(column) for column in zip(*record_cold, strict=True)
        )
        optimal = np.array([r.optimal_delay_ms for r in result.records])

        np.testing.assert_array_equal(optimal, hot)
        np.testing.assert_allclose(hot, cold, rtol=1e-12, atol=0)
        # Slots 2-4 run with the heaviest station fully out: those solve cold.
        np.testing.assert_array_equal(hot[2:5], cold[2:5])
        # Every other slot after the first starts from the held basis,
        # including the partial outage's slots 5 and 6.
        assert not held[0] and held[1:].all()
        # The outages bind: each outage slot costs more than the same slot
        # on the healthy network (capacities are restored after the run).
        _, network, requests, _ = world
        demands = ConstantDemandModel(requests).demand_at(0)
        healthy = np.array([
            clairvoyant_cost(network, requests, demands, network.delays.sample(t))
            for t in range(HORIZON)
        ])
        assert np.all(cold[2:7] > healthy[2:7])
        np.testing.assert_array_equal(cold[[0, 1, 7]], healthy[[0, 1, 7]])

    def test_restores_capacities_and_stays_hot_after_recovery(self, world):
        rngs, network, requests, heaviest = world
        before = network.capacities_mhz.copy()
        failures = FailureSchedule().add_outage(
            int(heaviest[0]), start=1, duration=2, remaining_fraction=0.5
        )
        result = run(world, failures)
        np.testing.assert_array_equal(network.capacities_mhz, before)
        demands = ConstantDemandModel(requests).demand_at(HORIZON - 1)
        cold = clairvoyant_cost(
            network, requests, demands, network.delays.sample(HORIZON - 1)
        )
        assert result.records[-1].optimal_delay_ms == pytest.approx(cold, rel=1e-12)


class TestInfeasibleSlot:
    def test_oracle_raises_and_keeps_its_basis(self):
        _, network, requests = build_world()
        demands = ConstantDemandModel(requests).demand_at(0)
        theta = network.delays.sample(0)
        oracle = ClairvoyantOracle(network, requests)
        first = oracle.cost(demands, theta)
        basis = oracle._basis
        with pytest.raises(RuntimeError, match="per-slot LP failed"):
            oracle.cost(demands * 100.0, theta)
        assert oracle._basis is basis
        assert oracle.cost(demands, theta) == pytest.approx(first, rel=1e-12)

    def test_run_raises_on_a_slot_that_cannot_fit(self, world):
        """Every station at 1% from slot 3: the hot-started solve of that
        slot fails instead of repeating slot 2's optimum."""
        _, network, _, _ = world
        failures = FailureSchedule()
        for station in range(network.n_stations):
            failures.add_outage(
                station, start=3, duration=HORIZON, remaining_fraction=0.01
            )
        with pytest.raises(RuntimeError, match="per-slot LP failed"):
            run(world, failures, controller_type=GreedyController)
