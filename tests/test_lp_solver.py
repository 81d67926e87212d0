"""Tests for the exact per-slot optimum: PerSlotLpSolver's LP and its ILP
(``scipy.optimize.milp``), checked against exhaustive enumeration."""

import itertools

import numpy as np
import pytest

from repro.core.fastlp import PerSlotLpSolver
from repro.core.optimal import clairvoyant_cost, clairvoyant_cost_exact
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.utils.seeding import RngRegistry


def tiny_instance(seed, n_stations, n_requests, load):
    """A world whose aggregate demand is ``load`` x the aggregate capacity,
    so the smaller stations cannot host every request."""
    rngs = RngRegistry(seed=seed)
    network = MECNetwork.synthetic(n_stations, 2, rngs)
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(2)),
            basic_demand_mb=float(rng.uniform(0.5, 2.0)),
        )
        for i in range(n_requests)
    ]
    demands = np.array([r.basic_demand_mb for r in requests])
    network.c_unit_mhz = float(load * network.total_capacity_mhz() / demands.sum())
    return network, requests, demands, network.delays.sample(0)


def tiny_corpus(n_cases=40):
    params = np.random.default_rng(2020)
    for seed in range(n_cases):
        yield tiny_instance(
            seed,
            int(params.integers(2, 5)),
            int(params.integers(1, 4)),
            float(params.uniform(0.2, 0.9)),
        )


def brute_force_optimum(network, requests, demands, unit_delays):
    """Minimum Eq. (3) cost over every station choice, with the smallest
    cache each choice implies; choices that break capacity are skipped.

    Returns ``(optimum, n_skipped)``; the optimum is ``inf`` when no
    choice fits.
    """
    R, S = len(requests), network.n_stations
    best, skipped = np.inf, 0
    for stations in itertools.product(range(S), repeat=R):
        loads = np.zeros(S)
        np.add.at(loads, list(stations), demands * network.c_unit_mhz)
        if np.any(loads > network.capacities_mhz):
            skipped += 1
            continue
        processing = sum(demands[l] * unit_delays[i] for l, i in enumerate(stations))
        cached = {(r.service_index, i) for r, i in zip(requests, stations, strict=True)}
        caching = sum(network.services.instantiation_delay(i, k) for k, i in cached)
        best = min(best, (processing + caching) / R)
    return best, skipped


class TestSolveLp:
    def test_infeasible(self):
        network, requests, demands, d_t = tiny_instance(3, 3, 3, 0.5)
        with pytest.raises(RuntimeError, match="LP failed"):
            clairvoyant_cost(network, requests, demands * 10.0, d_t)

    def test_values_respect_bounds(self):
        for network, requests, demands, d_t in tiny_corpus(10):
            x, _ = PerSlotLpSolver(network, requests).solve(demands, d_t)
            assert np.all((x >= 0.0) & (x <= 1.0))


class TestSolveIlp:
    def test_infeasible(self):
        """A fractional split fits, but no integral assignment does."""
        network, requests, _, d_t = tiny_instance(3, 2, 2, 0.5)
        demands = np.full(2, 1.0)
        # Each request needs one c_unit of compute: one station holds half
        # a request, the other one and a half.
        network.stations[0].capacity_mhz = 0.5 * network.c_unit_mhz
        network.stations[1].capacity_mhz = 1.5 * network.c_unit_mhz
        assert clairvoyant_cost(network, requests, demands, d_t) > 0
        with pytest.raises(RuntimeError, match="ILP"):
            clairvoyant_cost_exact(network, requests, demands, d_t)

    def test_ilp_never_better_than_lp(self):
        for network, requests, demands, d_t in tiny_corpus(20):
            try:
                ilp = clairvoyant_cost_exact(network, requests, demands, d_t)
            except RuntimeError:
                continue  # no integral plan fits
            assert ilp >= clairvoyant_cost(network, requests, demands, d_t) - 1e-9

    def test_matches_brute_force(self):
        """The proven ILP optimum equals exhaustive enumeration."""
        compared = skipped_any = 0
        for network, requests, demands, d_t in tiny_corpus():
            best, skipped = brute_force_optimum(network, requests, demands, d_t)
            skipped_any += skipped > 0
            if np.isinf(best):
                with pytest.raises(RuntimeError):
                    clairvoyant_cost_exact(network, requests, demands, d_t)
                continue
            exact = clairvoyant_cost_exact(network, requests, demands, d_t)
            assert exact == pytest.approx(best, rel=1e-9, abs=1e-9)
            compared += 1
        # The corpus must exercise both the comparison and the capacity skip.
        assert compared >= 20
        assert skipped_any >= 10

    def test_solution_satisfies_constraints(self):
        for network, requests, demands, d_t in tiny_corpus(20):
            solver = PerSlotLpSolver(network, requests)
            try:
                x, _ = solver.exact_optimum(np.outer(demands, d_t), demands)
            except RuntimeError:
                continue
            np.testing.assert_allclose(x, np.round(x), atol=1e-9)
            np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-9)
            loads = (x * demands[:, None]).sum(axis=0) * network.c_unit_mhz
            assert np.all(loads <= network.capacities_mhz + 1e-6)
