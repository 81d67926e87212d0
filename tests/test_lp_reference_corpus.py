"""Differential test: the HiGHS LP/ILP paths against recorded results.

``lp_reference_corpus.json`` holds small seeded instances with the
clairvoyant LP/ILP optimum, the best-fixed-plan hindsight LP/ILP and the
LP capacity prices, as computed by the dict-model builder and
branch-and-bound solver that :class:`PerSlotLpSolver` replaced (every
ILP value proven optimal there).  The instance inputs are stored in full;
only the network is regenerated from its seed, and its capacities are
checked against the recording.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.fastlp import PerSlotLpSolver
from repro.core.optimal import (
    clairvoyant_cost,
    clairvoyant_cost_exact,
    static_hindsight_cost,
)
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.utils.seeding import RngRegistry

CORPUS = json.loads(
    (Path(__file__).resolve().parent / "lp_reference_corpus.json").read_text()
)["cases"]


def rebuild(case):
    network = MECNetwork.synthetic(
        case["n_stations"], case["n_services"], RngRegistry(seed=case["seed"])
    )
    network.c_unit_mhz = case["c_unit_mhz"]
    np.testing.assert_array_equal(network.capacities_mhz, case["capacities_mhz"])
    requests = [
        Request(index=l, service_index=k, basic_demand_mb=d)
        for l, (k, d) in enumerate(
            zip(case["services"], case["demands_mb"], strict=True)
        )
    ]
    return (
        network,
        requests,
        np.array(case["demands_mb"]),
        np.array(case["unit_delays_ms"]),
    )


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: f"seed{case['seed']}")
class TestRecordedOptima:
    def test_clairvoyant_matches_recording(self, case):
        network, requests, demands, d_t = rebuild(case)
        lp = clairvoyant_cost(network, requests, demands, d_t)
        ilp = clairvoyant_cost_exact(network, requests, demands, d_t)
        assert lp == pytest.approx(case["clairvoyant_lp"], rel=1e-9, abs=1e-9)
        assert ilp == pytest.approx(case["clairvoyant_ilp"], rel=1e-9, abs=1e-9)
        assert lp <= ilp + 1e-9

    def test_hindsight_matches_recording(self, case):
        network, requests, _, _ = rebuild(case)
        demand_matrix, delay_matrix = case["demand_matrix"], case["delay_matrix"]
        lp = static_hindsight_cost(network, requests, demand_matrix, delay_matrix)
        ilp = static_hindsight_cost(
            network, requests, demand_matrix, delay_matrix, exact=True
        )
        assert lp == pytest.approx(case["hindsight_lp"], rel=1e-9, abs=1e-9)
        assert ilp == pytest.approx(case["hindsight_ilp"], rel=1e-9, abs=1e-9)
        assert lp <= ilp + 1e-9

    def test_prices_match_recording(self, case):
        network, requests, demands, d_t = rebuild(case)
        solver = PerSlotLpSolver(network, requests)
        x, _ = solver.solve(demands, d_t)
        prices = solver.capacity_prices(demands, d_t)
        np.testing.assert_allclose(prices, case["capacity_prices"], rtol=0, atol=1e-9)
        assert np.all(prices >= -1e-12)
        # Complementary slackness: a station with slack capacity is free.
        loads = (x * demands[:, None]).sum(axis=0) * network.c_unit_mhz
        slack = loads < network.capacities_mhz * (1 - 1e-6)
        np.testing.assert_allclose(prices[slack], 0.0, rtol=0, atol=1e-12)


def test_corpus_prices_some_binding_station():
    """The corpus is congested enough that capacity prices are exercised."""
    priced = [case for case in CORPUS if max(case["capacity_prices"]) > 1e-9]
    assert len(priced) >= 5
