#!/usr/bin/env python
"""Congestion pricing: which cloudlets are the bottlenecks, and what is
one more MHz there worth?

Uses the per-slot LP's dual values (shadow prices of the Eq. 5 capacity
constraints) to rank stations by congestion price — the operator's
capacity-planning signal.  Also demonstrates burst admission control:
when a flash crowd pushes aggregate demand past the §III-E feasibility
assumption, `select_admissible` picks the feasible subset and the
deferred remainder is priced at the remote data center.

Run:  python examples/congestion_pricing.py
"""

import numpy as np

from repro.api import MECNetwork, RngRegistry
from repro.core import select_admissible
from repro.core.fastlp import PerSlotLpSolver
from repro.mec.datacenter import RemoteDataCenter, cloud_only_delay_ms
from repro.workload import (
    BurstyDemandModel,
    requests_from_trace,
    synthesize_nyc_wifi_trace,
)


def main() -> None:
    rngs = RngRegistry(seed=37)
    trace = synthesize_nyc_wifi_trace(
        n_hotspots=4, n_users=40, rng=rngs.get("trace"), horizon_slots=10
    )
    anchors = [h.location for h in trace.hotspots]
    network = MECNetwork.synthetic(
        n_stations=25, n_services=3, rngs=rngs, anchor_points=anchors
    )
    requests = requests_from_trace(trace, network.services, rngs.get("trace"))
    # Scarce compute: each femtocell hosts ~1.5 average requests.
    mean_demand = float(np.mean([r.basic_demand_mb for r in requests]))
    network.c_unit_mhz = float(network.capacities_mhz.min() / (1.5 * mean_demand))
    demand_model = BurstyDemandModel(
        requests, rngs.get("demand"), amplitude_scale=5.0
    )

    # --- congestion prices on a normal slot -----------------------------
    demands = demand_model.demand_at(0)
    theta = network.delays.true_means
    prices = PerSlotLpSolver(network, requests).capacity_prices(demands, theta)

    print("top congestion prices (ms of average delay per extra MHz):")
    order = np.argsort(-prices)
    for i in order[:6]:
        bs = network.stations[i]
        print(
            f"  station {i:>3} ({bs.tier.value:<5}) "
            f"capacity {bs.capacity_mhz:7.0f} MHz  theta {theta[i]:5.1f} ms  "
            f"price {prices[i]:.5f}"
        )
    print(f"  ({int((prices > 1e-6).sum())} of {network.n_stations} stations congested)")

    # --- a burst beyond feasibility + admission control ------------------
    burst_slot = next(
        (
            t
            for t in range(60)
            if demand_model.demand_at(t).sum() * network.c_unit_mhz
            > 0.9 * network.total_capacity_mhz()
        ),
        None,
    )
    if burst_slot is None:
        # Force the scenario so the example always demonstrates it.
        burst_demands = demand_model.demand_at(0) * 6.0
        print("\n(synthetic over-capacity burst)")
    else:
        burst_demands = demand_model.demand_at(burst_slot)
        print(f"\nover-capacity burst at slot {burst_slot}")

    budget = 0.9 * network.total_capacity_mhz()
    decision = select_admissible(
        burst_demands, budget, network.c_unit_mhz, policy="smallest-first"
    )
    datacenter = RemoteDataCenter(rngs.get("datacenter"))
    deferred = list(decision.deferred)
    print(
        f"admitted {decision.n_admitted}/{len(requests)} requests at the edge; "
        f"{decision.n_deferred} deferred to the cloud"
    )
    if deferred:
        deferred_requests = [requests[i] for i in deferred]
        cloud_ms = cloud_only_delay_ms(
            datacenter, deferred_requests, burst_demands[deferred], slot=0
        )
        print(f"deferred requests pay the cloud delay: {cloud_ms:.1f} ms on average")


if __name__ == "__main__":
    main()
