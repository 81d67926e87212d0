"""Clairvoyant per-slot optimum for regret measurement (Eq. 10).

The regret compares the learner against the assignment an oracle knowing
the realised `d_i(t)` would have chosen.  Two variants:

* :func:`clairvoyant_cost` — the LP-relaxation optimum (a lower bound on
  the achievable integer cost, cheap at any scale);
* :func:`clairvoyant_cost_exact` — the exact ILP optimum, proven by
  HiGHS's branch and cut (``scipy.optimize.milp``), for the small
  instances used in tests and ablations.

Both, and the hindsight comparator, solve the program that
:class:`~repro.core.fastlp.PerSlotLpSolver` assembles.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.fastlp import PerSlotLpSolver
from repro.mec.network import MECNetwork
from repro.mec.requests import Request

__all__ = ["clairvoyant_cost", "clairvoyant_cost_exact"]

# Most-recent (network, requests) -> PerSlotLpSolver.  clairvoyant_cost is
# called once per slot on the compute_optimal path with the *same* network
# and request list for a whole horizon, so a single-entry cache removes the
# per-slot model rebuild the way OlGdController._solve_fractional does with
# its lazily-built solver, while staying bounded (no per-run growth).
_SOLVER_CACHE: List[Tuple[MECNetwork, Tuple[Request, ...], PerSlotLpSolver]] = []


def _cached_solver(
    network: MECNetwork, requests: Sequence[Request]
) -> PerSlotLpSolver:
    requests_key = tuple(requests)
    if _SOLVER_CACHE:
        cached_network, cached_requests, solver = _SOLVER_CACHE[0]
        # Identity for the network (capacities may mutate in place — the
        # solver re-reads them each solve), equality for the requests.
        if cached_network is network and cached_requests == requests_key:
            return solver
    solver = PerSlotLpSolver(network, requests)
    # repro: allow[MP002] -- single-entry pure memo; each pool worker rebuilds an identical solver from its own (network, requests)
    _SOLVER_CACHE.clear()
    # repro: allow[MP002] -- see above; the entry never crosses processes
    _SOLVER_CACHE.append((network, requests_key, solver))
    return solver


def clairvoyant_cost(
    network: MECNetwork,
    requests: Sequence[Request],
    demands_mb: np.ndarray,
    unit_delays_ms: np.ndarray,
) -> float:
    """Optimal Eq. (3) objective of one slot under known `d_i(t)` (LP bound).

    Solves through a cached :class:`~repro.core.fastlp.PerSlotLpSolver`
    instead of rebuilding the program every slot.
    """
    solver = _cached_solver(network, requests)
    _, objective = solver.solve_with_objective(
        np.asarray(demands_mb, dtype=float), np.asarray(unit_delays_ms, dtype=float)
    )
    return objective


def static_hindsight_cost(
    network: MECNetwork,
    requests: Sequence[Request],
    demand_matrix: np.ndarray,
    delay_matrix: np.ndarray,
    exact: bool = False,
) -> float:
    """Best *fixed* caching/assignment in hindsight, averaged per slot.

    The classic "best fixed arm" comparator of adversarial bandit
    analysis: one assignment `x` (and its implied caching `y`) held for
    the whole horizon, chosen with full knowledge of every slot's demands
    and delays.  The total cost is linear in `x`:

        sum_t x_li * rho_l(t) * d_i(t)  =  x_li * C[l, i],
        C[l, i] = sum_t rho_l(t) * d_i(t),

    so a single LP/ILP over the summed coefficients solves it: the
    per-slot program with cost matrix ``C / T``.  Capacity must hold in
    *every* slot, i.e. at the per-request peak demand.  ``exact=True``
    solves the integer program and raises unless it is proven optimal.

    ``demand_matrix``: shape ``(T, |R|)``; ``delay_matrix``: shape
    ``(T, |BS|)``.  Returns the per-slot average cost (comparable to the
    per-slot outputs of the clairvoyant functions).
    """
    demand_matrix = np.asarray(demand_matrix, dtype=float)
    delay_matrix = np.asarray(delay_matrix, dtype=float)
    if demand_matrix.ndim != 2 or demand_matrix.shape[1] != len(requests):
        raise ValueError(
            f"demand_matrix must be (T, {len(requests)}), got {demand_matrix.shape}"
        )
    if delay_matrix.shape != (demand_matrix.shape[0], network.n_stations):
        raise ValueError(
            f"delay_matrix must be ({demand_matrix.shape[0]}, "
            f"{network.n_stations}), got {delay_matrix.shape}"
        )
    horizon = demand_matrix.shape[0]
    if horizon == 0:
        raise ValueError("need at least one slot")

    # Per-slot mean processing cost and per-request peak demands.
    mean_cost = demand_matrix.T @ delay_matrix / horizon  # (|R|, |BS|)
    peaks = demand_matrix.max(axis=0)
    solver = PerSlotLpSolver(network, requests)
    _, objective = (solver.exact_optimum if exact else solver.optimum)(
        mean_cost, peaks
    )
    return objective


def clairvoyant_cost_exact(
    network: MECNetwork,
    requests: Sequence[Request],
    demands_mb: np.ndarray,
    unit_delays_ms: np.ndarray,
) -> float:
    """Exact integer optimum of one slot (small instances only).

    Raises ``RuntimeError`` unless HiGHS proves the optimum (or when the
    slot has no integral assignment).
    """
    demands_mb = np.asarray(demands_mb, dtype=float)
    cost = np.outer(demands_mb, np.asarray(unit_delays_ms, dtype=float))
    _, objective = _cached_solver(network, requests).exact_optimum(
        cost, demands_mb
    )
    return objective
