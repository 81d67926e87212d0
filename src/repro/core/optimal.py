"""Clairvoyant per-slot optimum for regret measurement (Eq. 10).

The regret compares the learner against the assignment an oracle knowing
the realised `d_i(t)` would have chosen.  Two variants:

* :func:`clairvoyant_cost` — the LP-relaxation optimum (a lower bound on
  the achievable integer cost, cheap at any scale);
* :func:`clairvoyant_cost_exact` — the exact ILP optimum, proven by
  HiGHS's branch and cut (``scipy.optimize.milp``), for the small
  instances used in tests and ablations.

Both are pure functions of their inputs: each call builds its own
:class:`~repro.core.fastlp.PerSlotLpSolver` and solves cold.

:class:`ClairvoyantOracle` is the per-run form the simulation loop holds
when it computes the optimum every slot.  Under given demands only the
cost ``rho_l * d_i(t)`` moves between slots, so the LP oracle starts
primal simplex from the previous slot's optimal basis (the hot start
`OL_GD` uses, see :mod:`repro.core.fastlp`).  Its optima match the cold
solve to rounding (below 1e-15 relative), not bit for bit.  On
perfbench's ``given_fig3`` (50 stations, 60 requests, 30 slots) the
oracle's simplex iterations fall from 44 606 to 21 508 per repetition and
the repetition's wall time from 2.91 to 1.43 s.  Slot 0, slots during a
full station outage, the exact oracle and :func:`static_hindsight_cost`
solve cold.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.core.fastlp import LpBasis, PerSlotLpSolver
from repro.mec.network import MECNetwork
from repro.mec.requests import Request

__all__ = ["ClairvoyantOracle", "clairvoyant_cost", "clairvoyant_cost_exact"]

#: A station whose capacity holds less than this share of the largest
#: request (the sliver a full outage leaves, see repro.sim.engine) puts a
#: capacity row below HiGHS's feasibility tolerance once scaled.  A hot
#: and a cold solve of such an LP settle up to ~1e-11 relative apart, so
#: the oracle solves those slots cold.
_SLIVER_SHARE = 1e-6


def clairvoyant_cost(
    network: MECNetwork,
    requests: Sequence[Request],
    demands_mb: np.ndarray,
    unit_delays_ms: np.ndarray,
) -> float:
    """Optimal Eq. (3) objective of one slot under known `d_i(t)` (LP bound)."""
    objective, _ = PerSlotLpSolver(network, requests).solve_with_objective(
        np.asarray(demands_mb, dtype=float), np.asarray(unit_delays_ms, dtype=float)
    )
    return objective


class ClairvoyantOracle:
    """The clairvoyant optimum of every slot of one run.

    Holds one :class:`~repro.core.fastlp.PerSlotLpSolver` for the run's
    fixed network and request set and, for the LP oracle, the previous
    slot's optimal :class:`~repro.core.fastlp.LpBasis` — nothing else, so
    :meth:`state_dict` is the whole state a resumed run needs to solve
    the same LPs from the same bases.  ``exact=True`` solves every slot's
    ILP cold (small instances only).
    """

    def __init__(
        self,
        network: MECNetwork,
        requests: Sequence[Request],
        exact: bool = False,
    ):
        self._network = network
        self._solver = PerSlotLpSolver(network, requests)
        self._exact = bool(exact)
        #: Where the next LP solve starts; None until the first, cold, one.
        self._basis: Optional[LpBasis] = None

    def cost(self, demands_mb: np.ndarray, unit_delays_ms: np.ndarray) -> float:
        """The slot's optimal Eq. (3) objective; raises ``RuntimeError``
        when the slot has no (fractional, or integral when exact)
        assignment, keeping the previous basis."""
        demands_mb = np.asarray(demands_mb, dtype=float)
        unit_delays_ms = np.asarray(unit_delays_ms, dtype=float)
        if self._exact:
            _, objective = self._solver.exact_optimum(
                np.outer(demands_mb, unit_delays_ms), demands_mb
            )
            return objective
        largest_need = float(demands_mb.max()) * self._network.c_unit_mhz
        sliver = np.any(self._network.capacities_mhz < _SLIVER_SHARE * largest_need)
        objective, self._basis = self._solver.solve_with_objective(
            demands_mb, unit_delays_ms, start=None if sliver else self._basis
        )
        return objective

    def state_dict(self) -> Dict[str, Any]:
        """The LP basis as two ``int8`` status arrays (columns, rows), or
        None before the first LP solve and for the exact oracle."""
        return {
            "lp_basis": (
                None if self._basis is None else list(self._basis.to_arrays())
            )
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        basis = state["lp_basis"]
        self._basis = None if basis is None else LpBasis.from_arrays(*basis)


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
    _, objective = PerSlotLpSolver(network, requests).exact_optimum(
        cost, demands_mb
    )
    return objective
