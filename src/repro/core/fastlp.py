"""The per-slot caching program of Eqs. (3)-(8), assembled once.

`OL_GD` solves one LP per slot whose *structure* never changes across a
horizon: the variables (every `x_{li}` and `y_{ki}`), the assignment rows
(Eq. 4), the coupling rows (Eq. 6) and the capacity row *pattern* (Eq. 5)
are fixed; only the objective coefficients (`rho_l(t) * theta_i`) and the
capacity coefficients (`rho_l(t) * C_unit`) move.

:class:`PerSlotLpSolver` assembles the sparse matrices once and patches
the changing entries in place per slot.  It is the only place the repo
builds the caching program: the LP relaxation (Eq. 8) goes to
``scipy.optimize.linprog``, the integer program (Eq. 7) to
``scipy.optimize.milp`` on the same arrays, and the capacity-row duals of
the LP are the stations' congestion prices.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, linprog, milp

from repro import obs
from repro.mec.network import MECNetwork
from repro.mec.requests import Request

__all__ = ["PerSlotLpSolver"]


# repro: allow[STATE001] -- only rewrites scratch buffers (objective, capacity coefficients and RHS) that every solve patches in full before use
class PerSlotLpSolver:
    """Reusable Eq. (3)-(8) program for a fixed network + request set."""

    def __init__(self, network: MECNetwork, requests: Sequence[Request]):
        if not requests:
            raise ValueError("need at least one request")
        self._network = network
        self._requests = list(requests)
        R, S = len(requests), network.n_stations
        self._R, self._S = R, S

        needed_services = sorted({r.service_index for r in requests})
        self._pairs: List[Tuple[int, int]] = [
            (k, i) for k in needed_services for i in range(S)
        ]
        self._y_offset = R * S
        self._n_vars = R * S + len(self._pairs)
        y_column = {pair: self._y_offset + p for p, pair in enumerate(self._pairs)}

        # ---- objective: x part patched per slot, y part constant -------
        self._c = np.zeros(self._n_vars, dtype=np.float64)
        for p, (k, i) in enumerate(self._pairs):
            self._c[self._y_offset + p] = (
                network.services.instantiation_delay(i, k) / R
            )

        # ---- A_ub: capacity rows (patched) then coupling rows (fixed) --
        rows, cols, data = [], [], []
        # Capacity (Eq. 5): row i, entries at x(l, i) with value rho_l*C_unit.
        # Store (row, col) in a deterministic order; remember the data slice.
        for i in range(S):
            for l in range(R):
                rows.append(i)
                cols.append(l * S + i)
                data.append(1.0)  # placeholder, patched per slot
        # Coupling (Eq. 6, negated GE -> LE): x_li - y_ki <= 0.
        row = S
        for l, request in enumerate(self._requests):
            k = request.service_index
            for i in range(S):
                rows.append(row)
                cols.append(l * S + i)
                data.append(1.0)
                rows.append(row)
                cols.append(y_column[(k, i)])
                data.append(-1.0)
                row += 1
        n_ub_rows = S + R * S
        matrix = sparse.coo_matrix(
            (data, (rows, cols)), shape=(n_ub_rows, self._n_vars)
        )
        # CSC: HiGHS consumes columns, so column-major storage avoids a
        # format conversion per solve.  It also makes the capacity patch a
        # single strided assignment: each x column l*S+i holds exactly two
        # entries — capacity row i and coupling row S+l*S+i — and after
        # sort_indices() the capacity entry (row i < S <= S+l*S+i) sits
        # first, at data position indptr[l*S+i].
        self._a_ub = sparse.csc_matrix(matrix)
        self._a_ub.sort_indices()
        # [i, l] = data index of the capacity coefficient for x(l, i);
        # shape (S, R) so assigning the (R,) per-slot needs broadcasts
        # across stations in one shot.
        self._capacity_data_index = (
            np.asarray(self._a_ub.indptr[: R * S], dtype=np.int64)
            .reshape(R, S)
            .T.copy()
        )
        # With two entries per x column the capacity coefficients sit at
        # the *even* data positions of the first R*S columns, so the
        # per-slot patch can write through a strided view instead of a
        # fancy-index gather (~7x cheaper at paper scale).
        if not np.array_equal(
            self._a_ub.indptr[: R * S + 1], 2 * np.arange(R * S + 1)
        ):
            raise AssertionError(
                "x columns must hold exactly (capacity, coupling) entries"
            )
        # repro: allow[AG002] -- scipy.sparse CSC buffer, not a Tensor
        data = self._a_ub.data
        #: (R, S) view of the capacity coefficients: [l, i] aliases the
        #: data slot of x(l, i)'s capacity entry.
        self._capacity_view = data[: 2 * R * S : 2].reshape(R, S)

        # Capacity RHS is a snapshot; stations can change capacity between
        # slots (outages, recovery), so every solve re-reads the live values.
        self._b_ub = np.concatenate(
            [network.capacities_mhz, np.zeros(R * S, dtype=np.float64)]
        )

        # ---- A_eq: assignment rows (all fixed) --------------------------
        eq_rows = np.repeat(np.arange(R), S)
        eq_cols = np.arange(R * S)
        self._a_eq = sparse.csc_matrix(
            (np.ones(R * S, dtype=np.float64), (eq_rows, eq_cols)),
            shape=(R, self._n_vars),
        )
        self._b_eq = np.ones(R, dtype=np.float64)
        # A single (lo, hi) pair applies to every variable; building the
        # n_vars-long list of identical tuples per instance was pure
        # allocation overhead.
        self._bounds = (0.0, 1.0)

    @property
    def n_variables(self) -> int:
        return self._n_vars

    def solve(self, demands_mb: np.ndarray, theta_ms: np.ndarray) -> np.ndarray:
        """Solve the slot's relaxation; returns the `(|R|, |BS|)` x-matrix.

        Raises ``RuntimeError`` when the LP is not optimal (callers scale
        demands for aggregate feasibility first, as `OL_GD` does).
        """
        return self._solve(demands_mb, theta_ms)[0]

    def solve_with_objective(
        self, demands_mb: np.ndarray, theta_ms: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Like :meth:`solve`, also returning the optimal Eq. (3) objective.

        The objective value is what the clairvoyant comparator needs; it
        is unique even when the argmin is degenerate.
        """
        return self._solve(demands_mb, theta_ms)

    def optimum(
        self, cost_ms: np.ndarray, demands_mb: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Optimal LP x-matrix and objective under an `(|R|, |BS|)` cost matrix.

        ``cost_ms[l, i]`` is the processing delay of serving request `l` at
        station `i` — ``rho_l * theta_i`` for one slot, ``sum_t rho_l(t)
        d_i(t) / T`` for the best fixed plan in hindsight — and
        ``demands_mb`` sizes the capacity rows.
        """
        self._patch(cost_ms, demands_mb)
        result = self._linprog()
        return self._x_matrix(result.x), float(result.fun)

    def exact_optimum(
        self, cost_ms: np.ndarray, demands_mb: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Like :meth:`optimum`, for the integer program (Eq. 7).

        Solved by ``scipy.optimize.milp`` at zero relative gap: exact, but
        only practical for small instances (tens of stations and
        requests).  Raises ``RuntimeError`` unless HiGHS reports the
        program solved to optimality.
        """
        self._patch(cost_ms, demands_mb)
        result = milp(
            self._c,
            integrality=np.ones(self._n_vars, dtype=np.int64),
            bounds=Bounds(0.0, 1.0),
            constraints=[
                LinearConstraint(self._a_ub, -np.inf, self._b_ub),
                LinearConstraint(self._a_eq, self._b_eq, self._b_eq),
            ],
            options={"mip_rel_gap": 0.0},
        )
        if result.status != 0:
            raise RuntimeError(
                f"caching ILP not solved to optimality (status {result.status}): "
                f"{result.message}"
            )
        return self._x_matrix(result.x), float(result.fun)

    def capacity_prices(
        self, demands_mb: np.ndarray, theta_ms: np.ndarray
    ) -> np.ndarray:
        """Per-station congestion prices: the LP's Eq. (5) row duals.

        Ms of average delay saved per extra MHz at each station; 0 where
        capacity is slack.
        """
        self._patch(*self._slot_cost(demands_mb, theta_ms))
        return -np.asarray(self._linprog().ineqlin.marginals[: self._S])

    def _checked_demands(self, demands_mb: np.ndarray) -> np.ndarray:
        demands_mb = np.asarray(demands_mb, dtype=np.float64)
        if demands_mb.shape != (self._R,):
            raise ValueError(
                f"demands must have shape ({self._R},), got {demands_mb.shape}"
            )
        if np.any(demands_mb < 0):
            raise ValueError("demands must be non-negative")
        return demands_mb

    def _slot_cost(
        self, demands_mb: np.ndarray, theta_ms: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One slot's cost matrix ``rho_l * theta_i`` and its demands."""
        demands_mb = self._checked_demands(demands_mb)
        theta_ms = np.asarray(theta_ms, dtype=np.float64)
        if theta_ms.shape != (self._S,):
            raise ValueError(
                f"theta must have shape ({self._S},), got {theta_ms.shape}"
            )
        return np.outer(demands_mb, theta_ms), demands_mb

    def _solve(
        self, demands_mb: np.ndarray, theta_ms: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        return self.optimum(*self._slot_cost(demands_mb, theta_ms))

    def _patch(self, cost_ms: np.ndarray, demands_mb: np.ndarray) -> None:
        demands_mb = self._checked_demands(demands_mb)
        cost_ms = np.asarray(cost_ms, dtype=np.float64)
        if cost_ms.shape != (self._R, self._S):
            raise ValueError(
                f"cost must have shape ({self._R}, {self._S}), got {cost_ms.shape}"
            )
        with obs.span("lp.patch"):
            # Patch the objective: c[x(l, i)] = cost[l, i] / R.
            self._c[: self._R * self._S] = (cost_ms / self._R).reshape(-1)
            # Patch the capacity coefficients: rho_l * C_unit.
            needs = demands_mb * self._network.c_unit_mhz
            self._capacity_view[:] = needs[:, None]
            # Re-patch the capacity RHS from the live stations: the snapshot
            # taken at construction goes stale when capacities change
            # mid-horizon (failure injection degrades/restores stations).
            self._b_ub[: self._S] = self._network.capacities_mhz

    def _linprog(self) -> OptimizeResult:
        with obs.span("lp.solve"):
            result = linprog(
                self._c,
                A_ub=self._a_ub,
                b_ub=self._b_ub,
                A_eq=self._a_eq,
                b_eq=self._b_eq,
                bounds=self._bounds,
                method="highs",
            )
        if result.status != 0:
            raise RuntimeError(
                f"per-slot LP failed (status {result.status}): {result.message}"
            )
        # HiGHS reports its simplex/IPM iteration count; fold it into the
        # registry so the stage-level cost has an algorithmic denominator.
        obs.inc("lp.iterations", int(getattr(result, "nit", 0)))
        return result

    def _x_matrix(self, values: np.ndarray) -> np.ndarray:
        x = np.clip(np.asarray(values[: self._y_offset]), 0.0, 1.0)
        return x.reshape(self._R, self._S)
