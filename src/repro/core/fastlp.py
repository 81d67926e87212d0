"""The per-slot caching program of Eqs. (3)-(8), assembled once.

`OL_GD` solves one LP per slot whose *structure* never changes across a
horizon: the variables (every `x_{li}` and `y_{ki}`), the assignment rows
(Eq. 4), the coupling rows (Eq. 6) and the capacity row *pattern* (Eq. 5)
are fixed; only the objective coefficients (`rho_l(t) * theta_i`) and the
capacity coefficients (`rho_l(t) * C_unit`) move.

:class:`PerSlotLpSolver` assembles one column-wise constraint matrix with
row bounds once and patches the changing entries in place per slot.  It
is the only place the repo builds the caching program:

* the LP relaxation (Eq. 8) goes straight to a fresh model of the HiGHS
  solver that scipy vendors (``scipy.optimize._highspy``), one per solve;
* without a start basis that model runs on HiGHS's defaults, which
  reproduces scipy's own HiGHS LP front end bit for bit
  (``tests/lp_hot_start_corpus.npz`` pins this);
* given the basis of the previous slot's solve (:class:`LpBasis`) it runs
  primal simplex from that basis with presolve off; `OL_GD`'s own LP and
  the clairvoyant oracle (:mod:`repro.core.optimal`) both start every
  slot after the first this way.  Under given demands
  only the objective moves between slots, so the old optimal basis stays
  primal feasible and the hot solve takes a fraction of the iterations.
  A hot start may land on another optimal vertex of a degenerate LP;
  the objective is the same;
* the integer program (Eq. 7) goes to ``scipy.optimize.milp`` on the
  same arrays, and the capacity-row duals of the LP are the stations'
  congestion prices.

HiGHS is reached through one compiled module,
``scipy.optimize._highspy._core``, loaded from scipy's install directory
by itself when this module is imported.  Importing it the usual way runs
``scipy.optimize/__init__`` first, which loads ``scipy.sparse``,
``scipy.linalg`` and some 300 other modules (about half a second and
40 MB of a fresh process) that no solve here uses.  The core is
registered in ``sys.modules`` under its own name, so a later ``import
scipy.optimize`` (``exact_optimum``'s ``milp``, or ``scipy.stats``)
reuses that one module object; a pybind11 module cannot be initialised
twice.  It is private scipy API, so this module is the only one that
loads it, and it fails at import when the core is missing or blocked
rather than fall back to another solve path (which would change
trajectories silently).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.mec.network import MECNetwork
from repro.mec.requests import Request

__all__ = ["LpBasis", "PerSlotLpSolver"]

_CORE = "scipy.optimize._highspy._core"


def _load_highs_core() -> ModuleType:
    """scipy's HiGHS extension, without the ``scipy.optimize`` package."""
    if _CORE in sys.modules:
        core = sys.modules[_CORE]
        if core is None:  # blocked, as the import system treats it
            raise ModuleNotFoundError(f"import of {_CORE} halted; None in sys.modules")
        return core
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ModuleNotFoundError("scipy is not installed")
    directory = os.path.join(
        scipy_spec.submodule_search_locations[0], "optimize", "_highspy"
    )
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ModuleNotFoundError(f"no {_CORE} extension in {directory}")
    spec = importlib.util.spec_from_file_location(_CORE, path)
    core = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return core


try:
    _highs = _load_highs_core()
except ImportError as error:  # pragma: no cover - depends on the install
    raise ImportError(
        "repro.core.fastlp drives the HiGHS solver vendored in scipy "
        f"({_CORE}); install scipy>=1.17,<1.18"
    ) from error

#: ``HighsBasisStatus`` members by value, for rebuilding a basis.
_STATUSES = sorted(_highs.HighsBasisStatus.__members__.values(), key=int)


def _statuses(codes: np.ndarray) -> list:
    codes = np.asarray(codes)
    if codes.ndim != 1 or np.any((codes < 0) | (codes >= len(_STATUSES))):
        raise ValueError(
            f"basis statuses must be a 1-D array of codes 0-{len(_STATUSES) - 1}"
        )
    return [_STATUSES[code] for code in codes.tolist()]


class LpBasis:
    """An optimal simplex basis of the caching LP: where the next solve starts.

    Opaque outside this module.  It holds HiGHS's own basis object, so a
    controller hands it from one solve to the next without conversion;
    :meth:`to_arrays` and :meth:`from_arrays` convert it to and from the
    two ``int8`` status arrays (columns, rows) that a checkpoint stores.
    """

    __slots__ = ("_highs",)

    def __init__(self, highs_basis: "_highs.HighsBasis"):
        self._highs = highs_basis

    @classmethod
    def from_arrays(cls, col_status: np.ndarray, row_status: np.ndarray) -> "LpBasis":
        basis = _highs.HighsBasis()
        basis.col_status = _statuses(col_status)
        basis.row_status = _statuses(row_status)
        basis.valid = True
        basis.alien = basis.was_alien = False
        return cls(basis)

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.array([int(s) for s in self._highs.col_status], dtype=np.int8),
            np.array([int(s) for s in self._highs.row_status], dtype=np.int8),
        )


# repro: allow[STATE001] -- only rewrites scratch buffers (objective, capacity coefficients and row bounds) that every solve patches in full before use
class PerSlotLpSolver:
    """Reusable Eq. (3)-(8) program for a fixed network + request set."""

    def __init__(self, network: MECNetwork, requests: Sequence[Request]):
        if not requests:
            raise ValueError("need at least one request")
        self._network = network
        R, S = len(requests), network.n_stations
        self._R, self._S = R, S

        # Variables: x(l, i) at column l*S+i, then one y(k, i) per needed
        # service k (in sorted order) and station i.
        needed_services = sorted({r.service_index for r in requests})
        self._y_offset = R * S
        self._n_vars = R * S + len(needed_services) * S

        # ---- objective: x part patched per slot, y part constant -------
        self._c = np.zeros(self._n_vars, dtype=np.float64)
        self._c[self._y_offset :] = [
            network.services.instantiation_delay(i, k) / R
            for k in needed_services
            for i in range(S)
        ]

        # ---- rows: capacity (patched), coupling, assignment (fixed) ----
        x = np.arange(R * S)
        request, station = np.divmod(x, S)
        service_rank = np.searchsorted(
            needed_services, [r.service_index for r in requests]
        )
        y = self._y_offset + service_rank[request] * S + station
        ones = np.ones(R * S, dtype=np.float64)
        rows = np.concatenate(
            [
                station,  # capacity (Eq. 5): rho_l * C_unit, patched per slot
                S + x,  # coupling (Eq. 6, negated GE -> LE): x_li - y_ki <= 0
                S + x,
                S + R * S + request,  # assignment (Eq. 4): sum_i x_li = 1
            ]
        )
        cols = np.concatenate([x, x, y, x])
        data = np.concatenate([ones, ones, -ones, ones])
        self._n_rows = S + R * S + R
        # CSC, canonical (rows ascending within each column, no duplicate
        # entries): HiGHS consumes columns.  It also makes the capacity
        # patch a single strided assignment: each x column l*S+i holds
        # exactly three entries — capacity row i, coupling row S+l*S+i and
        # assignment row S+R*S+l — so the capacity entry sits first, at
        # data position 3*(l*S+i).  The blocks above list every column's
        # entries in ascending row order already, so a stable sort by
        # column alone (a radix sort) yields the canonical order.
        order = np.argsort(cols, kind="stable")
        self._indices = rows[order].astype(np.int32)
        self._values = data[order]
        self._indptr = np.zeros(self._n_vars + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=self._n_vars), out=self._indptr[1:])
        #: (R, S) view of the capacity coefficients: [l, i] aliases the
        #: data slot of x(l, i)'s capacity entry.
        self._capacity_view = self._values[: 3 * R * S : 3].reshape(R, S)
        # HiGHS reads one start per column; the end marker is implied by nnz.
        self._col_starts = self._indptr[:-1]

        # Row bounds.  The capacity upper bounds are re-read from the live
        # stations every solve: stations can change capacity between slots
        # (outages, recovery).
        n_ub = S + R * S
        self._row_lower = np.concatenate(
            [np.full(n_ub, -np.inf, dtype=np.float64), np.ones(R, dtype=np.float64)]
        )
        self._row_upper = np.concatenate(
            [
                network.capacities_mhz,
                np.zeros(R * S, dtype=np.float64),
                np.ones(R, dtype=np.float64),
            ]
        )
        self._col_lower = np.zeros(self._n_vars, dtype=np.float64)
        self._col_upper = np.ones(self._n_vars, dtype=np.float64)
        self._continuous = np.zeros(self._n_vars, dtype=np.int32)

    @property
    def n_variables(self) -> int:
        return self._n_vars

    def solve(
        self,
        demands_mb: np.ndarray,
        theta_ms: np.ndarray,
        start: Optional[LpBasis] = None,
    ) -> Tuple[np.ndarray, LpBasis]:
        """Solve the slot's relaxation; returns the `(|R|, |BS|)` x-matrix
        and the optimal basis.

        ``start``, the basis a previous solve of this program returned,
        hot-starts primal simplex from it.  Raises ``RuntimeError`` when
        the LP is not optimal (callers scale demands for aggregate
        feasibility first, as `OL_GD` does).
        """
        self._patch(*self._slot_cost(demands_mb, theta_ms))
        highs = self._run(start)
        x = self._x_matrix(highs.getSolution().col_value)
        return x, LpBasis(highs.getBasis())

    def solve_with_objective(
        self,
        demands_mb: np.ndarray,
        theta_ms: np.ndarray,
        start: Optional[LpBasis] = None,
    ) -> Tuple[float, LpBasis]:
        """Like :meth:`solve`, returning the optimal Eq. (3) objective
        instead of the x-matrix.

        The objective value is what the clairvoyant comparator needs; it
        is unique even when the argmin is degenerate, so a hot-started
        solve matches a cold one to rounding.
        """
        self._patch(*self._slot_cost(demands_mb, theta_ms))
        highs = self._run(start)
        return (
            float(highs.getInfo().objective_function_value),
            LpBasis(highs.getBasis()),
        )

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
        highs = self._run()
        return (
            self._x_matrix(highs.getSolution().col_value),
            float(highs.getInfo().objective_function_value),
        )

    def exact_optimum(
        self, cost_ms: np.ndarray, demands_mb: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Like :meth:`optimum`, for the integer program (Eq. 7).

        Solved by ``scipy.optimize.milp`` at zero relative gap: exact, but
        only practical for small instances (tens of stations and
        requests).  Raises ``RuntimeError`` unless HiGHS reports the
        program solved to optimality.
        """
        # Only small instances come here: load the rest of scipy now.
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp

        self._patch(cost_ms, demands_mb)
        matrix = sparse.csc_matrix(
            (self._values, self._indices, self._indptr),
            shape=(self._n_rows, self._n_vars),
        )
        result = milp(
            self._c,
            integrality=np.ones(self._n_vars, dtype=np.int64),
            bounds=Bounds(0.0, 1.0),
            constraints=LinearConstraint(matrix, self._row_lower, self._row_upper),
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
        row_dual = self._run().getSolution().row_dual
        return -np.array(row_dual[: self._S], dtype=np.float64)

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
            # Re-patch the capacity bounds from the live stations: the
            # values taken at construction go stale when capacities change
            # mid-horizon (failure injection degrades/restores stations).
            self._row_upper[: self._S] = self._network.capacities_mhz

    def _run(self, start: Optional[LpBasis] = None) -> "_highs._Highs":
        """Solve the patched LP in a fresh HiGHS model; returns the model.

        A fresh model per solve carries no hidden solver state from one
        slot to the next: everything a hot start uses is ``start``.
        """
        highs = _highs._Highs()
        highs.setOptionValue("output_flag", False)
        if start is not None:
            highs.setOptionValue("presolve", "off")
            highs.setOptionValue(
                "simplex_strategy",
                int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal),
            )
        with obs.span("lp.solve"):
            status = highs.passModel(
                self._n_vars,
                self._n_rows,
                len(self._values),
                int(_highs.MatrixFormat.kColwise),
                int(_highs.ObjSense.kMinimize),
                0.0,
                self._c,
                self._col_lower,
                self._col_upper,
                self._row_lower,
                self._row_upper,
                self._col_starts,
                self._indices,
                self._values,
                self._continuous,
            )
            if start is not None and status != _highs.HighsStatus.kError:
                if highs.setBasis(start._highs) == _highs.HighsStatus.kError:
                    raise ValueError("the start basis does not fit this program")
            if status != _highs.HighsStatus.kError:
                highs.run()
        model_status = highs.getModelStatus()
        if model_status != _highs.HighsModelStatus.kOptimal:
            raise RuntimeError(
                f"per-slot LP failed (status {int(model_status)}): "
                f"{highs.modelStatusToString(model_status)}"
            )
        # HiGHS reports its simplex iteration count; fold it into the
        # registry so the stage-level cost has an algorithmic denominator.
        obs.inc("lp.iterations", highs.getInfo().simplex_iteration_count)
        return highs

    def _x_matrix(self, values: Sequence[float]) -> np.ndarray:
        x = np.clip(np.asarray(values[: self._y_offset]), 0.0, 1.0)
        return x.reshape(self._R, self._S)
