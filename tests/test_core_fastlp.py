"""Tests for the structure-cached per-slot LP solver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import repro
from repro.core.fastlp import LpBasis, PerSlotLpSolver
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.utils.seeding import RngRegistry


def make_instance(seed, n_stations, n_requests, n_services=3):
    rngs = RngRegistry(seed=seed)
    network = MECNetwork.synthetic(n_stations, n_services, rngs)
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(n_services)),
            basic_demand_mb=float(rng.uniform(0.5, 2.0)),
        )
        for i in range(n_requests)
    ]
    demands = np.array([r.basic_demand_mb for r in requests])
    return network, requests, demands


def reference_objective(network, requests, demands, theta):
    """Eqs. (3)-(6) written out densely, row by row, solved by ``linprog``.

    Deliberately independent of :class:`PerSlotLpSolver`'s sparse
    assembly: the x block is request-major, one y column per demanded
    (service, station) pair.  Returns the optimal objective and x-matrix.
    """
    R, S = len(requests), network.n_stations
    services = sorted({r.service_index for r in requests})
    n_x = R * S
    n = n_x + len(services) * S

    def y(k, i):
        return n_x + services.index(k) * S + i

    c = np.zeros(n)
    for l in range(R):
        for i in range(S):
            c[l * S + i] = demands[l] * theta[i] / R  # Eq. 3, processing
    for k in services:
        for i in range(S):
            c[y(k, i)] = network.services.instantiation_delay(i, k) / R
    a_eq = np.zeros((R, n))  # Eq. 4: every request served exactly once
    for l in range(R):
        a_eq[l, l * S : (l + 1) * S] = 1.0
    a_ub, b_ub = [], []
    for i in range(S):  # Eq. 5: station capacity
        row = np.zeros(n)
        for l in range(R):
            row[l * S + i] = demands[l] * network.c_unit_mhz
        a_ub.append(row)
        b_ub.append(network.stations[i].capacity_mhz)
    for l, request in enumerate(requests):  # Eq. 6: x_li <= y_ki
        for i in range(S):
            row = np.zeros(n)
            row[l * S + i] = 1.0
            row[y(request.service_index, i)] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)
    result = linprog(
        c, A_ub=np.array(a_ub), b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(R),
        bounds=(0.0, 1.0), method="highs",
    )
    assert result.status == 0
    return result.fun, result.x[:n_x].reshape(R, S)


class TestPerSlotLpSolver:
    def test_solution_structure(self):
        network, requests, demands = make_instance(1, 10, 6)
        solver = PerSlotLpSolver(network, requests)
        x, _ = solver.solve(demands, network.delays.true_means)
        assert x.shape == (6, 10)
        np.testing.assert_allclose(x.sum(axis=1), np.ones(6), atol=1e-6)
        assert np.all(x >= 0)

    def test_respects_capacity(self):
        network, requests, demands = make_instance(2, 8, 10)
        solver = PerSlotLpSolver(network, requests)
        x, _ = solver.solve(demands, network.delays.true_means)
        loads = (x * demands[:, None]).sum(axis=0) * network.c_unit_mhz
        assert np.all(loads <= network.capacities_mhz + 1e-6)

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=15, deadline=None)
    def test_objective_matches_reference_builder(self, seed, n_stations, n_requests):
        """The cached LP is the same LP: equal optimal objective values."""
        network, requests, demands = make_instance(seed, n_stations, n_requests)
        theta = network.delays.true_means
        solver = PerSlotLpSolver(network, requests)
        objective, _ = solver.solve_with_objective(demands, theta)
        ref_obj, _ = reference_objective(network, requests, demands, theta)
        assert objective == pytest.approx(ref_obj, rel=1e-9, abs=1e-9)

    def test_reused_across_slots_with_changing_inputs(self):
        network, requests, demands = make_instance(3, 8, 6)
        solver = PerSlotLpSolver(network, requests)
        theta = network.delays.true_means
        x1, _ = solver.solve(demands, theta)
        flipped = theta[::-1].copy()  # different delay landscape
        x2, _ = solver.solve(demands * 1.5, flipped)
        x3, _ = solver.solve(demands, theta)  # back to the first inputs
        np.testing.assert_allclose(x1, x3, atol=1e-9)
        assert not np.allclose(x1, x2)

    def test_matches_reference_solution_exactly_when_unique(self):
        network, requests, demands = make_instance(4, 12, 8)
        theta = network.delays.true_means
        solver = PerSlotLpSolver(network, requests)
        x_fast, _ = solver.solve(demands, theta)
        _, x_ref = reference_objective(network, requests, demands, theta)
        # HiGHS is deterministic; with identical LPs the solutions match.
        np.testing.assert_allclose(x_fast, x_ref, atol=1e-7)

    def test_optimum_of_outer_cost_is_the_slot_lp(self):
        """The cost-matrix entry point with cost = rho theta^T is the slot LP."""
        network, requests, demands = make_instance(12, 7, 5)
        theta = network.delays.true_means
        solver = PerSlotLpSolver(network, requests)
        x, _ = solver.solve(demands, theta)
        objective, _ = solver.solve_with_objective(demands, theta)
        x_cost, cost_objective = solver.optimum(np.outer(demands, theta), demands)
        np.testing.assert_array_equal(x_cost, x)
        assert cost_objective == objective
        with pytest.raises(ValueError, match="cost"):
            solver.optimum(np.ones((5, 6)), demands)

    def test_theta_sensitivity(self):
        """Mass must move toward stations whose theta falls."""
        network, requests, demands = make_instance(5, 6, 4)
        solver = PerSlotLpSolver(network, requests)
        theta = np.full(6, 20.0)
        x_uniform, _ = solver.solve(demands, theta)
        theta_fast0 = theta.copy()
        theta_fast0[0] = 1.0
        x_skewed, _ = solver.solve(demands, theta_fast0)
        assert x_skewed[:, 0].sum() > x_uniform[:, 0].sum()

    def test_validation(self):
        network, requests, demands = make_instance(6, 5, 3)
        solver = PerSlotLpSolver(network, requests)
        theta = network.delays.true_means
        with pytest.raises(ValueError):
            solver.solve(demands[:-1], theta)
        with pytest.raises(ValueError):
            solver.solve(demands, theta[:-1])
        with pytest.raises(ValueError):
            solver.solve(-demands, theta)
        with pytest.raises(ValueError):
            PerSlotLpSolver(network, [])

    def test_infeasible_raises_runtime_error(self):
        network, requests, demands = make_instance(7, 4, 3)
        solver = PerSlotLpSolver(network, requests)
        huge = demands * 1e9  # exceeds every capacity constraint
        with pytest.raises(RuntimeError, match="per-slot LP failed"):
            solver.solve(huge, network.delays.true_means)

    def test_tracks_capacity_changes_between_solves(self):
        """Regression: b_ub snapshotted capacities at construction, so a
        mid-horizon station failure left the cached LP solving against the
        pre-outage network."""
        network, requests, demands = make_instance(9, 6, 8)
        theta = network.delays.true_means
        solver = PerSlotLpSolver(network, requests)
        x_before, _ = solver.solve(demands, theta)
        loads_before = (x_before * demands[:, None]).sum(axis=0) * network.c_unit_mhz

        # Flip the most-loaded station down to near-zero capacity.
        victim = int(np.argmax(loads_before))
        assert loads_before[victim] > 0
        original = network.stations[victim].capacity_mhz
        try:
            network.stations[victim].capacity_mhz = 1e-6
            x_after, _ = solver.solve(demands, theta)
            loads_after = (x_after * demands[:, None]).sum(axis=0) * network.c_unit_mhz
            # The LP must respect the reduced capacity: (near) nothing on
            # the dead station, and all capacities still honoured.
            assert loads_after[victim] <= 1e-6 + 1e-9
            assert np.all(loads_after <= network.capacities_mhz + 1e-6)
        finally:
            network.stations[victim].capacity_mhz = original

        # With the capacity restored the original solution comes back.
        x_restored, _ = solver.solve(demands, theta)
        np.testing.assert_allclose(x_restored, x_before, atol=1e-9)

    def test_capacity_recovery_tracked(self):
        """A degraded-then-restored station regains LP assignment mass."""
        network, requests, demands = make_instance(10, 5, 6)
        theta = network.delays.true_means
        solver = PerSlotLpSolver(network, requests)
        x_healthy, _ = solver.solve(demands, theta)
        original = [bs.capacity_mhz for bs in network.stations]
        try:
            for bs in network.stations[1:]:
                bs.capacity_mhz *= 0.5
            solver.solve(demands, theta)  # degraded solve must not poison state
        finally:
            for bs, cap in zip(network.stations, original, strict=True):
                bs.capacity_mhz = cap
        np.testing.assert_allclose(solver.solve(demands, theta)[0], x_healthy, atol=1e-9)

    def test_ol_gd_uses_cached_solver(self):
        from repro.core import OlGdController

        network, requests, demands = make_instance(8, 8, 5)
        controller = OlGdController(
            network, requests, np.random.default_rng(0)
        )
        assert controller._lp_solver is None
        controller.decide(0, demands)
        first_solver = controller._lp_solver
        assert first_solver is not None
        controller.decide(1, demands)
        assert controller._lp_solver is first_solver  # reused, not rebuilt


class TestClairvoyantSolverCache:
    """A ClairvoyantOracle holds one PerSlotLpSolver for a whole run."""

    def test_objective_matches_reference_builder(self):
        from repro.core.optimal import clairvoyant_cost

        for seed in (3, 17, 91):
            network, requests, demands = make_instance(seed, 6, 5)
            theta = network.delays.true_means
            expected, _ = reference_objective(network, requests, demands, theta)
            assert clairvoyant_cost(network, requests, demands, theta) == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )

    def test_solver_reused_across_slots(self, monkeypatch):
        from repro.core import fastlp, optimal

        built = []
        init = fastlp.PerSlotLpSolver.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(fastlp.PerSlotLpSolver, "__init__", counted)
        network, requests, demands = make_instance(4, 5, 4)
        theta = network.delays.true_means
        oracle = optimal.ClairvoyantOracle(network, requests)
        for scale in (1.0, 1.5, 0.5):
            cost = oracle.cost(scale * demands, theta)
            assert cost == pytest.approx(
                optimal.clairvoyant_cost(network, requests, scale * demands, theta),
                rel=1e-12,
            )
        # One solver for the oracle, one per cold clairvoyant_cost call.
        assert len(built) == 4
        assert oracle._solver is built[0]

    def test_cached_solver_sees_live_capacity_changes(self):
        from repro.core.optimal import ClairvoyantOracle, clairvoyant_cost

        network, requests, demands = make_instance(7, 4, 6)
        theta = network.delays.true_means
        oracle = ClairvoyantOracle(network, requests)
        baseline = oracle.cost(demands, theta)
        original = [bs.capacity_mhz for bs in network.stations]
        try:
            for bs in network.stations:
                bs.capacity_mhz *= 10.0
            relaxed = oracle.cost(demands, theta)
            assert relaxed == pytest.approx(
                clairvoyant_cost(network, requests, demands, theta), rel=1e-12
            )
        finally:
            for bs, cap in zip(network.stations, original, strict=True):
                bs.capacity_mhz = cap
        assert relaxed <= baseline + 1e-9  # looser capacity cannot cost more
        assert oracle.cost(demands, theta) == pytest.approx(baseline, rel=1e-12)


class TestVendoredHighs:
    """HiGHS is reached through scipy's private ``_highspy._core`` module."""

    @staticmethod
    def run_fresh(code, *path):
        pythonpath = [*path, str(Path(repro.__file__).parents[1])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )

    def assert_pinned_import_error(self, result):
        assert result.returncode != 0
        assert "ImportError" in result.stderr
        assert "scipy>=1.17,<1.18" in result.stderr

    def test_only_fastlp_imports_the_private_module(self):
        package = Path(repro.__file__).resolve().parent
        users = [
            path.relative_to(package).as_posix()
            for path in sorted(package.rglob("*.py"))
            if "_highspy" in path.read_text()
        ]
        assert users == ["core/fastlp.py"]

    def test_missing_highs_fails_at_import(self):
        self.assert_pinned_import_error(
            self.run_fresh(
                "import sys\n"
                "sys.modules['scipy.optimize._highspy._core'] = None\n"
                "import repro.core.fastlp\n"
            )
        )

    def test_core_absent_from_scipy_fails_at_import(self, tmp_path):
        # A scipy install without the compiled HiGHS core.
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        self.assert_pinned_import_error(
            self.run_fresh("import repro.core.fastlp\n", tmp_path)
        )

    @pytest.mark.parametrize(
        "first, then",
        [
            (
                "import repro.core.fastlp as fastlp\n"
                "assert 'scipy.optimize' not in sys.modules\n",
                "from scipy.optimize import linprog, milp\n"
                "assert linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1],"
                " method='highs').fun == 1\n",
            ),
            ("import scipy.optimize\n", "import repro.core.fastlp as fastlp\n"),
        ],
        ids=["fastlp_first", "scipy_optimize_first"],
    )
    def test_one_core_module_in_either_import_order(self, first, then):
        code = (
            "import sys\n"
            + first
            + then
            + "import scipy.optimize._highspy._core as core\n"
            "assert core is fastlp._highs\n"
            "assert sys.modules['scipy.optimize._highspy._core'] is core\n"
            "from tests.test_core_fastlp import make_instance\n"
            "network, requests, demands = make_instance(3, 4, 5)\n"
            "solver = fastlp.PerSlotLpSolver(network, requests)\n"
            "cost = demands[:, None] * network.delays.true_means\n"
            "_, lp = solver.optimum(cost, demands)\n"
            "x, ilp = solver.exact_optimum(cost, demands)\n"
            "assert set(x.ravel().tolist()) <= {0.0, 1.0}\n"
            "assert ilp >= lp - 1e-9\n"
        )
        result = self.run_fresh(code, Path(__file__).resolve().parents[1])
        assert result.returncode == 0, result.stderr


def dense_constraints(network, requests):
    """Eqs. (4)-(6) written out densely in the solver's row/column layout,
    capacity coefficients still 1 as built."""
    R, S = len(requests), network.n_stations
    services = sorted({r.service_index for r in requests})
    matrix = np.zeros((S + R * S + R, R * S + len(services) * S))
    for l, request in enumerate(requests):
        k = services.index(request.service_index)
        for i in range(S):
            matrix[i, l * S + i] = 1.0  # Eq. 5, capacity
            matrix[S + l * S + i, l * S + i] = 1.0  # Eq. 6, coupling
            matrix[S + l * S + i, R * S + k * S + i] = -1.0
            matrix[S + R * S + l, l * S + i] = 1.0  # Eq. 4, assignment
    return matrix


class TestColumnArrays:
    """The hand-built CSC arrays are the canonical ones ``scipy.sparse`` makes."""

    @pytest.mark.parametrize(
        "seed, n_stations, n_requests", [(0, 3, 1), (1, 6, 4), (2, 10, 12), (3, 17, 9)]
    )
    def test_equal_scipy_canonical_csc(self, seed, n_stations, n_requests):
        self.assert_canonical(*make_instance(seed, n_stations, n_requests)[:2])

    def test_service_without_requests(self):
        network, requests, _ = make_instance(4, 5, 6, n_services=4)
        requests = [
            Request(r.index, 2 * (r.index % 2), r.basic_demand_mb) for r in requests
        ]  # services 1 and 3 unrequested
        self.assert_canonical(network, requests)

    @staticmethod
    def assert_canonical(network, requests):
        from scipy import sparse

        solver = PerSlotLpSolver(network, requests)
        reference = sparse.csc_matrix(dense_constraints(network, requests))
        assert reference.has_canonical_format
        for ours, theirs in (
            (solver._indptr, reference.indptr),
            (solver._indices, reference.indices),
            (solver._values, reference.data),
        ):
            assert ours.dtype == theirs.dtype
            np.testing.assert_array_equal(ours, theirs)
        assert solver._n_rows == reference.shape[0]


class TestLpBasis:
    """The optimal basis a solve returns, and its checkpoint form."""

    def test_int8_round_trip_starts_the_same_solve(self):
        network, requests, demands = make_instance(13, 8, 10)
        theta = network.delays.true_means
        solver = PerSlotLpSolver(network, requests)
        _, basis = solver.solve(demands, theta)
        col_status, row_status = basis.to_arrays()
        assert col_status.dtype == row_status.dtype == np.int8
        assert col_status.shape == (solver.n_variables,)
        restored = LpBasis.from_arrays(col_status, row_status)
        np.testing.assert_array_equal(restored.to_arrays()[1], row_status)
        shifted = theta[::-1].copy()
        x_hot, _ = solver.solve(demands, shifted, start=basis)
        x_restored, _ = solver.solve(demands, shifted, start=restored)
        np.testing.assert_array_equal(x_restored, x_hot)

    def test_malformed_statuses_rejected(self):
        with pytest.raises(ValueError, match="codes"):
            LpBasis.from_arrays(np.array([0, 9], dtype=np.int8), np.zeros(1))
        with pytest.raises(ValueError, match="codes"):
            LpBasis.from_arrays(np.array([0, -1], dtype=np.int8), np.zeros(1))
        with pytest.raises(ValueError, match="codes"):
            LpBasis.from_arrays(np.zeros((2, 2)), np.zeros(1))

    def test_basis_of_another_program_rejected(self):
        network, requests, demands = make_instance(14, 6, 5)
        _, basis = PerSlotLpSolver(network, requests).solve(
            demands, network.delays.true_means
        )
        other, other_requests, other_demands = make_instance(15, 7, 5)
        with pytest.raises(ValueError, match="does not fit"):
            PerSlotLpSolver(other, other_requests).solve(
                other_demands, other.delays.true_means, start=basis
            )
