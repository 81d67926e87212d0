"""Tests for the simulation engine and metrics."""

import numpy as np
import pytest

from repro.core import GreedyController, OlGdController
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.sim import SimulationResult, SlotRecord, run_simulation
from repro.sim.metrics import SlotRecord
from repro.utils.seeding import RngRegistry
from repro.workload import BurstyDemandModel, ConstantDemandModel


def build_setting(n_requests=6, seed=11):
    rngs = RngRegistry(seed=seed)
    network = MECNetwork.synthetic(8, 2, rngs)
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
    return rngs, network, requests


class TestRunSimulation:
    def test_horizon_respected(self):
        rngs, network, requests = build_setting()
        controller = GreedyController(network, requests, rngs.get("ctrl"))
        result = run_simulation(
            network, ConstantDemandModel(requests), controller, horizon=7
        )
        assert result.horizon == 7
        assert [r.slot for r in result.records] == list(range(7))

    def test_delays_positive_and_finite(self):
        rngs, network, requests = build_setting()
        controller = GreedyController(network, requests, rngs.get("ctrl"))
        result = run_simulation(
            network, ConstantDemandModel(requests), controller, horizon=5
        )
        assert np.all(result.delays_ms > 0)
        assert np.all(np.isfinite(result.delays_ms))

    def test_decision_time_measured(self):
        rngs, network, requests = build_setting()
        controller = OlGdController(network, requests, rngs.get("ctrl"))
        result = run_simulation(
            network, ConstantDemandModel(requests), controller, horizon=3
        )
        assert np.all(result.decision_seconds > 0)

    def test_compute_optimal_fills_records(self):
        rngs, network, requests = build_setting()
        controller = GreedyController(network, requests, rngs.get("ctrl"))
        result = run_simulation(
            network,
            ConstantDemandModel(requests),
            controller,
            horizon=4,
            compute_optimal=True,
        )
        tracker = result.regret_tracker()
        assert tracker.n_slots == 4
        # Achieved integer cost always >= the LP clairvoyant bound.
        assert np.all(tracker.per_slot_regret >= -1e-9)

    @pytest.mark.parametrize("exact", [False, True])
    def test_optimum_runs_after_observe(self, monkeypatch, exact):
        """Each slot runs the controller's own decide -> evaluate -> observe
        step first; the clairvoyant optimum follows it."""
        from repro.core.optimal import ClairvoyantOracle

        rngs, network, requests = build_setting()
        controller = OlGdController(network, requests, rngs.get("ctrl"))
        calls = []
        observe = controller.observe

        def logged_observe(slot, *args):
            calls.append(f"observe {slot}")
            return observe(slot, *args)

        cost = ClairvoyantOracle.cost

        def logged_optimum(self, *args):
            calls.append("optimal")
            return cost(self, *args)

        controller.observe = logged_observe
        monkeypatch.setattr(ClairvoyantOracle, "cost", logged_optimum)
        run_simulation(
            network, ConstantDemandModel(requests), controller, horizon=3,
            compute_optimal=True, exact_optimal=exact,
        )
        assert calls == [
            "observe 0", "optimal", "observe 1", "optimal", "observe 2", "optimal"
        ]

    def test_first_slot_cold_start_is_not_churn(self):
        rngs, network, requests = build_setting()
        controller = GreedyController(network, requests, rngs.get("ctrl"))
        result = run_simulation(
            network, ConstantDemandModel(requests), controller, horizon=2
        )
        first = result.records[0]
        # Standing up the initial cache is reported separately, not as churn.
        assert first.cache_churn == 0
        assert first.initial_instantiations == first.n_cached_instances
        assert result.initial_instantiations == first.n_cached_instances
        assert result.records[1].initial_instantiations == 0
        assert result.summary()["total_churn"] == int(result.cache_churn[1:].sum())
        assert (
            result.summary()["initial_instantiations"] == first.n_cached_instances
        )

    def test_telemetry_off_by_default_and_invariant(self):
        """Identical seed ==> bit-identical series with and without telemetry."""
        from repro import obs

        def run(metrics):
            rngs, network, requests = build_setting(seed=5)
            controller = OlGdController(network, requests, rngs.get("ctrl"))
            return run_simulation(
                network,
                ConstantDemandModel(requests),
                controller,
                horizon=6,
                metrics=metrics,
            )

        assert obs.active_registry() is None  # off by default
        plain = run(None)
        registry = obs.MetricsRegistry()
        traced = run(registry)
        assert obs.active_registry() is None  # deactivated on exit
        # Everything seed-determined is bit-identical; only wall-clock
        # timing fields may differ.
        np.testing.assert_array_equal(plain.delays_ms, traced.delays_ms)
        np.testing.assert_array_equal(plain.cache_churn, traced.cache_churn)
        np.testing.assert_array_equal(
            plain.max_load_fractions, traced.max_load_fractions
        )
        assert plain.initial_instantiations == traced.initial_instantiations
        # ...and the registry actually saw the run.
        assert registry.counter("sim.slots") == 6
        assert registry.counter("lp.solve.calls") == 6
        assert registry.histogram("sim.decide.seconds").count == 6

    def test_mismatched_request_counts_rejected(self):
        rngs, network, requests = build_setting()
        controller = GreedyController(network, requests, rngs.get("ctrl"))
        other_model = ConstantDemandModel(requests[:-1])
        with pytest.raises(ValueError, match="requests"):
            run_simulation(network, other_model, controller, horizon=2)

    def test_unknown_demands_records_prediction_error(self):
        from repro.core import OlRegController

        rngs, network, requests = build_setting()
        controller = OlRegController(network, requests, rngs.get("ctrl"))
        model = BurstyDemandModel(requests, rngs.get("demand"))
        result = run_simulation(
            network, model, controller, horizon=5, demands_known=False
        )
        maes = result.prediction_maes
        assert np.all(np.isfinite(maes))
        assert np.all(maes >= 0)

    def test_known_demands_have_no_prediction_error(self):
        rngs, network, requests = build_setting()
        controller = GreedyController(network, requests, rngs.get("ctrl"))
        result = run_simulation(
            network, ConstantDemandModel(requests), controller, horizon=3
        )
        assert np.all(np.isnan(result.prediction_maes))

    def test_reproducible_with_same_seed(self):
        def run(seed):
            rngs, network, requests = build_setting(seed=seed)
            controller = OlGdController(network, requests, rngs.get("ctrl"))
            return run_simulation(
                network, ConstantDemandModel(requests), controller, horizon=6
            ).delays_ms

        np.testing.assert_array_equal(run(3), run(3))
        assert not np.array_equal(run(3), run(4))


class TestSimulationResult:
    def _record(self, slot, delay=10.0):
        return SlotRecord(
            slot=slot,
            average_delay_ms=delay,
            decision_seconds=0.01,
            observe_seconds=0.002,
            cache_churn=1,
            n_cached_instances=2,
            max_load_fraction=0.5,
        )

    def test_append_enforces_order(self):
        result = SimulationResult("x")
        result.append(self._record(0))
        with pytest.raises(ValueError):
            result.append(self._record(2))

    def test_first_record_must_be_slot_zero(self):
        result = SimulationResult("x")
        with pytest.raises(ValueError):
            result.append(self._record(1))

    def test_mean_delay_with_warmup_skip(self):
        result = SimulationResult("x")
        for t, delay in enumerate([100.0, 10.0, 10.0, 10.0]):
            result.append(self._record(t, delay))
        assert result.mean_delay_ms() == pytest.approx(32.5)
        assert result.mean_delay_ms(skip_warmup=1) == pytest.approx(10.0)

    def test_mean_delay_empty_after_skip_raises(self):
        result = SimulationResult("x")
        result.append(self._record(0))
        with pytest.raises(ValueError):
            result.mean_delay_ms(skip_warmup=5)

    def test_summary_keys(self):
        result = SimulationResult("OL_GD")
        result.append(self._record(0))
        summary = result.summary()
        assert summary["controller"] == "OL_GD"
        assert summary["horizon"] == 1
        assert set(summary) >= {
            "mean_delay_ms",
            "mean_decision_s",
            "total_churn",
            "initial_instantiations",
            "peak_load_fraction",
        }

    def test_empty_result_aggregates_raise_consistently(self):
        """Every aggregate fails up front with the same clear error."""
        result = SimulationResult("empty-ctrl")
        for aggregate in (
            result.summary,
            result.mean_delay_ms,
            result.mean_decision_seconds,
        ):
            with pytest.raises(ValueError, match="empty SimulationResult"):
                aggregate()
        # The error names the controller so study-level failures identify
        # which run produced nothing.
        with pytest.raises(ValueError, match="empty-ctrl"):
            result.summary()
