"""Tests for repetition studies and paired controller comparison."""

import numpy as np
import pytest

from repro import obs
from repro.core import GreedyController, OlGdController
from repro.mec import DriftingDelay, MECNetwork
from repro.mec.requests import Request
from repro.sim import (
    FailureSchedule,
    RunConfig,
    compare_controllers,
    run_repetitions,
)
from repro.sim.multirun import MetricSummary, RepetitionStudy, _summarise
from repro.sim.parallel import repetition_registry
from repro.utils.seeding import RngRegistry
from repro.workload import ConstantDemandModel


def scenario(rngs: RngRegistry):
    network = MECNetwork.synthetic(15, 2, rngs)
    network.delays = DriftingDelay(
        network.stations, rngs.get("drift"), drift_ms=1.0
    )
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(2)),
            basic_demand_mb=float(rng.uniform(1.0, 2.0)),
        )
        for i in range(10)
    ]
    mean_demand = float(np.mean([r.basic_demand_mb for r in requests]))
    network.c_unit_mhz = float(network.capacities_mhz.min() / (2.0 * mean_demand))
    controllers = [
        OlGdController(network, requests, rngs.get("ol")),
        GreedyController(network, requests, rngs.get("gr")),
    ]
    return network, ConstantDemandModel(requests), controllers


class TestSummarise:
    def test_single_value(self):
        s = _summarise("m", [5.0], 0.95)
        assert s.mean == 5.0 and s.std == 0.0
        assert s.ci_low == s.ci_high == 5.0

    def test_ci_contains_mean(self):
        s = _summarise("m", [1.0, 2.0, 3.0, 4.0], 0.95)
        assert s.ci_low < s.mean < s.ci_high
        assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_higher_confidence_wider_interval(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = _summarise("m", values, 0.80)
        wide = _summarise("m", values, 0.99)
        assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)

    def test_pinned_t_interval(self):
        """The half-width is t(0.975, df=4) * s / sqrt(n) on 1..5."""
        s = _summarise("m", [1.0, 2.0, 3.0, 4.0, 5.0], 0.95)
        half_width = 2.7764451051977934 * np.sqrt(2.5) / np.sqrt(5.0)
        assert s.ci_high - s.mean == pytest.approx(half_width, rel=1e-12)
        assert s.mean - s.ci_low == pytest.approx(half_width, rel=1e-12)

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_rejects_closed_endpoints(self, confidence):
        """Regression: confidence=1.0 passed require_probability and then
        t.ppf(1.0) = inf produced infinite CIs."""
        with pytest.raises(ValueError, match="strictly between"):
            _summarise("m", [1.0, 2.0, 3.0], confidence)


class TestRunRepetitions:
    def test_study_structure(self):
        study = run_repetitions(scenario, seed=41, repetitions=2, horizon=10)
        assert study.repetitions == 2
        assert set(study.summaries) == {"OL_GD", "Greedy_GD"}
        summary = study.summary("OL_GD", "mean_delay_ms")
        assert summary.n == 2
        assert all(np.isfinite(v) for v in summary.values)

    def test_unknown_keys_raise(self):
        study = run_repetitions(scenario, seed=41, repetitions=1, horizon=6)
        with pytest.raises(KeyError, match="controller"):
            study.summary("Nope", "mean_delay_ms")
        with pytest.raises(KeyError, match="metric"):
            study.summary("OL_GD", "nope")

    def test_table_renders(self):
        study = run_repetitions(scenario, seed=41, repetitions=2, horizon=8)
        text = study.table()
        assert "OL_GD" in text and "Greedy_GD" in text
        assert "95% CI" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            run_repetitions(scenario, seed=1, repetitions=0, horizon=5)
        with pytest.raises(ValueError):
            run_repetitions(scenario, seed=1, repetitions=1, horizon=5, skip_warmup=9)
        with pytest.raises(ValueError, match="strictly between"):
            run_repetitions(scenario, seed=1, repetitions=1, horizon=5, confidence=1.0)

    def test_execution_accounting_present(self):
        study = run_repetitions(scenario, seed=41, repetitions=2, horizon=6)
        assert study.n_jobs == 1
        assert study.completed_runs == 4  # 2 reps x 2 controllers
        assert study.failures == []
        assert study.wall_clock_seconds > 0

    def test_reproducible(self):
        a = run_repetitions(scenario, seed=43, repetitions=1, horizon=8)
        b = run_repetitions(scenario, seed=43, repetitions=1, horizon=8)
        assert (
            a.summary("OL_GD", "mean_delay_ms").values
            == b.summary("OL_GD", "mean_delay_ms").values
        )


class TestCompareControllers:
    def test_paired_comparison_fields(self):
        study = run_repetitions(scenario, seed=47, repetitions=3, horizon=12)
        comparison = compare_controllers(study, "OL_GD", "Greedy_GD")
        assert comparison.wins_a + comparison.wins_b + comparison.ties == 3
        assert 0.0 <= comparison.sign_test_p <= 1.0
        # mean difference consistent with the summaries.
        a = np.mean(study.summary("OL_GD", "mean_delay_ms").values)
        b = np.mean(study.summary("Greedy_GD", "mean_delay_ms").values)
        assert comparison.mean_difference == pytest.approx(b - a)

    def test_pinned_sign_test_p_value(self):
        """7 wins, 2 losses, 1 tie: the tie is dropped and the two-sided
        exact binomial p-value is 2 * (1 + 9 + 36) / 2**9."""
        a = [1.0] * 10
        b = [2.0] * 7 + [0.5] * 2 + [1.0]
        study = RepetitionStudy(
            horizon=1,
            repetitions=10,
            summaries={
                "A": {"mean_delay_ms": _summarise("mean_delay_ms", a, 0.95)},
                "B": {"mean_delay_ms": _summarise("mean_delay_ms", b, 0.95)},
            },
            raw={},
        )
        comparison = compare_controllers(study, "A", "B")
        assert (comparison.wins_a, comparison.wins_b, comparison.ties) == (7, 2, 1)
        assert comparison.sign_test_p == pytest.approx(92 / 512, rel=1e-12)

    def test_identical_controller_ties(self):
        study = run_repetitions(scenario, seed=47, repetitions=2, horizon=8)
        comparison = compare_controllers(study, "OL_GD", "OL_GD")
        assert comparison.ties == 2
        assert comparison.sign_test_p == 1.0
        assert not comparison.a_wins_majority


# --------------------------------------------------------------------- #
# Regression scenarios: per-controller crashes on *different* repetitions
# --------------------------------------------------------------------- #

PAIRING_SEED = 53
CRASH_REP_OLGD = 1   # OL_GD (controller 0) crashes on this repetition
CRASH_REP_GREEDY = 2  # Greedy_GD (controller 1) crashes on this one


class _CrashingOlGd(OlGdController):
    def decide(self, slot, demands):
        raise RuntimeError("injected OL_GD crash")


class _CrashingGreedy(GreedyController):
    def decide(self, slot, demands):
        raise RuntimeError("injected Greedy crash")


def disjoint_crash_scenario(rngs: RngRegistry):
    """OL_GD fails on repetition 1, Greedy_GD on repetition 2.

    Both controllers end up with the same *number* of completed
    repetitions, so the old positional pairing zipped them up without
    complaint — silently comparing different worlds.
    """
    network, model, controllers = scenario(rngs)
    ol_cls, greedy_cls = OlGdController, GreedyController
    if rngs.seed == repetition_registry(PAIRING_SEED, CRASH_REP_OLGD).seed:
        ol_cls = _CrashingOlGd
    if rngs.seed == repetition_registry(PAIRING_SEED, CRASH_REP_GREEDY).seed:
        greedy_cls = _CrashingGreedy
    requests = model.requests
    return network, model, [
        ol_cls(network, requests, rngs.get("ol2")),
        greedy_cls(network, requests, rngs.get("gr2")),
    ]


class TestRepetitionKeyedPairing:
    """compare_controllers must pair by repetition index, not position."""

    def test_disjoint_failures_pair_on_intersection(self):
        study = run_repetitions(
            disjoint_crash_scenario, seed=PAIRING_SEED, repetitions=4, horizon=6
        )
        # Both sides lost exactly one (different) repetition.
        a = study.summary("OL_GD", "mean_delay_ms")
        b = study.summary("Greedy_GD", "mean_delay_ms")
        assert len(a.values) == len(b.values) == 3  # old code zipped these
        assert a.repetitions == (0, 2, 3)
        assert b.repetitions == (0, 1, 3)

        comparison = compare_controllers(study, "OL_GD", "Greedy_GD")
        assert comparison.paired_repetitions == (0, 3)
        assert comparison.dropped_repetitions == (
            CRASH_REP_OLGD,
            CRASH_REP_GREEDY,
        )
        assert comparison.n_pairs == 2
        assert comparison.wins_a + comparison.wins_b + comparison.ties == 2
        # The paired mean difference uses only the common repetitions.
        a_by_rep = a.by_repetition()
        b_by_rep = b.by_repetition()
        expected = np.mean([b_by_rep[r] - a_by_rep[r] for r in (0, 3)])
        assert comparison.mean_difference == pytest.approx(expected)

    def test_no_common_repetitions_raises(self):
        study = run_repetitions(
            disjoint_crash_scenario, seed=PAIRING_SEED, repetitions=4, horizon=6
        )
        # Synthetically restrict both controllers to disjoint repetitions.
        study.summaries["OL_GD"]["mean_delay_ms"] = _summarise(
            "mean_delay_ms", [1.0], 0.95, repetitions=[0]
        )
        study.summaries["Greedy_GD"]["mean_delay_ms"] = _summarise(
            "mean_delay_ms", [2.0], 0.95, repetitions=[1]
        )
        with pytest.raises(ValueError, match="no completed repetitions"):
            compare_controllers(study, "OL_GD", "Greedy_GD")

    def test_metric_summary_repetition_defaults(self):
        summary = _summarise("m", [1.0, 2.0, 3.0], 0.95)
        assert summary.repetitions == (0, 1, 2)
        with pytest.raises(ValueError, match="repetition keys"):
            MetricSummary(
                name="m", values=(1.0, 2.0), mean=1.5, std=0.5,
                ci_low=1.0, ci_high=2.0, repetitions=(0,),
            )


class TestCollectMetricsTriState:
    """An explicit collect_metrics=False stays off under an active registry."""

    def test_false_stays_off_under_active_registry(self):
        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            study = run_repetitions(
                scenario, seed=41, repetitions=1, horizon=4,
                config=RunConfig(collect_metrics=False),
            )
        assert study.metrics is None
        assert study.worker_metrics == {}
        with pytest.raises(ValueError, match="telemetry"):
            study.metrics_table()

    def test_default_auto_enables_under_active_registry(self):
        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            study = run_repetitions(scenario, seed=41, repetitions=1, horizon=4)
        assert study.metrics is not None
        assert study.worker_metrics != {}

    def test_default_stays_off_without_registry(self):
        study = run_repetitions(scenario, seed=41, repetitions=1, horizon=4)
        assert study.metrics is None


class TestSkipWarmupDefaultClamp:
    """The default warm-up skip must leave >=1 measured slot at any horizon."""

    def test_horizon_one_runs(self):
        study = run_repetitions(scenario, seed=41, repetitions=1, horizon=1)
        summary = study.summary("OL_GD", "mean_delay_ms")
        assert summary.n == 1 and np.isfinite(summary.values[0])

    def test_horizon_two_skips_one(self):
        # min(horizon - 1, max(horizon // 4, 1)) == 1: slot 0 is warm-up.
        study = run_repetitions(scenario, seed=41, repetitions=1, horizon=2)
        raw = study.raw["OL_GD"][0]
        assert study.summary("OL_GD", "mean_delay_ms").values[0] == (
            pytest.approx(raw.mean_delay_ms(skip_warmup=1))
        )

    def test_longer_horizons_unchanged(self):
        # For horizon >= 2 the clamp never binds: same default as before.
        for horizon in (2, 4, 8, 12):
            assert min(horizon - 1, max(horizon // 4, 1)) == (
                max(horizon // 4, 1)
            )


class TestFailuresThreading:
    """A FailureSchedule passed to run_repetitions reaches every run."""

    def test_outage_changes_metrics(self):
        base = run_repetitions(scenario, seed=41, repetitions=2, horizon=6)
        outage = FailureSchedule().add_outage(0, start=1, duration=4)
        hit = run_repetitions(
            scenario, seed=41, repetitions=2, horizon=6, failures=outage
        )
        assert set(base.summaries) == set(hit.summaries)
        assert (
            base.summary("OL_GD", "mean_delay_ms").values
            != hit.summary("OL_GD", "mean_delay_ms").values
        )

    def test_outage_deterministic_across_jobs(self):
        outage = FailureSchedule().add_outage(0, start=1, duration=4)
        serial = run_repetitions(
            scenario, seed=41, repetitions=2, horizon=6, failures=outage
        )
        pooled = run_repetitions(
            scenario, seed=41, repetitions=2, horizon=6, failures=outage,
            config=RunConfig(jobs=2),
        )
        for name in serial.summaries:
            assert (
                serial.summary(name, "mean_delay_ms").values
                == pooled.summary(name, "mean_delay_ms").values
            )
