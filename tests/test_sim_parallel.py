"""Tests for the repetition-grid executor (repro.sim.parallel)."""

import os
import tempfile

import numpy as np
import pytest

from repro.core import GreedyController, OlGdController, PriorityController
from repro.mec import DriftingDelay, MECNetwork
from repro.mec.requests import Request
from repro.sim import RunConfig, Sweep, execute_sweeps, resolve_n_jobs, run_repetitions
from repro.sim.parallel import repetition_registry
from repro.utils.seeding import RngRegistry
from repro.workload import ConstantDemandModel

# Metrics that are functions of the seed alone.  mean_decision_s is a
# wall-clock measurement and differs between *any* two runs, serial or not.
DETERMINISTIC_METRICS = ("mean_delay_ms", "total_churn")


def _world(rngs: RngRegistry, n_requests: int = 8):
    network = MECNetwork.synthetic(12, 2, rngs)
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
        for i in range(n_requests)
    ]
    mean_demand = float(np.mean([r.basic_demand_mb for r in requests]))
    network.c_unit_mhz = float(network.capacities_mhz.min() / (2.0 * mean_demand))
    return network, requests


def scenario(rngs: RngRegistry):
    """Two-controller scenario; module-level so it pickles to workers."""
    network, requests = _world(rngs)
    controllers = [
        OlGdController(network, requests, rngs.get("ol")),
        GreedyController(network, requests, rngs.get("gr")),
    ]
    return network, ConstantDemandModel(requests), controllers


class CrashingController(GreedyController):
    """Deliberately explodes mid-run (failure-reporting tests)."""

    def decide(self, slot, demands):
        if slot == 1:
            raise RuntimeError("injected crash")
        return super().decide(slot, demands)


CRASH_STUDY_SEED = 71
CRASH_REPETITION = 2


def crashing_scenario(rngs: RngRegistry):
    """One repetition's Greedy controller crashes; everything else runs."""
    network, requests = _world(rngs, n_requests=5)
    greedy_cls = GreedyController
    if rngs.seed == repetition_registry(CRASH_STUDY_SEED, CRASH_REPETITION).seed:
        greedy_cls = CrashingController
    controllers = [
        greedy_cls(network, requests, rngs.get("gr")),
        PriorityController(network, requests, rngs.get("pri")),
    ]
    return network, ConstantDemandModel(requests), controllers


def always_crashing_scenario(rngs: RngRegistry):
    raise ValueError("nothing to build")


class CountingScenario:
    """Picklable builder that leaves one marker file per world build."""

    def __init__(self, directory):
        self.directory = str(directory)

    def __call__(self, rngs: RngRegistry):
        fd, _ = tempfile.mkstemp(dir=self.directory)
        os.close(fd)
        return scenario(rngs)


class TestResolveNJobs:
    def test_literal_positive(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3

    def test_none_and_zero_mean_all_cores(self):
        cores = os.cpu_count() or 1
        assert resolve_n_jobs(None) == cores
        assert resolve_n_jobs(0) == cores

    def test_negative_counts_back_from_cores(self):
        cores = os.cpu_count() or 1
        assert resolve_n_jobs(-1) == cores
        assert resolve_n_jobs(-cores) == max(1, 1)
        assert resolve_n_jobs(-10 * cores) == 1  # floored at one worker


class TestBitIdentity:
    """Serial and parallel paths must agree bit-for-bit on seed-determined
    metrics — the engine's core guarantee (2 controllers × 4 repetitions)."""

    def test_parallel_matches_serial_summaries(self):
        serial = run_repetitions(scenario, seed=101, repetitions=4, horizon=6)
        parallel = run_repetitions(
            scenario, seed=101, repetitions=4, horizon=6,
            config=RunConfig(jobs=2),
        )
        assert set(serial.summaries) == set(parallel.summaries) == {
            "OL_GD",
            "Greedy_GD",
        }
        for controller in serial.summaries:
            for metric in DETERMINISTIC_METRICS:
                assert (
                    serial.summary(controller, metric).values
                    == parallel.summary(controller, metric).values
                ), (controller, metric)

    def test_parallel_matches_serial_raw_series(self):
        serial = run_repetitions(scenario, seed=103, repetitions=2, horizon=5)
        parallel = run_repetitions(
            scenario, seed=103, repetitions=2, horizon=5,
            config=RunConfig(jobs=2),
        )
        for controller in serial.raw:
            for rep_serial, rep_parallel in zip(
                serial.raw[controller], parallel.raw[controller], strict=True
            ):
                np.testing.assert_array_equal(
                    rep_serial.delays_ms, rep_parallel.delays_ms
                )
                np.testing.assert_array_equal(
                    rep_serial.cache_churn, rep_parallel.cache_churn
                )

    def test_worker_count_does_not_change_results(self):
        two = run_repetitions(
            scenario, seed=107, repetitions=3, horizon=4,
            config=RunConfig(jobs=2),
        )
        three = run_repetitions(
            scenario, seed=107, repetitions=3, horizon=4,
            config=RunConfig(jobs=3),
        )
        for controller in two.summaries:
            for metric in DETERMINISTIC_METRICS:
                assert (
                    two.summary(controller, metric).values
                    == three.summary(controller, metric).values
                )


class TestFailureReporting:
    """A crashed repetition is recorded and excluded, never fatal."""

    def test_serial_crash_reported_not_fatal(self):
        study = run_repetitions(
            crashing_scenario, seed=CRASH_STUDY_SEED, repetitions=4, horizon=4
        )
        assert study.n_failed == 1
        failure = study.failures[0]
        assert failure.repetition == CRASH_REPETITION
        assert "injected crash" in failure.error
        assert "RuntimeError" in failure.traceback
        # The crashed run is excluded; the partner controller keeps all 4.
        assert study.summary("Greedy_GD", "mean_delay_ms").n == 3
        assert study.summary("Pri_GD", "mean_delay_ms").n == 4
        assert study.completed_runs == 7

    def test_parallel_crash_reported_not_fatal(self):
        study = run_repetitions(
            crashing_scenario,
            seed=CRASH_STUDY_SEED,
            repetitions=4,
            horizon=4,
            config=RunConfig(jobs=2),
        )
        assert study.n_failed == 1
        assert study.failures[0].repetition == CRASH_REPETITION
        assert "injected crash" in study.failures[0].error
        assert study.summary("Greedy_GD", "mean_delay_ms").n == 3
        assert study.summary("Pri_GD", "mean_delay_ms").n == 4

    def test_all_failures_raise(self):
        with pytest.raises(RuntimeError, match="all .* runs failed"):
            run_repetitions(
                always_crashing_scenario, seed=1, repetitions=2, horizon=3
            )

    def test_str_names_the_work_item(self):
        study = run_repetitions(
            crashing_scenario, seed=CRASH_STUDY_SEED, repetitions=4, horizon=4
        )
        text = str(study.failures[0])
        assert f"rep{CRASH_REPETITION}" in text


class TestTimingAccounting:
    def test_study_records_execution_accounting(self):
        study = run_repetitions(
            scenario, seed=109, repetitions=2, horizon=4,
            config=RunConfig(jobs=2),
        )
        assert study.n_jobs == 2
        assert study.wall_clock_seconds > 0
        assert study.cpu_seconds > 0
        assert study.completed_runs == 4  # 2 reps x 2 controllers
        assert study.runs_per_second > 0
        assert 0 < study.parallel_efficiency
        table = study.timing_table()
        assert "workers" in table and "runs / second" in table

    def test_serial_accounting_defaults(self):
        study = run_repetitions(scenario, seed=109, repetitions=2, horizon=4)
        assert study.n_jobs == 1
        assert study.completed_runs == 4
        assert study.n_failed == 0


class TestTelemetryMerge:
    """Worker registries merge into a study aggregate that matches serial."""

    def test_metrics_off_by_default(self):
        study = run_repetitions(scenario, seed=127, repetitions=2, horizon=3)
        assert study.metrics is None
        assert study.worker_metrics == {}
        with pytest.raises(ValueError, match="collect_metrics"):
            study.metrics_table()

    def test_serial_study_collects_metrics(self):
        study = run_repetitions(
            scenario, seed=127, repetitions=2, horizon=3,
            config=RunConfig(collect_metrics=True),
        )
        assert study.metrics is not None
        # 2 reps x 2 controllers x 3 slots, every slot counted exactly once.
        assert study.metrics.counter("sim.slots") == 12
        # Only OL_GD solves LPs: 2 reps x 3 slots.
        assert study.metrics.counter("lp.solve.calls") == 6
        assert list(study.worker_metrics) == [os.getpid()]
        table = study.metrics_table()
        assert "aggregate" in table and "lp.solve" in table

    def test_parallel_aggregate_identical_to_serial(self):
        serial = run_repetitions(
            scenario, seed=131, repetitions=3, horizon=4,
            config=RunConfig(collect_metrics=True),
        )
        parallel = run_repetitions(
            scenario,
            seed=131,
            repetitions=3,
            horizon=4,
            config=RunConfig(jobs=2, collect_metrics=True),
        )
        # Deterministic telemetry (counters, histogram observation counts)
        # is identical in aggregate regardless of worker count; only the
        # timing values inside the histograms are wall-clock.
        assert serial.metrics.counters == parallel.metrics.counters
        serial_snapshot = serial.metrics.snapshot()["histograms"]
        parallel_snapshot = parallel.metrics.snapshot()["histograms"]
        assert set(serial_snapshot) == set(parallel_snapshot)
        for name in serial_snapshot:
            assert (
                serial_snapshot[name]["count"] == parallel_snapshot[name]["count"]
            ), name
        # Per-worker registries partition the aggregate.
        total = sum(
            registry.counter("sim.slots")
            for registry in parallel.worker_metrics.values()
        )
        assert total == parallel.metrics.counter("sim.slots")

    def test_work_items_carry_snapshots(self):
        [work] = execute_sweeps(
            [Sweep(scenario, seed=127, repetitions=1, horizon=3)],
            collect_metrics=True,
        )
        assert all(w.metrics is not None for w in work)
        assert all(w.pid == os.getpid() for w in work)

    def test_serial_run_inherits_parent_trace_writer(self, tmp_path):
        """Regression: per-item registries must reuse the parent's trace
        writer in-process, else `--trace` with --jobs 1 writes 0 events."""
        from repro import obs

        path = tmp_path / "study.jsonl"
        writer = obs.TraceWriter(path)
        registry = obs.MetricsRegistry(trace=writer)
        with obs.activate(registry):
            run_repetitions(scenario, seed=127, repetitions=1, horizon=3)
        writer.close()
        events = obs.read_trace(path)
        assert len(events) > 0
        assert {e["name"] for e in events} >= {"sim.decide", "lp.solve"}

    def test_active_parent_registry_receives_pool_results(self):
        from repro import obs

        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            run_repetitions(
                scenario, seed=127, repetitions=2, horizon=3,
                config=RunConfig(jobs=2),
            )
        assert registry.counter("sim.slots") == 12


class TestExecuteSweeps:
    def test_results_sorted_by_grid_position(self):
        [work] = execute_sweeps(
            [Sweep(scenario, seed=113, repetitions=3, horizon=3)], jobs=2
        )
        coords = [(w.repetition, w.controller_index) for w in work]
        assert coords == [(r, c) for r in range(3) for c in range(2)]

    def test_in_process_unit_runs_every_controller(self):
        [work] = execute_sweeps(
            [Sweep(scenario, seed=113, repetitions=1, horizon=3)]
        )
        assert [w.controller_name for w in work] == ["OL_GD", "Greedy_GD"]
        assert all(w.ok and w.result.horizon == 3 for w in work)
        assert all(w.wall_seconds > 0 for w in work)
        assert all(w.pid == os.getpid() for w in work)

    def test_failed_item_failure_conversion(self):
        for jobs in (1, 2):
            [work] = execute_sweeps(
                [Sweep(always_crashing_scenario, seed=1, repetitions=1, horizon=3)],
                jobs=jobs,
            )
            # The controller count is unknowable when the build crashes:
            # one failed item stands for the repetition.
            assert [(w.repetition, w.controller_index) for w in work] == [(0, 0)]
            failure = work[0].failure()
            assert "nothing to build" in failure.error
            assert "ValueError" in failure.traceback

    def test_build_crash_fails_every_known_controller(self):
        [work] = execute_sweeps(
            [
                Sweep(
                    always_crashing_scenario, seed=1, repetitions=2,
                    horizon=3, n_controllers=2,
                )
            ],
            jobs=2,
        )
        assert [(w.repetition, w.controller_index) for w in work] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        assert not any(w.ok for w in work)

    def test_ok_item_has_no_failure(self):
        [work] = execute_sweeps(
            [Sweep(scenario, seed=113, repetitions=1, horizon=3)]
        )
        with pytest.raises(ValueError):
            work[0].failure()

    def test_sweeps_complete_through_the_callback(self):
        done = []
        results = execute_sweeps(
            [
                Sweep(scenario, seed=113, repetitions=1, horizon=3),
                Sweep(scenario, seed=114, repetitions=2, horizon=3),
            ],
            jobs=2,
            on_complete=lambda index, work: done.append((index, len(work))),
        )
        assert sorted(done) == [(0, 2), (1, 4)]
        assert [len(work) for work in results] == [2, 4]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_world_build_per_repetition(self, tmp_path, jobs):
        # No probe build and no per-controller rebuilds: building a world
        # can be expensive (a predictive world pretrains the GAN).
        study = run_repetitions(
            CountingScenario(tmp_path), seed=113, repetitions=3, horizon=2,
            config=RunConfig(jobs=jobs),
        )
        assert study.completed_runs == 6
        assert len(list(tmp_path.iterdir())) == 3
