"""Checkpoint/resume bit-identity across the whole controller registry.

The acceptance bar of the subsystem: interrupt any registered controller
mid-horizon, resume from the snapshot over a same-seeded world, and the
full metric series must equal the uninterrupted run's — delays, churn,
cache sizes, load fractions and regret inputs exactly, timing columns in
length (wall-clock is re-measured).  Plus: resumable sweeps and bounded
crash retries in the repetition executor (:mod:`repro.sim.parallel`).
"""

import functools
import os

import numpy as np
import pytest

from repro import obs
from repro.core import controller_names, make_controller
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.sim import CheckpointError, RunConfig, run_repetitions, run_simulation
from repro.core.optimal import clairvoyant_cost
from repro.state import (
    SIMULATION_KIND,
    SweepManifest,
    load_checkpoint,
    result_path,
    save_checkpoint,
)
from repro.utils.seeding import RngRegistry
from repro.workload import BurstyDemandModel, ConstantDemandModel

HORIZON = 8
CUT = 4  # default interruption point (= snapshot cadence)

#: Tiny configurations so the full registry — including the GAN — runs in
#: test time.  Keys missing here construct with library defaults.
CONTROLLER_OPTIONS = {
    "OL_GAN": {"n_hotspots": 2, "window": 3, "hidden_size": 4},
}

#: The §V predictive algorithms forecast internally; the engine must pass
#: demands=None to them (they raise otherwise).
PREDICTIVE = {"OL_GAN", "OL_Reg"}

#: The controllers whose LP starts from the previous slot's basis.
HOT_STARTED = ("OL_GD", "OL_Reg", "OL_GAN")

#: Runs that also compute the clairvoyant optimum, whose LP starts from
#: the previous slot's basis too (held by the run loop, not the controller).
WITH_OPTIMUM = ("OL_GD", "Greedy_GD")


def build_world(seed, name, n_stations=8, n_requests=6):
    """Fresh same-seeded world + controller (slot-keyed, so rebuildable)."""
    rngs = RngRegistry(seed=seed)
    network = MECNetwork.synthetic(n_stations, 2, rngs)
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
    model = BurstyDemandModel(requests, rngs.get("demand"))
    controller = make_controller(
        name, network, requests, rngs.get("ctrl"),
        **CONTROLLER_OPTIONS.get(name, {})
    )
    return network, model, controller


def build_lp_world(name):
    """A world whose LP is degenerate enough that a cold solve lands on a
    different x than a hot-started one: a resume that loses the LP basis
    changes the x series at almost every cut."""
    return build_world(11, name, n_stations=16, n_requests=24)


def record_lp_solutions(controller):
    """Collect the LP x-matrix of every ``decide`` call, in order."""
    learner = getattr(controller, "inner", controller)
    solutions = []
    decide = controller.decide

    def recorded(slot, demands):
        assignment = decide(slot, demands)
        solutions.append(learner.last_fractional.copy())
        return assignment

    controller.decide = recorded
    return solutions


def every_cut(names):
    """``(name, cut)`` for each controller and each slot boundary; the
    case at :data:`CUT` keeps the bare controller name as its id."""
    return [
        pytest.param(name, cut, id=name if cut == CUT else f"{name}-cut{cut}")
        for name in names
        for cut in range(1, HORIZON)
    ]


@functools.lru_cache(maxsize=None)
def uninterrupted_run(name):
    network, model, controller = build_world(11, name)
    return run_simulation(
        network, model, controller, horizon=HORIZON,
        demands_known=name not in PREDICTIVE,
    )


@functools.lru_cache(maxsize=None)
def uninterrupted_lp_run(name):
    network, model, controller = build_lp_world(name)
    solutions = record_lp_solutions(controller)
    result = run_simulation(
        network, model, controller, horizon=HORIZON,
        demands_known=name not in PREDICTIVE,
    )
    return result, solutions


@functools.lru_cache(maxsize=None)
def uninterrupted_optimum_run(name):
    network, model, controller = build_lp_world(name)
    return run_simulation(
        network, model, controller, horizon=HORIZON, compute_optimal=True
    )


def optimum_series(result):
    return np.array([r.optimal_delay_ms for r in result.records])


class TestResumeBitIdentity:
    @pytest.mark.parametrize("name, cut", every_cut(controller_names()))
    def test_resume_equals_uninterrupted_run(self, name, cut, tmp_path):
        known = name not in PREDICTIVE
        full = uninterrupted_run(name)

        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=cut, resume=True)
        network, model, controller = build_world(11, name)
        partial = run_simulation(
            network, model, controller, horizon=cut,
            demands_known=known, config=config,
        )
        assert config.to_checkpoint_config().path_for(controller.name).exists()
        np.testing.assert_array_equal(partial.delays_ms, full.delays_ms[:cut])

        network, model, controller = build_world(11, name)
        resumed = run_simulation(
            network, model, controller, horizon=HORIZON,
            demands_known=known, config=config,
        )

        assert resumed.horizon == full.horizon == HORIZON
        np.testing.assert_array_equal(resumed.delays_ms, full.delays_ms)
        np.testing.assert_array_equal(resumed.cache_churn, full.cache_churn)
        np.testing.assert_array_equal(
            resumed.max_load_fractions, full.max_load_fractions
        )
        np.testing.assert_array_equal(
            resumed.prediction_maes, full.prediction_maes
        )
        assert [r.n_cached_instances for r in resumed.records] == [
            r.n_cached_instances for r in full.records
        ]
        assert resumed.initial_instantiations == full.initial_instantiations
        # Wall-clock columns are re-measured on resume: length only.
        assert resumed.decision_seconds.shape == full.decision_seconds.shape

    @pytest.mark.parametrize("cut", range(1, HORIZON))
    @pytest.mark.parametrize("name", HOT_STARTED)
    def test_resume_at_every_slot_keeps_the_lp_hot_start(self, name, cut, tmp_path):
        """A kill at any slot boundary: the resumed run solves the same LPs
        from the same bases, so every x and every metric matches."""
        known = name not in PREDICTIVE
        full, full_solutions = uninterrupted_lp_run(name)
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=cut, resume=True)
        network, model, controller = build_lp_world(name)
        run_simulation(
            network, model, controller, horizon=cut,
            demands_known=known, config=config,
        )

        network, model, controller = build_lp_world(name)
        solutions = record_lp_solutions(controller)
        resumed = run_simulation(
            network, model, controller, horizon=HORIZON,
            demands_known=known, config=config,
        )

        assert len(solutions) == HORIZON - cut
        for slot, (x, expected) in enumerate(
            zip(solutions, full_solutions[cut:], strict=True), start=cut
        ):
            np.testing.assert_array_equal(x, expected, err_msg=f"slot {slot}")
        np.testing.assert_array_equal(resumed.delays_ms, full.delays_ms)
        np.testing.assert_array_equal(resumed.cache_churn, full.cache_churn)
        np.testing.assert_array_equal(
            resumed.max_load_fractions, full.max_load_fractions
        )

    @pytest.mark.parametrize("cut", range(1, HORIZON))
    @pytest.mark.parametrize("name", WITH_OPTIMUM)
    def test_resume_at_every_slot_keeps_the_oracle_hot_start(
        self, name, cut, tmp_path
    ):
        """The snapshot carries the oracle's basis: the resumed run solves
        the same clairvoyant LPs from the same bases, bit for bit."""
        full = uninterrupted_optimum_run(name)
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=cut, resume=True)
        network, model, controller = build_lp_world(name)
        run_simulation(
            network, model, controller, horizon=cut,
            compute_optimal=True, config=config,
        )
        network, model, controller = build_lp_world(name)
        resumed = run_simulation(
            network, model, controller, horizon=HORIZON,
            compute_optimal=True, config=config,
        )
        np.testing.assert_array_equal(optimum_series(resumed), optimum_series(full))
        np.testing.assert_array_equal(resumed.delays_ms, full.delays_ms)

    def test_oracle_hot_start_is_not_the_cold_solve(self):
        """Guards the test above: the hot-started optima match the cold
        solve to rounding but not bit for bit, so a resume that restarted
        the oracle cold could show in the series."""
        network, model, controller = build_lp_world("Greedy_GD")
        cold = np.array([
            clairvoyant_cost(
                network, controller.requests, model.demand_at(t),
                network.delays.sample(t),
            )
            for t in range(HORIZON)
        ])
        hot = optimum_series(uninterrupted_optimum_run("Greedy_GD"))
        np.testing.assert_allclose(hot, cold, rtol=1e-12, atol=0)
        assert np.any(hot != cold)

    def test_snapshot_without_oracle_entry_rejected(self, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT, resume=True)
        network, model, controller = build_world(11, "OL_GD")
        run_simulation(network, model, controller, horizon=CUT, config=config)
        snapshot = config.to_checkpoint_config().path_for("OL_GD")
        state, meta = load_checkpoint(snapshot, kind=SIMULATION_KIND)
        del state["oracle"]
        save_checkpoint(snapshot, state, kind=SIMULATION_KIND, meta=meta)
        network, model, controller = build_world(11, "OL_GD")
        with pytest.raises(CheckpointError, match="'oracle'"):
            run_simulation(
                network, model, controller, horizon=HORIZON, config=config
            )

    @pytest.mark.parametrize("written_with", [False, True])
    def test_snapshot_of_other_optimum_setting_rejected(self, written_with, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT, resume=True)
        network, model, controller = build_world(11, "OL_GD")
        run_simulation(
            network, model, controller, horizon=CUT,
            compute_optimal=written_with, config=config,
        )
        network, model, controller = build_world(11, "OL_GD")
        with pytest.raises(CheckpointError, match="compute_optimal"):
            run_simulation(
                network, model, controller, horizon=HORIZON,
                compute_optimal=not written_with, config=config,
            )

    def test_wrong_controller_snapshot_rejected(self, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT, resume=True)
        network, model, controller = build_world(11, "OL_GD")
        run_simulation(network, model, controller, horizon=CUT, config=config)
        snapshot = config.to_checkpoint_config().path_for("OL_GD")
        snapshot.rename(config.to_checkpoint_config().path_for("Greedy_GD"))
        network, model, controller = build_world(11, "Greedy_GD")
        with pytest.raises(CheckpointError, match="OL_GD"):
            run_simulation(
                network, model, controller, horizon=HORIZON, config=config
            )

    def test_foreign_world_rejected(self, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT, resume=True)
        network, model, controller = build_world(11, "OL_GD")
        run_simulation(network, model, controller, horizon=CUT, config=config)
        network, model, controller = build_world(12, "OL_GD")  # different seed
        with pytest.raises(ValueError):
            run_simulation(
                network, model, controller, horizon=HORIZON, config=config
            )

    def test_resume_needs_longer_horizon(self, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT, resume=True)
        network, model, controller = build_world(11, "Greedy_GD")
        run_simulation(network, model, controller, horizon=CUT, config=config)
        network, model, controller = build_world(11, "Greedy_GD")
        with pytest.raises(CheckpointError, match="already covers"):
            run_simulation(
                network, model, controller, horizon=CUT, config=config
            )

    def test_without_resume_existing_snapshot_ignored(self, tmp_path):
        write = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=CUT)
        network, model, controller = build_world(11, "Greedy_GD")
        run_simulation(network, model, controller, horizon=CUT, config=write)
        network, model, controller = build_world(11, "Greedy_GD")
        fresh = run_simulation(
            network, model, controller, horizon=HORIZON, config=write
        )
        assert fresh.records[0].slot == 0 and fresh.horizon == HORIZON

    def test_save_and_load_are_counted(self, tmp_path):
        config = RunConfig(checkpoint_dir=tmp_path, checkpoint_every=2, resume=True)
        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            network, model, controller = build_world(11, "Greedy_GD")
            run_simulation(
                network, model, controller, horizon=CUT, config=config
            )
            network, model, controller = build_world(11, "Greedy_GD")
            run_simulation(
                network, model, controller, horizon=HORIZON, config=config
            )
        assert registry.counter("state.load") == 1
        assert registry.counter("state.save") == 4  # slots 2,4 then 6,8


# --------------------------------------------------------------------- #
# Sweep resume + crash retries (module-level builders: picklable)
# --------------------------------------------------------------------- #


def sweep_build(rngs):
    network = MECNetwork.synthetic(8, 2, rngs)
    rng = rngs.get("requests")
    requests = [
        Request(
            index=i,
            service_index=int(rng.integers(2)),
            basic_demand_mb=float(rng.uniform(1.0, 2.0)),
        )
        for i in range(5)
    ]
    return network, ConstantDemandModel(requests), [
        make_controller("OL_GD", network, requests, rngs.get("ol")),
        make_controller("Greedy_GD", network, requests, rngs.get("gr")),
    ]


class CrashOnce:
    """A builder that raises exactly once (sentinel file marks the shot)."""

    def __init__(self, sentinel):
        self.sentinel = str(sentinel)

    def __call__(self, rngs):
        world = sweep_build(rngs)
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("tripped")
            raise RuntimeError("injected one-shot crash")
        return world


class DieOnce:
    """A builder that kills its worker process exactly once (hard crash)."""

    def __init__(self, sentinel):
        self.sentinel = str(sentinel)

    def __call__(self, rngs):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("tripped")
            os._exit(1)  # no traceback: the pool sees a dead worker
        return sweep_build(rngs)


DETERMINISTIC = ("mean_delay_ms", "total_churn")


def assert_same_summaries(a, b):
    assert set(a.summaries) == set(b.summaries)
    for name in a.summaries:
        for metric in DETERMINISTIC:
            assert a.summary(name, metric).values == b.summary(name, metric).values


class TestSweepResume:
    def test_interrupted_sweep_completes_missing_items_only(self, tmp_path):
        base = run_repetitions(sweep_build, seed=7, repetitions=3, horizon=6)
        sweep_dir = tmp_path / "sweep"
        run_repetitions(
            sweep_build, seed=7, repetitions=3, horizon=6,
            config=RunConfig(checkpoint_dir=sweep_dir),
        )
        # Simulate the interruption: two items never completed.
        result_path(sweep_dir, 1, 0).unlink()
        result_path(sweep_dir, 2, 1).unlink()
        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            resumed = run_repetitions(
                sweep_build, seed=7, repetitions=3, horizon=6,
                config=RunConfig(
                    checkpoint_dir=sweep_dir, resume=True, collect_metrics=False
                ),
            )
        assert_same_summaries(base, resumed)
        # Only the 2 missing items were executed: 2 items x 6 slots.
        assert registry.counter("sim.slots") == 12
        assert registry.counter("state.load") == 4
        manifest = SweepManifest.read(sweep_dir)
        assert manifest.controllers == ("OL_GD", "Greedy_GD")

    def test_resume_refuses_foreign_sweep(self, tmp_path):
        run_repetitions(
            sweep_build, seed=7, repetitions=2, horizon=6,
            config=RunConfig(checkpoint_dir=tmp_path),
        )
        with pytest.raises(CheckpointError, match="different sweep"):
            run_repetitions(
                sweep_build, seed=8, repetitions=2, horizon=6,
                config=RunConfig(checkpoint_dir=tmp_path, resume=True),
            )

    def test_serial_one_shot_crash_retried(self, tmp_path):
        base = run_repetitions(sweep_build, seed=7, repetitions=3, horizon=6)
        registry = obs.MetricsRegistry()
        with obs.activate(registry):
            retried = run_repetitions(
                CrashOnce(tmp_path / "shot"), seed=7, repetitions=3, horizon=6,
                config=RunConfig(retries=1, collect_metrics=False),
            )
        assert retried.n_failed == 0
        assert_same_summaries(base, retried)
        assert registry.counter("sim.retries") == 1

    def test_without_retries_crash_stays_a_failure(self, tmp_path):
        study = run_repetitions(
            CrashOnce(tmp_path / "shot"), seed=7, repetitions=3, horizon=6
        )
        assert study.n_failed == 1
        assert "injected one-shot crash" in study.failures[0].error

    def test_pool_hard_worker_death_retried_matches_serial(self, tmp_path):
        base = run_repetitions(sweep_build, seed=7, repetitions=2, horizon=4)
        retried = run_repetitions(
            DieOnce(tmp_path / "shot"), seed=7, repetitions=2, horizon=4,
            n_controllers=2, config=RunConfig(jobs=2, retries=2),
        )
        assert retried.n_failed == 0
        assert_same_summaries(base, retried)

    def test_slot_checkpoints_cleaned_after_completion(self, tmp_path):
        run_repetitions(
            sweep_build, seed=7, repetitions=1, horizon=6,
            config=RunConfig(checkpoint_dir=tmp_path, checkpoint_every=2),
        )
        assert list((tmp_path / "slots").rglob("*.npz")) == []

    def test_checkpoint_every_requires_directory(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_repetitions(
                sweep_build, seed=7, repetitions=1, horizon=6,
                config=RunConfig(checkpoint_every=2),
            )
