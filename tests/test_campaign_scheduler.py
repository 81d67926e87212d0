"""Campaign execution through the one repetition-grid executor.

The acceptance properties pinned here:

- a campaign drained by a pool produces byte-identical ``summary.json``
  files to the in-process run (including over the shipped
  ``examples/campaigns/smoke.toml`` grid);
- kill/resume at *every* boundary — each cell boundary and each item
  boundary inside a cell — stitches back to the uninterrupted tree byte
  for byte, at one and two workers;
- the per-worker world cache is keyed by builder and seed, never filled
  in the parent, so sweeps with equal cell ids but different seeds stay
  independent;
- a hard-crashing work item fails only its own cell: the campaign
  completes and the failure is recorded on the right cell's summary;
- ``retries`` re-runs crashed items on the persistent pool (a retry
  that succeeds leaves no failure behind);
- nested parallelism is clamped: ``resolve_n_jobs`` inside a pool worker
  resolves to 1 with a warning;
- the executor surfaces its telemetry (units dispatched, world-cache
  hits/misses, cells completed) on the active obs registry.
"""

import dataclasses
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.campaigns import (
    CampaignSpec,
    FactorAxis,
    ScenarioSpec,
    cell_directory,
    load_campaign_toml,
    run_campaign,
)
from repro.campaigns.runner import read_cell_summary
from repro.campaigns.scenario import CampaignScenario
from repro.core.greedy import GreedyController
from repro.core.registry import CONTROLLERS, register_controller
from repro.sim import RunConfig, Sweep, execute_sweeps, parallel
from repro.sim.parallel import _POOL_WORKER_ENV, resolve_n_jobs

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "campaigns"

# Same deliberately tiny world as test_campaigns.py: two cells, two
# repetitions, two controllers -> an 8-item grid.
TINY = dict(
    controllers=("OL_GD", "Greedy_GD"),
    horizon=3,
    n_stations=10,
    n_services=2,
    n_requests=6,
    n_hotspots=3,
)


def tiny_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="tiny",
        seed=11,
        repetitions=2,
        scenario=ScenarioSpec(**TINY),
        factors=(FactorAxis("n_stations", (10, 12)),),
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


def run(spec, out_dir, jobs=1, max_cells=None, **config):
    return run_campaign(
        spec, out_dir, config=RunConfig(jobs=jobs, **config), max_cells=max_cells
    )


def summary_bytes(out_dir: Path, spec: CampaignSpec) -> dict:
    return {
        cell.cell_id: (
            cell_directory(out_dir, cell.cell_id) / "summary.json"
        ).read_bytes()
        for cell in spec.expand()
    }


class CrashyController(GreedyController):
    """Fails hard on every decide in the 12-station cells only."""

    name = "Crashy"

    def decide(self, slot, demands):
        if self.network.n_stations == 12:
            raise RuntimeError("crashy controller says no")
        return super().decide(slot, demands)


class FlakyController(GreedyController):
    """Fails until its flag file exists; creates the flag on first crash."""

    name = "Flaky"

    def __init__(self, network, requests, rng, *, flag: str):
        super().__init__(network, requests, rng)
        self._flag = Path(flag)

    def decide(self, slot, demands):
        if not self._flag.exists():
            self._flag.touch()
            raise RuntimeError("flaky controller not warmed up yet")
        return super().decide(slot, demands)


@pytest.fixture
def crashy_registered():
    register_controller("Crashy", CrashyController)
    try:
        yield
    finally:
        CONTROLLERS._factories.pop("Crashy", None)


@pytest.fixture
def flaky_registered():
    register_controller("Flaky", FlakyController)
    try:
        yield
    finally:
        CONTROLLERS._factories.pop("Flaky", None)


class TestBitEquality:
    def test_smoke_example_equals_serial_bytes(self, tmp_path):
        # The shipped CI smoke grid, scaled to one repetition for speed.
        spec = dataclasses.replace(
            load_campaign_toml(EXAMPLES / "smoke.toml"), repetitions=1
        )
        run(spec, tmp_path / "serial", jobs=1)
        run(spec, tmp_path / "pooled", jobs=2)
        assert summary_bytes(tmp_path / "serial", spec) == summary_bytes(
            tmp_path / "pooled", spec
        )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The smoke campaign and its uninterrupted in-process result tree."""
    spec = load_campaign_toml(EXAMPLES / "smoke.toml")
    out = tmp_path_factory.mktemp("smoke") / "uncut"
    assert run(spec, out).complete
    return spec, out


class TestResume:
    def test_kill_and_resume_whole_cells(self, tmp_path):
        spec = tiny_spec()
        killed = run(spec, tmp_path / "camp", jobs=2, max_cells=1)
        assert len(killed.executed) == 1 and len(killed.remaining) == 1
        assert not killed.complete

        resumed = run(spec, tmp_path / "camp", jobs=2, resume=True)
        assert resumed.executed == killed.remaining
        assert resumed.skipped == killed.executed
        assert resumed.complete

        fresh = run(spec, tmp_path / "fresh", jobs=2)
        assert fresh.complete
        assert summary_bytes(tmp_path / "camp", spec) == summary_bytes(
            tmp_path / "fresh", spec
        )

    def test_partial_cell_resumes_missing_items_only(self, tmp_path):
        spec = tiny_spec()
        run(spec, tmp_path / "camp", jobs=2)
        # Simulate a kill mid-cell: drop one cell's summary plus one of
        # its persisted items; resume must re-enter through the sweep
        # manifest and re-run exactly the missing item.
        victim = cell_directory(tmp_path / "camp", spec.expand()[0].cell_id)
        (victim / "summary.json").unlink()
        snapshots = sorted(victim.glob("rep*-ctrl*.npz"))
        snapshots[0].unlink()

        resumed = run(spec, tmp_path / "camp", jobs=2, resume=True)
        assert resumed.complete
        assert resumed.executed == (spec.expand()[0].cell_id,)

        fresh = run(spec, tmp_path / "fresh", jobs=2)
        assert summary_bytes(tmp_path / "camp", spec) == summary_bytes(
            tmp_path / "fresh", spec
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("max_cells", [0, 1, 2, 3, 4])
    def test_resume_at_every_cell_boundary(self, smoke, tmp_path, max_cells, jobs):
        spec, uncut = smoke
        killed = run(spec, tmp_path / "camp", jobs=jobs, max_cells=max_cells)
        assert len(killed.executed) == max_cells
        resumed = run(spec, tmp_path / "camp", jobs=jobs, resume=True)
        assert resumed.complete
        assert len(resumed.executed) == len(spec.expand()) - max_cells
        assert summary_bytes(tmp_path / "camp", spec) == summary_bytes(
            uncut, spec
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kept", [0, 1, 2, 3, 4])
    def test_resume_at_every_item_boundary(self, smoke, tmp_path, kept, jobs):
        spec, uncut = smoke
        camp = tmp_path / "camp"
        shutil.copytree(uncut, camp)
        victim = cell_directory(camp, spec.expand()[0].cell_id)
        items = sorted(victim.glob("rep*-ctrl*.npz"))
        assert len(items) == 4  # 2 repetitions x 2 controllers
        for item in items[kept:]:
            item.unlink()
        (victim / "summary.json").unlink()

        resumed = run(spec, camp, jobs=jobs, resume=True)
        assert resumed.executed == (spec.expand()[0].cell_id,)
        assert len(list(victim.glob("rep*-ctrl*.npz"))) == 4
        assert summary_bytes(camp, spec) == summary_bytes(uncut, spec)


class TestWorldCacheIsolation:
    def test_equal_cell_ids_with_different_seeds(self, tmp_path):
        a, b = tiny_spec(seed=11), tiny_spec(seed=12)
        assert [c.cell_id for c in a.expand()] == [c.cell_id for c in b.expand()]
        standalone = {}
        for name, spec in (("a", a), ("b", b)):
            run(spec, tmp_path / f"{name}-alone")
            standalone[name] = summary_bytes(tmp_path / f"{name}-alone", spec)
        assert standalone["a"] != standalone["b"]
        # Back to back in one process: in-process first, then pooled.
        for jobs in (1, 2):
            for name, spec in (("a", a), ("b", b)):
                out = tmp_path / f"{name}-j{jobs}"
                run(spec, out, jobs=jobs)
                assert summary_bytes(out, spec) == standalone[name], (name, jobs)
        assert not parallel._WORLD_CACHE  # the parent never fills it

    def test_one_pool_keeps_same_named_sweeps_apart(self):
        cell = tiny_spec().expand()[0]
        sweeps = [
            Sweep(CampaignScenario(cell.scenario), seed, 2, cell.scenario.horizon)
            for seed in (11, 12, 11)
        ]
        alone = [execute_sweeps([sweep])[0] for sweep in sweeps]
        together = execute_sweeps(sweeps, jobs=2)
        for solo, mixed in zip(alone, together, strict=True):
            assert [w.result.delays_ms.tolist() for w in solo] == [
                w.result.delays_ms.tolist() for w in mixed
            ]
        assert alone[0][0].result.delays_ms.tolist() != (
            alone[1][0].result.delays_ms.tolist()
        )
        assert not parallel._WORLD_CACHE


class TestFailureHandling:
    def test_crash_recorded_on_the_right_cell(self, tmp_path, crashy_registered):
        spec = tiny_spec(
            scenario=ScenarioSpec(
                **{**TINY, "controllers": ("Greedy_GD", "Crashy")}
            )
        )
        crashy_index = 1
        result = run(spec, tmp_path / "camp", jobs=2)
        # The campaign completes: the crash fails its own items, nothing
        # else, and every cell still gets a summary.
        assert result.complete
        assert set(result.executed) == {c.cell_id for c in spec.expand()}
        healthy = read_cell_summary(
            cell_directory(tmp_path / "camp", "n_stations=10")
        )
        broken = read_cell_summary(
            cell_directory(tmp_path / "camp", "n_stations=12")
        )
        assert healthy["n_failed"] == 0 and healthy["failed_items"] == []
        assert broken["n_failed"] == spec.repetitions
        assert broken["failed_items"] == [
            [repetition, crashy_index]
            for repetition in range(spec.repetitions)
        ]
        # The sibling controller of the crashed unit still succeeded.
        assert "Greedy_GD" in broken["summaries"]
        assert "Crashy" not in broken["summaries"]

    def test_retry_round_recovers_flaky_items(self, tmp_path, flaky_registered):
        flag = tmp_path / "warmed-up"
        spec = tiny_spec(
            repetitions=1,
            scenario=ScenarioSpec(
                **{
                    **TINY,
                    "controllers": ("Greedy_GD", "Flaky"),
                    "controller_options": {"Flaky": {"flag": str(flag)}},
                }
            ),
        )
        result = run(spec, tmp_path / "camp", jobs=2, retries=1)
        assert result.complete
        for cell in spec.expand():
            summary = read_cell_summary(
                cell_directory(tmp_path / "camp", cell.cell_id)
            )
            assert summary["n_failed"] == 0, cell.cell_id
            assert "Flaky" in summary["summaries"]


class TestNestedParallelism:
    def test_resolve_n_jobs_clamped_inside_pool_worker(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv(_POOL_WORKER_ENV, "1")
        with caplog.at_level(logging.WARNING, logger="repro.sim.parallel"):
            assert resolve_n_jobs(4) == 1
        assert "clamping to 1" in caplog.text

    def test_resolve_n_jobs_unclamped_outside_workers(self, monkeypatch):
        monkeypatch.delenv(_POOL_WORKER_ENV, raising=False)
        assert resolve_n_jobs(4) == 4


class TestTelemetry:
    def test_scheduler_counters_on_active_registry(self, tmp_path):
        registry = obs.MetricsRegistry()
        spec = tiny_spec()
        with obs.activate(registry):
            run(spec, tmp_path / "camp", jobs=2)
        counters = registry.counters
        # 2 cells x 2 repetitions, dispatched as (cell, repetition) units.
        assert counters["campaign.units_dispatched"] == 4
        assert counters["campaign.cells_completed"] == 2
        assert (
            counters.get("campaign.world_cache_hits", 0)
            + counters.get("campaign.world_cache_misses", 0)
        ) == 4
        assert registry.gauges["campaign.cells_in_flight"] == 0
        # Work-item telemetry streamed back from the workers still merges
        # into the parent registry (decision spans prove the merge ran).
        assert any(name.startswith("sim.") for name in counters)


def test_unit_grouping_is_invisible_in_results(tmp_path):
    """One worker vs many: any unit interleaving yields the same bytes."""
    spec = tiny_spec()
    one = run(spec, tmp_path / "one", jobs=1)
    many = run(spec, tmp_path / "many", jobs=4)
    assert one.complete and many.complete
    assert summary_bytes(tmp_path / "one", spec) == summary_bytes(
        tmp_path / "many", spec
    )


def test_failed_items_never_persist_snapshots(tmp_path, crashy_registered):
    spec = tiny_spec(
        scenario=ScenarioSpec(
            **{**TINY, "controllers": ("Greedy_GD", "Crashy")}
        )
    )
    run(spec, tmp_path / "camp", jobs=2)
    broken = cell_directory(tmp_path / "camp", "n_stations=12")
    # Only Greedy_GD's items (controller index 0) reached the tree.
    names = sorted(p.name for p in broken.glob("rep*-ctrl*.npz"))
    assert names == ["rep00000-ctrl000.npz", "rep00001-ctrl000.npz"]


def test_numpy_state_unaffected_by_scheduler(tmp_path):
    """The executor must not touch the global numpy RNG."""
    np.random.seed(123)  # repro: allow[DET002] -- the global RNG is the test subject
    before = np.random.get_state()[1].copy()  # repro: allow[DET002] -- inspecting, not drawing
    run(tiny_spec(), tmp_path / "camp", jobs=2)
    after = np.random.get_state()[1]  # repro: allow[DET002] -- inspecting, not drawing
    assert (before == after).all()
