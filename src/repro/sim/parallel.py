"""The one executor for repetition grids.

Every figure in the paper averages one setting over many independently
seeded topologies (§VI).  A :class:`Sweep` is one such study, and
:func:`execute_sweeps` is the only code that runs one: ``run_repetitions``,
the figure code and ``run_campaign`` all hand it their sweeps.  It drains
them as ``(sweep, repetition)`` units — the world is built once and every
missing controller runs on it — longest expected cost first.

* **Determinism.**  Repetition ``r`` builds its world from
  :func:`repetition_registry`; delay/demand realisations are slot-keyed
  and every controller reads its own named stream.  So results are
  bit-identical for any worker count and any grouping of items.
* **One pool.**  ``jobs > 1`` submits every unit to one persistent pool,
  so an idle worker takes the next unit whichever sweep it belongs to.
  ``jobs == 1`` runs the same units in the same order in-process, with
  no pickling, and items inherit the parent's trace writer.
* **World cache.**  Each pool worker keeps a small LRU of worlds keyed by
  the sweep's builder and seed, reused only for controllers that have
  not run on it (controllers are stateful).  The parent never fills it:
  forked workers would inherit it.
* **Failures.**  Errors are captured per item as failed results.
  ``retries`` re-runs failed items on the same pool, replacing it if a
  worker died; with ``retries=0`` pool errors propagate.
* **Persistence.**  A sweep with a ``directory`` writes a manifest and
  each completed item as it lands; ``resume`` loads them back after an
  identity check.  ``checkpoint_every`` adds slot-level snapshots under
  ``<directory>/slots/``, deleted once their item completes.

Builders must be picklable for ``jobs > 1``.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import pickle
import sys
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import obs
from repro.core.controller import Controller
from repro.mec.network import MECNetwork
from repro.sim.config import RunConfig
from repro.sim.engine import run_simulation
from repro.sim.failures import FailureSchedule
from repro.sim.metrics import SimulationResult
from repro.state import (
    WORK_RESULT_KIND,
    SweepManifest,
    completed_items,
    finalise_controllers,
    load_checkpoint,
    result_path,
    save_checkpoint,
)
from repro.utils.seeding import RngRegistry
from repro.utils.validation import require_non_negative, require_positive
from repro.workload.demand import DemandModel

__all__ = [
    "ScenarioBuilder",
    "World",
    "Sweep",
    "WorkItem",
    "WorkResult",
    "RepetitionFailure",
    "execute_sweeps",
    "resolve_n_jobs",
    "repetition_registry",
    "build_world",
    "run_item_on_world",
    "persist_work_result",
    "load_work_result",
    "make_worker_pool",
]

logger = logging.getLogger(__name__)

# A scenario builder returns the world for one repetition.
ScenarioBuilder = Callable[
    [RngRegistry], Tuple[MECNetwork, DemandModel, List[Controller]]
]

#: One repetition's fully built scenario: network, demand model and the
#: controller line-up (indexable by ``WorkItem.controller_index``).
World = Tuple[MECNetwork, DemandModel, List[Controller]]

#: Environment marker set (via :func:`_mark_pool_worker`) in every process
#: a repro-owned pool spawns.  :func:`resolve_n_jobs` reads it to refuse
#: nested parallelism: code running inside a worker that forwards its own
#: ``jobs`` would otherwise multiply processes and oversubscribe the
#: machine.
_POOL_WORKER_ENV = "REPRO_POOL_WORKER"


def _mark_pool_worker() -> None:
    """Pool initializer: brand this process as a repro pool worker."""
    os.environ[_POOL_WORKER_ENV] = "1"


def make_worker_pool(n_workers: int) -> ProcessPoolExecutor:
    """A fork-preferring process pool whose workers carry the nested-
    parallelism marker (see :func:`resolve_n_jobs`)."""
    require_positive("n_workers", n_workers)
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=_preferred_context(),
        initializer=_mark_pool_worker,
    )


def repetition_registry(seed: int, repetition: int) -> RngRegistry:
    """The canonical per-repetition registry: ``child(f"rep{r}")``.

    Every world is derived through this single helper, which is what makes
    results independent of where and in which grouping items run.
    """
    return RngRegistry(seed=seed).child(f"rep{repetition}")


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise a worker-count request to a concrete worker count.

    ``None`` or ``0`` means "all cores"; negative values count back from
    the core count joblib-style (``-1`` == all cores, ``-2`` == all but
    one); positive values are taken literally.

    Inside a repro pool worker (marked by :func:`make_worker_pool`'s
    initializer) any multi-worker request is clamped to ``1`` with a
    warning: the process is already one of N workers, and spawning its
    own pool would oversubscribe the machine by the product of the two
    worker counts.
    """
    cores = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        resolved = cores
    else:
        n_jobs = int(n_jobs)
        resolved = max(1, cores + 1 + n_jobs) if n_jobs < 0 else n_jobs
    if resolved > 1 and os.environ.get(_POOL_WORKER_ENV):
        logger.warning(
            "n_jobs=%r requested inside a pool worker; clamping to 1 "
            "(nested parallelism would oversubscribe the machine)",
            n_jobs,
        )
        return 1
    return resolved


@dataclass(frozen=True)
class Sweep:
    """One repetition study: ``repetitions`` seeded worlds of ``build``,
    every controller of each run for ``horizon`` slots.

    ``failures`` applies one scripted outage schedule inside every item
    (it is part of the scenario); ``directory`` enables persistence and
    resume.  ``n_controllers``, when known, sizes the grid without a
    build: a resumed repetition whose items are all on disk is skipped,
    and a build crash is reported once per controller.  When unknown, a
    build crash is reported as one failed item.  ``weight`` is a per-slot
    cost proxy (e.g. the request count); it only orders the queue.
    """

    build: ScenarioBuilder
    seed: int
    repetitions: int
    horizon: int
    demands_known: bool = True
    failures: Optional[FailureSchedule] = None
    directory: Optional[Union[str, Path]] = None
    n_controllers: Optional[int] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        require_positive("repetitions", self.repetitions)
        require_positive("horizon", self.horizon)
        if self.n_controllers is not None:
            require_positive("n_controllers", self.n_controllers)
        if self.directory is not None:
            object.__setattr__(self, "directory", Path(self.directory))


@dataclass(frozen=True)
class WorkItem:
    """One cell of the repetition × controller grid."""

    repetition: int
    controller_index: int


@dataclass(frozen=True)
class RepetitionFailure:
    """A crashed work item: recorded, logged, excluded from summaries."""

    repetition: int
    controller_index: int
    controller_name: Optional[str]  # None when build() itself crashed
    error: str
    traceback: str

    def __str__(self) -> str:
        who = self.controller_name or f"controller#{self.controller_index}"
        return f"rep{self.repetition}/{who}: {self.error}"


@dataclass(frozen=True)
class WorkResult:
    """Outcome of one work item, successful or not, with timing.

    ``metrics`` is a :meth:`repro.obs.MetricsRegistry.snapshot` dict of the
    telemetry the item recorded (None when collection was off) and ``pid``
    the process that executed it — the parent groups snapshots by ``pid``
    for the per-worker breakdown.
    """

    repetition: int
    controller_index: int
    controller_name: Optional[str]
    result: Optional[SimulationResult]
    error: Optional[str]
    error_traceback: Optional[str]
    wall_seconds: float
    cpu_seconds: float
    metrics: Optional[dict] = None
    pid: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def failure(self) -> RepetitionFailure:
        if self.ok:
            raise ValueError("work item succeeded; no failure to report")
        return RepetitionFailure(
            repetition=self.repetition,
            controller_index=self.controller_index,
            controller_name=self.controller_name,
            error=self.error,
            traceback=self.error_traceback or "",
        )


def _failed(
    repetition: int,
    controller_index: int,
    name: Optional[str] = None,
    pid: int = 0,
) -> WorkResult:
    """The failed :class:`WorkResult` of the exception being handled.

    The single exception-to-result conversion: item crashes, build
    crashes and pool errors all go through it.
    """
    exc = sys.exc_info()[1]
    return WorkResult(
        repetition=repetition,
        controller_index=controller_index,
        controller_name=name,
        result=None,
        error=f"{type(exc).__name__}: {exc}",
        error_traceback=traceback.format_exc(),
        wall_seconds=0.0,
        cpu_seconds=0.0,
        pid=pid,
    )


def build_world(build: ScenarioBuilder, seed: int, repetition: int) -> World:
    """Build one repetition's world from its canonical registry."""
    return build(repetition_registry(seed, repetition))


def run_item_on_world(
    world: World,
    item: WorkItem,
    horizon: int,
    *,
    demands_known: bool = True,
    collect_metrics: bool = False,
    config: Optional[RunConfig] = None,
    failures: Optional[FailureSchedule] = None,
    trace: Optional["obs.TraceWriter"] = None,
) -> WorkResult:
    """Run one controller of an already-built world; never raises.

    Exceptions become a failed :class:`WorkResult`.  With
    ``collect_metrics`` the item records into a fresh
    :class:`repro.obs.MetricsRegistry` whose snapshot (a picklable dict)
    rides back on the result; ``trace`` threads a parent trace writer
    into it (in-process only: writers do not pickle).  ``config`` enables
    slot-level snapshots, deleted once the item completes.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    name: Optional[str] = None
    registry = obs.MetricsRegistry(trace=trace) if collect_metrics else None
    try:
        network, demand_model, controllers = world
        controller = controllers[item.controller_index]
        name = controller.name
        result = run_simulation(
            network,
            demand_model,
            controller,
            horizon=horizon,
            demands_known=demands_known,
            metrics=registry,
            config=config,
            failures=failures,
        )
        checkpoint = config.to_checkpoint_config() if config else None
        if checkpoint is not None:
            checkpoint.path_for(controller.name).unlink(missing_ok=True)
    except Exception:  # noqa: BLE001 — graceful degradation by design
        outcome = _failed(
            item.repetition, item.controller_index, name, os.getpid()
        )
    else:
        outcome = WorkResult(
            repetition=item.repetition,
            controller_index=item.controller_index,
            controller_name=name,
            result=result,
            error=None,
            error_traceback=None,
            wall_seconds=0.0,
            cpu_seconds=0.0,
            pid=os.getpid(),
        )
    return replace(
        outcome,
        wall_seconds=time.perf_counter() - wall_start,
        cpu_seconds=time.process_time() - cpu_start,
        metrics=registry.snapshot() if registry is not None else None,
    )


def persist_work_result(directory: Path, item: WorkResult) -> None:
    """Write one completed work item's snapshot into the sweep directory."""
    if item.result is None:
        return
    path = result_path(directory, item.repetition, item.controller_index)
    with obs.span("state.save"):
        save_checkpoint(
            path,
            {
                "controller_name": item.controller_name,
                "result": item.result.state_dict(),
                "wall_seconds": item.wall_seconds,
                "cpu_seconds": item.cpu_seconds,
            },
            kind=WORK_RESULT_KIND,
            meta={
                "repetition": item.repetition,
                "controller_index": item.controller_index,
            },
        )
    obs.inc("state.save")


def load_work_result(
    directory: Path, repetition: int, controller_index: int
) -> WorkResult:
    """Rebuild a persisted work item as a completed :class:`WorkResult`.

    Telemetry snapshots are not persisted (they describe the original
    process), so resumed items carry ``metrics=None``.
    """
    path = result_path(directory, repetition, controller_index)
    with obs.span("state.load"):
        state, _meta = load_checkpoint(path, kind=WORK_RESULT_KIND)
    obs.inc("state.load")
    name = state.get("controller_name")
    return WorkResult(
        repetition=repetition,
        controller_index=controller_index,
        controller_name=str(name) if name is not None else None,
        result=SimulationResult.from_state(state["result"]),
        error=None,
        error_traceback=None,
        wall_seconds=float(state["wall_seconds"]),
        cpu_seconds=float(state["cpu_seconds"]),
        metrics=None,
        pid=0,
    )


# --------------------------------------------------------------------- #
# Units: what one worker (or the parent, at jobs=1) executes
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Unit:
    """The missing items of one ``(sweep, repetition)``.

    Self-contained and picklable: a worker needs nothing else to build
    the world and run every controller index not in ``skip``.
    """

    sweep_index: int
    sweep: Sweep
    repetition: int
    skip: FrozenSet[int]
    collect_metrics: bool
    checkpoint_every: Optional[int]
    #: World-cache key (builder + seed digest); ``None`` in-process.
    world_key: Optional[str] = None

    def indices(self, world: World) -> List[int]:
        return [i for i in range(len(world[2])) if i not in self.skip]

    def expected_items(self) -> int:
        """Items this unit runs, as far as is known before the build."""
        if self.sweep.n_controllers is None:
            return 1
        return self.sweep.n_controllers - len(self.skip)


def _unit_items(
    unit: _Unit, world: World, trace: Optional["obs.TraceWriter"] = None
) -> Iterator[WorkResult]:
    """Run every queued controller of ``unit`` on ``world``, lazily."""
    sweep = unit.sweep
    for index in unit.indices(world):
        item = WorkItem(repetition=unit.repetition, controller_index=index)
        yield run_item_on_world(
            world,
            item,
            sweep.horizon,
            demands_known=sweep.demands_known,
            collect_metrics=unit.collect_metrics,
            config=_item_config(sweep.directory, item, unit.checkpoint_every),
            failures=sweep.failures,
            trace=trace,
        )


def _unit_failures(unit: _Unit, pid: int = 0) -> Tuple[WorkResult, ...]:
    """Every item of ``unit``, failed with the exception being handled.

    Without a known controller count the line-up is unknowable once the
    build crashed, so the unit reports its first missing item only.
    """
    n_controllers = unit.sweep.n_controllers
    if n_controllers is None:
        first = min(set(range(len(unit.skip) + 1)) - unit.skip)
        return (_failed(unit.repetition, first, pid=pid),)
    return tuple(
        _failed(unit.repetition, index, pid=pid)
        for index in range(n_controllers)
        if index not in unit.skip
    )


def _item_config(
    directory: Optional[Path], item: WorkItem, every: Optional[int]
) -> Optional[RunConfig]:
    """Per-item slot-level snapshots, or ``None`` when off.

    One directory per item, so same-named controllers of different
    repetitions never collide; ``resume`` is always on, so a retried or
    restarted item continues from its last snapshot.
    """
    if directory is None or every is None:
        return None
    return RunConfig(
        checkpoint_dir=directory
        / "slots"
        / f"rep{item.repetition:05d}-ctrl{item.controller_index:03d}",
        checkpoint_every=every,
        resume=True,
    )


@dataclass(frozen=True)
class _Outcome:
    """What a pool worker sends back for one unit."""

    results: Tuple[WorkResult, ...]
    #: True when the worker served the world from its cache.
    cache_hit: bool


#: Worlds kept per worker process.  Small on purpose: a world holds the
#: full topology, requests and controller line-up, and units of one sweep
#: arrive together, so capacity beyond a few sweeps buys nothing.
_WORLD_CACHE_CAPACITY = 4


@dataclass
class _CachedWorld:
    """One cached build plus the controller indices already run on it."""

    repetition: int
    world: World
    used: Set[int]


_WORLD_CACHE: "OrderedDict[str, _CachedWorld]" = OrderedDict()


def _cached_world(unit: _Unit) -> Tuple[World, bool]:
    """The unit's world, from this worker's cache when reusable.

    A cached build is only reusable for controller indices that have not
    run on it yet: controllers are stateful, and re-running one on a
    world it already consumed would continue from mutated state instead
    of reproducing a fresh run (the retry path hits exactly this).
    """
    key = unit.world_key
    entry = _WORLD_CACHE.get(key)
    if entry is not None and entry.repetition == unit.repetition:
        indices = unit.indices(entry.world)
        if not entry.used.intersection(indices):
            entry.used.update(indices)
            # _WORLD_CACHE is *designed* as per-worker state: each pool
            # process keeps its own LRU of world builds, and outcomes are
            # pure functions of the unit, so divergence between workers'
            # caches cannot change results.
            # repro: allow[MP002] -- intentional per-worker world-build LRU
            _WORLD_CACHE.move_to_end(key)
            return entry.world, True
    sweep = unit.sweep
    world = build_world(sweep.build, sweep.seed, unit.repetition)
    # repro: allow[MP002] -- intentional per-worker world cache, see above
    _WORLD_CACHE[key] = _CachedWorld(
        unit.repetition, world, set(unit.indices(world))
    )
    # repro: allow[MP002] -- intentional per-worker world cache, see above
    _WORLD_CACHE.move_to_end(key)
    while len(_WORLD_CACHE) > _WORLD_CACHE_CAPACITY:
        # repro: allow[MP002] -- intentional per-worker world cache, see above
        _WORLD_CACHE.popitem(last=False)
    return world, False


def _pool_unit(unit: _Unit) -> _Outcome:
    """Pool entry point: run one unit on a single world build; never raises.

    A build crash fails every item of the unit; item-level errors are
    captured per item, so one bad controller cannot take its siblings down.
    """
    try:
        world, cache_hit = _cached_world(unit)
    except Exception:  # noqa: BLE001 — reported per item, never fatal
        return _Outcome(_unit_failures(unit, os.getpid()), cache_hit=False)
    return _Outcome(tuple(_unit_items(unit, world)), cache_hit)


def _in_process(
    unit: _Unit, trace: Optional["obs.TraceWriter"]
) -> Iterator[WorkResult]:
    """Run one unit in the calling process, yielding items as they finish.

    Builds a fresh world (the parent never touches the world cache) and
    threads the parent's trace writer into every item.
    """
    try:
        world = build_world(unit.sweep.build, unit.sweep.seed, unit.repetition)
    except Exception:  # noqa: BLE001 — reported per item, never fatal
        return iter(_unit_failures(unit, os.getpid()))
    return _unit_items(unit, world, trace)


def _world_key(sweep: Sweep) -> str:
    """Cache identity of a sweep's worlds: its builder and seed by value.

    A digest of the pickled pair, so two sweeps share cached worlds only
    when they would build identical ones (equal cell ids with different
    seeds or builders never collide).
    """
    payload = pickle.dumps((sweep.build, sweep.seed))
    return hashlib.sha256(payload).hexdigest()


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


@dataclass
class _Plan:
    """Parent-side execution state of one sweep."""

    index: int
    sweep: Sweep
    manifest: Optional[SweepManifest] = None
    #: World-cache key of the sweep (pool runs only).
    world_key: Optional[str] = None
    #: (repetition, controller_index) -> latest result; starts with the
    #: items loaded back on resume and grows as units land.
    results: Dict[Tuple[int, int], WorkResult] = field(default_factory=dict)
    #: Units submitted and not yet returned.
    pending: int = 0
    finished: bool = False

    def sorted_results(self) -> List[WorkResult]:
        return [self.results[key] for key in sorted(self.results)]

    def units(
        self, retry: bool, collect_metrics: bool, checkpoint_every: Optional[int]
    ) -> List[_Unit]:
        """This sweep's units, repetition-major.

        First round: every repetition not already complete on disk.
        Retry round: every repetition holding a failed item, skipping the
        items that succeeded.
        """
        by_repetition: Dict[int, Dict[int, WorkResult]] = {}
        for (repetition, index), result in self.results.items():
            by_repetition.setdefault(repetition, {})[index] = result
        n_controllers = self.sweep.n_controllers
        units = []
        for repetition in range(self.sweep.repetitions):
            items = by_repetition.get(repetition, {})
            ok = frozenset(i for i, result in items.items() if result.ok)
            if retry:
                if len(ok) == len(items):
                    continue
            elif n_controllers is not None and len(ok) >= n_controllers:
                continue
            units.append(
                _Unit(
                    sweep_index=self.index,
                    sweep=self.sweep,
                    repetition=repetition,
                    skip=ok,
                    collect_metrics=collect_metrics,
                    checkpoint_every=checkpoint_every,
                    world_key=self.world_key,
                )
            )
        return units


def _open_plan(index: int, sweep: Sweep, resume: bool) -> _Plan:
    """Write the sweep's manifest and, on resume, load its persisted items."""
    plan = _Plan(index=index, sweep=sweep)
    directory = sweep.directory
    if directory is None:
        return plan
    plan.manifest = SweepManifest(
        seed=int(sweep.seed),
        repetitions=int(sweep.repetitions),
        horizon=int(sweep.horizon),
        demands_known=bool(sweep.demands_known),
    )
    if resume and SweepManifest.exists(directory):
        previous = SweepManifest.read(directory)
        previous.require_compatible(plan.manifest)
        if sweep.n_controllers is None and previous.controllers is not None:
            plan.sweep = replace(sweep, n_controllers=len(previous.controllers))
        for (r, c), _path in sorted(completed_items(directory).items()):
            if r < sweep.repetitions:
                plan.results[(r, c)] = load_work_result(directory, r, c)
    plan.manifest.write(directory)
    return plan


def _ordered_units(
    plans: Sequence[_Plan],
    retry: bool,
    collect_metrics: bool,
    checkpoint_every: Optional[int],
) -> List[_Unit]:
    """All units of the unfinished plans, longest expected cost first."""
    queued = []
    for plan in plans:
        if plan.finished:
            continue
        units = plan.units(retry, collect_metrics, checkpoint_every)
        items = sum(unit.expected_items() for unit in units)
        cost = float(items * plan.sweep.horizon * plan.sweep.weight)
        queued.append((-cost, plan.index, units))
    queued.sort(key=lambda entry: entry[:2])
    return [unit for _, _, units in queued for unit in units]


def execute_sweeps(
    sweeps: Sequence[Sweep],
    *,
    jobs: int = 1,
    retries: int = 0,
    collect_metrics: Optional[bool] = None,
    checkpoint_every: Optional[int] = None,
    resume: bool = False,
    on_complete: Optional[Callable[[int, List[WorkResult]], None]] = None,
) -> List[List[WorkResult]]:
    """Drain ``sweeps`` (see the module docstring); one result list each.

    ``jobs`` is a concrete worker count (see :func:`resolve_n_jobs`).
    Each returned list holds one :class:`WorkResult` per item, sorted by
    ``(repetition, controller_index)`` whatever the completion order.

    ``collect_metrics`` is a tri-state: ``True`` attaches a per-item
    telemetry snapshot to every result, ``False`` keeps collection off,
    and ``None`` turns it on when a registry is active in the calling
    process.  Item snapshots are merged into that active registry as they
    land, so parent-side telemetry is the same at any worker count.

    ``on_complete(index, results)`` is called once per sweep, as soon as
    its grid is complete and clean, or after the last retry round for a
    sweep that kept failures.  ``checkpoint_every`` requires every sweep
    to have a directory.
    """
    require_positive("jobs", jobs)
    require_non_negative("retries", retries)
    if checkpoint_every is not None:
        require_positive("checkpoint_every", checkpoint_every)
        if any(sweep.directory is None for sweep in sweeps):
            raise ValueError("checkpoint_every requires checkpoint_dir")
    parent_registry = obs.active_registry()
    if collect_metrics is None:
        collect_metrics = parent_registry is not None
    trace = parent_registry.trace if parent_registry is not None else None
    plans = [_open_plan(i, sweep, resume) for i, sweep in enumerate(sweeps)]
    if jobs > 1:
        for plan in plans:
            plan.world_key = _world_key(plan.sweep)

    def complete(plan: _Plan) -> None:
        results = plan.sorted_results()
        if plan.manifest is not None and plan.sweep.directory is not None:
            # Record controller names, trusted only from completed items.
            names = {r.controller_index: r.controller_name for r in results if r.ok}
            finalise_controllers(plan.sweep.directory, plan.manifest, names)
        plan.finished = True
        if on_complete is not None:
            on_complete(plan.index, results)

    def land(plan: _Plan, item: WorkResult) -> None:
        if plan.sweep.directory is not None and item.ok:
            persist_work_result(plan.sweep.directory, item)
        if parent_registry is not None and item.metrics is not None:
            parent_registry.merge(obs.MetricsRegistry.from_snapshot(item.metrics))
        plan.results[(item.repetition, item.controller_index)] = item

    def unit_done(plan: _Plan) -> None:
        plan.pending -= 1
        obs.gauge(
            "campaign.cells_in_flight", sum(1 for p in plans if p.pending > 0)
        )
        # A clean sweep completes the moment its last unit lands; one
        # carrying failures waits for the retry rounds to amend it.
        if plan.pending == 0 and all(r.ok for r in plan.results.values()):
            complete(plan)

    pool: Optional[ProcessPoolExecutor] = None
    pool_ok = True
    last_sweep_by_pid: Dict[int, int] = {}
    try:
        for round_index in range(retries + 1):
            retry = round_index > 0
            units = _ordered_units(plans, retry, collect_metrics, checkpoint_every)
            if not units:
                break
            if retry:
                obs.inc(
                    "sim.retries",
                    sum(
                        not result.ok
                        for plan in plans
                        if not plan.finished
                        for result in plan.results.values()
                    ),
                )
            else:
                obs.inc("campaign.units_dispatched", len(units))
            for unit in units:
                plans[unit.sweep_index].pending += 1
            if jobs == 1:
                for unit in units:
                    obs.inc("campaign.world_cache_misses")
                    for item in _in_process(unit, trace):
                        land(plans[unit.sweep_index], item)
                    unit_done(plans[unit.sweep_index])
                continue
            if pool is None or not pool_ok:
                if pool is not None:
                    pool.shutdown(wait=False)
                pool = make_worker_pool(min(jobs, len(units)))
                pool_ok = True
            futures = {pool.submit(_pool_unit, unit): unit for unit in units}
            for future in as_completed(futures):
                unit = futures[future]
                try:
                    outcome = future.result()
                except Exception:  # noqa: BLE001 — retried next round
                    if retries == 0:
                        raise
                    pool_ok = False
                    outcome = _Outcome(_unit_failures(unit), cache_hit=False)
                pid = outcome.results[0].pid if outcome.results else 0
                if pid:
                    previous = last_sweep_by_pid.get(pid)
                    if previous is not None and previous != unit.sweep_index:
                        obs.inc("campaign.items_stolen", len(outcome.results))
                    last_sweep_by_pid[pid] = unit.sweep_index
                if outcome.cache_hit:
                    obs.inc("campaign.world_cache_hits")
                else:
                    obs.inc("campaign.world_cache_misses")
                for item in outcome.results:
                    land(plans[unit.sweep_index], item)
                unit_done(plans[unit.sweep_index])
    finally:
        if pool is not None:
            pool.shutdown()

    # Sweeps not completed above: those with nothing left to run and
    # those that kept failures past the retry budget.
    for plan in plans:
        if not plan.finished:
            complete(plan)
    return [plan.sorted_results() for plan in plans]


def _preferred_context() -> Optional[multiprocessing.context.BaseContext]:
    """Fork where available: cheap start-up and inherited ``sys.path``.

    On platforms without fork (Windows/macOS-spawn) the default context is
    used; scenario builders then additionally need to live in importable
    modules.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None
