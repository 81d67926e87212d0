"""The offline workloads: ``given_fig3`` and ``bursty_fig6``.

Each repetition builds the workload's world through the public
registries (the set-up, timed per repetition) and runs every controller
of the figure through :func:`repro.api.run_simulation` (the timed run
phase).  Repetitions continue until ``--seconds`` have passed, with at
least ``Workload.min_reps``; each draws its own delay drift and
controller streams from the seed.  Metrics are medians over the
repetitions, or percentiles of the per-slot series of medians across
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from common import digest, percentile_ms, process_cpu_s

HORIZON = 30  # the quick profile's horizon
N_HOTSPOTS = 5
#: Seed of the fixed world (the figures' seed).  Worlds drawn from the run
#: seed differ in LP cost, and bursty demand traces in mean delay, far
#: more than the bounds allow.
WORLD_SEED = 2020


@dataclass(frozen=True)
class Workload:
    name: str
    learner: str  # the controller whose decide times are reported
    n_stations: int
    bursty: bool
    #: Repetitions a run makes at least; ``avg_delay_ms`` and the digest
    #: use exactly these, so they depend on the seed alone.
    min_reps: int
    #: World builds a run makes at least; builds beyond the repetitions'
    #: own only add ``setup_s`` samples.
    min_setups: int

    @property
    def controllers(self) -> Tuple[str, ...]:
        if self.bursty:
            return ("OL_GAN", "OL_Reg")
        return ("OL_GD", "Greedy_GD", "Pri_GD")


WORKLOADS = {
    # Fig. 3, quick profile: GT-ITM, 50 stations, 60 requests, 4 services.
    "given_fig3": Workload(
        "given_fig3", "OL_GD", n_stations=50, bursty=False, min_reps=3, min_setups=25
    ),
    # Fig. 6 with the station count lowered to 16 so the GAN's share of a
    # slot is large next to the LP's.
    "bursty_fig6": Workload(
        "bursty_fig6", "OL_GAN", n_stations=16, bursty=True, min_reps=6, min_setups=6
    ),
}


def build(workload: Workload, seed: int, rep: int, *, pretrain_epochs: int = 8):
    """One repetition's world: ``(network, demand_model, controllers)``.

    The topology, users, capacities and demand trace are the figure's
    fixed world (seed :data:`WORLD_SEED`); ``seed`` and ``rep`` draw the
    rest -- the delay drift, the GAN's warm-up sample and every
    controller's random stream.
    """
    from repro.api import (
        RngRegistry,
        make_controller,
        make_topology,
        make_workload,
    )
    from repro.mec import DriftingDelay
    from repro.workload import requests_from_trace, synthesize_nyc_wifi_trace

    world = RngRegistry(seed=WORLD_SEED).child(workload.name)
    draws = RngRegistry(seed=seed).child(f"{workload.name}/rep{rep}")
    trace = synthesize_nyc_wifi_trace(
        N_HOTSPOTS, 60, world.get("trace"), horizon_slots=HORIZON
    )
    network = make_topology(
        "gtitm",
        world,
        n_stations=workload.n_stations,
        n_services=4,
        anchor_points=[h.location for h in trace.hotspots],
    )
    requests = requests_from_trace(trace, network.services, world.get("requests"))
    # A femtocell hosts about two average requests (the figures' C_unit).
    mean_demand = float(np.mean([r.basic_demand_mb for r in requests]))
    network.c_unit_mhz = float(network.capacities_mhz.min() / (2.0 * mean_demand))
    network.delays = DriftingDelay(network.stations, draws.get("drift"), drift_ms=0.5)
    model = make_workload(
        "bursty" if workload.bursty else "constant", requests, world.get("demand")
    )
    if not workload.bursty:
        controllers = [
            make_controller(name, network, requests, draws.get(f"controller/{name}"))
            for name in workload.controllers
        ]
        return network, model, controllers
    # The GAN's small sample comes from an independently seeded copy of
    # the demand process, as in the figure; OL_Reg shares the inner
    # OL_GD's random stream so the pair differs only in prediction.
    warmup = make_workload("bursty", requests, draws.get("warmup-demand")).matrix(24)
    pair_seed = int(draws.get("inner-pair").integers(2**63 - 1))
    gan = make_controller(
        "OL_GAN",
        network,
        requests,
        draws.get("controller/OL_GAN"),
        n_hotspots=N_HOTSPOTS,
        warmup_history=warmup,
        inner_rng=np.random.default_rng(pair_seed),
        window=6,
        hidden_size=10,
        pretrain_epochs=pretrain_epochs,
        online_steps=1,
        supervised_quantile=0.7,
    )
    reg = make_controller(
        "OL_Reg",
        network,
        requests,
        draws.get("controller/OL_Reg"),
        inner_rng=np.random.default_rng(pair_seed),
    )
    return network, model, [gan, reg]


def _record_decisions(controller: Any) -> List[Any]:
    """Keep every assignment ``controller`` returns (for the output check)."""
    decisions: List[Any] = []
    decide = controller.decide

    def recorded(slot: int, demands: Optional[np.ndarray]) -> Any:
        assignment = decide(slot, demands)
        decisions.append(assignment)
        return assignment

    controller.decide = recorded
    return decisions


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    cpu_s: float
    results: Dict[str, Any] = field(default_factory=dict)
    decisions: Dict[str, List[Any]] = field(default_factory=dict)
    service_of: Optional[np.ndarray] = None
    n_stations: int = 0


def run_rep(workload: Workload, seed: int, rep: int) -> Rep:
    """Build and run one repetition; returns its timings and outputs."""
    from repro.api import run_simulation

    started = perf_counter()
    network, model, controllers = build(workload, seed, rep)
    setup_s = perf_counter() - started
    decisions = {c.name: _record_decisions(c) for c in controllers}
    results = {}
    cpu0 = process_cpu_s()
    started = perf_counter()
    for controller in controllers:
        results[controller.name] = run_simulation(
            network,
            model,
            controller,
            HORIZON,
            demands_known=not workload.bursty,
            compute_optimal=controller.name == "OL_GD",
        )
    wall_s = perf_counter() - started
    cpu_s = process_cpu_s() - cpu0
    service_of = np.array(
        [r.service_index for r in controllers[0].requests], dtype=np.int64
    )
    return Rep(
        setup_s, wall_s, cpu_s, results, decisions, service_of, network.n_stations
    )


def warm_up(workload: Workload, seed: int) -> None:
    """Untimed: let lazy imports and first-call set-up finish."""
    from repro.api import run_simulation

    network, model, controllers = build(workload, seed, -1, pretrain_epochs=1)
    for controller in controllers:
        run_simulation(network, model, controller, 2, demands_known=not workload.bursty)


def check_rep(rep: Rep, counts: Dict[str, int]) -> List[str]:
    """Every request sits on a station that caches its service; finite delays."""
    errors = []
    for name, assignments in rep.decisions.items():
        result = rep.results[name]
        if len(assignments) != HORIZON or result.horizon != HORIZON:
            errors.append(f"{name}: {len(assignments)} decisions for {HORIZON} slots")
        if not np.all(np.isfinite(result.delays_ms)):
            errors.append(f"{name}: non-finite delay")
        for assignment in assignments:
            counts["slots"] += 1
            stations = np.asarray(assignment.station_of)
            ok = stations.shape == rep.service_of.shape and bool(
                np.all((stations >= 0) & (stations < rep.n_stations))
            )
            if ok:
                ok = all(
                    (int(k), int(i)) in assignment.cached
                    for k, i in zip(rep.service_of, stations)
                )
            if not ok:
                counts["failed"] += 1
                errors.append(f"{name}: a request is on a station without its service")
    return errors


def rep_digest(rep: Rep) -> Dict[str, str]:
    """Digest of each controller's deterministic per-slot columns."""
    out = {}
    for name, result in rep.results.items():
        optimal = np.array(
            [np.nan if r.optimal_delay_ms is None else r.optimal_delay_ms
             for r in result.records]
        )
        out[name] = digest(
            [
                result.delays_ms,
                result.cache_churn,
                np.array([r.n_cached_instances for r in result.records]),
                result.max_load_fractions,
                optimal,
                np.stack([a.station_of for a in rep.decisions[name]]),
            ]
        )
    return out


def run(name: str, seed: int, seconds: float, log: Callable[[str], None]):
    """The timed run: ``(metrics, attempted, failed, errors)``."""
    workload = WORKLOADS[name]
    warm_up(workload, seed)
    reps: List[Rep] = []
    counts = {"slots": 0, "failed": 0}
    errors: List[str] = []
    started = perf_counter()
    while len(reps) < workload.min_reps or perf_counter() - started < seconds:
        rep = run_rep(workload, seed, len(reps))
        errors += check_rep(rep, counts)
        reps.append(rep)
    setups = [rep.setup_s for rep in reps]
    while len(setups) < workload.min_setups:
        t0 = perf_counter()
        build(workload, seed, len(setups))
        setups.append(perf_counter() - t0)
    for index, rep in enumerate(reps[: workload.min_reps]):
        log(f"digest rep{index} " + " ".join(f"{k}={v}" for k, v in rep_digest(rep).items()))

    # Per-slot series, as in the figures' runtime panels, but the median
    # across repetitions: the host runs whole repetitions up to 50% slower
    # at times, which moves pooled tails with the share of slow ones.
    learner = workload.learner
    total = np.median(
        [rep.results[learner].decision_seconds for rep in reps], axis=0
    )
    observe = np.median(
        [
            rep.results[learner].decision_seconds
            - rep.results[learner].decide_only_seconds
            for rep in reps
        ],
        axis=0,
    )
    # Bursty demand makes a repetition's mean delay heavy-tailed: median.
    delays = [rep.results[learner].mean_delay_ms() for rep in reps[: workload.min_reps]]
    accounting = {
        "slot": {
            "attempted": counts["slots"],
            "ok": counts["slots"] - counts["failed"],
            "refused": 0,
            "failed": counts["failed"],
        }
    }
    log(
        f"{len(reps)} repetitions of {HORIZON} {learner} slots; "
        f"accounting {json.dumps(accounting)}"
    )
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(rep.wall_s for rep in reps),
        "decide_p50_ms": percentile_ms(total, 50),
        "decide_p90_ms": percentile_ms(total, 90),
        "offer_p50_ms": percentile_ms(observe, 50),
        "offer_p99_ms": percentile_ms(observe, 99),
        "server_cpu_s": median(rep.cpu_s for rep in reps),
        "avg_delay_ms": median(delays),
    }
    return metrics, counts["slots"], counts["failed"], errors


def run_traced(name: str, seed: int, log: Callable[[str], None]):
    """One repetition untraced, then the same repetition traced."""
    from repro import obs

    from spans import Tracer

    workload = WORKLOADS[name]
    warm_up(workload, seed)
    untraced = run_rep(workload, seed, 0)
    registry = obs.MetricsRegistry()
    with Tracer() as tracer, obs.activate(registry):
        traced = run_rep(workload, seed, 0)
    counts = {"slots": 0, "failed": 0}
    errors = check_rep(traced, counts)
    if rep_digest(traced) != rep_digest(untraced):
        errors.append("traced run's outputs differ from the untraced run's")
    log(
        f"traced rep0: setup {traced.setup_s:.3f} s (untraced {untraced.setup_s:.3f}), "
        f"run {traced.wall_s:.3f} s (untraced {untraced.wall_s:.3f})"
    )
    return {
        "spans": tracer.spans(),
        "base_s": traced.setup_s + traced.wall_s,
        "lp_iterations": registry.counter("lp.iterations"),
        "save_bytes": tracer.last_save_bytes,
        "rejected_share": 0.0,
        "late_p99_ms": 0.0,
        # Run phase only: one GAN pretraining's time varies more between
        # two builds than tracing adds to it.
        "overhead_s": traced.wall_s - untraced.wall_s,
        "attempted": counts["slots"],
        "failed": counts["failed"],
        "errors": errors,
    }
