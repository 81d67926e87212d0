"""Benchmark trajectory for the vectorised simulation slot loop.

Times the per-slot hot path — bursty demand realisation, assignment
construction and Eq. (3) evaluation — comparing the **fast path**
(vectorised :meth:`BurstyDemandModel.bursty_at`, ``np.unique`` cache-set
derivation, a persistent :class:`repro.core.assignment.SlotEvaluator`)
against a **legacy emulation** of the pre-PR-6 scalar loop (per-request
demand realisation via ``bursty_at_scalar``, python set loops for the
cache set, per-slot throwaway evaluation with ``np.add.at`` loads).

The legacy emulation still benefits from shared improvements (memoised
MMPP amplitudes instead of O(episode-length) backward walks), so the
reported speedups are conservative lower bounds on the gain over the
original implementation.  The ``slot_loop_100k`` stage additionally
drives the real :func:`repro.sim.run_simulation` engine at 10^5
requests, demonstrating that runs at that scale complete.

Running as a script writes ``BENCH_pr6.json`` at the repo root — the
next point of the recorded benchmark trajectory (see ``BENCH_pr3.json``
onwards; "Performance" in README.md).

Run with::

    PYTHONPATH=src python benchmarks/bench_slot_loop.py          # full
    PYTHONPATH=src python benchmarks/bench_slot_loop.py --quick  # smoke

The tier-1 smoke test (``tests/test_bench_slot_loop.py``) runs the
``--quick`` configuration and validates the schema, so the benchmark
itself cannot rot.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.assignment import Assignment, SlotEvaluator
from repro.core.controller import Controller
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.sim.engine import run_simulation
from repro.utils.seeding import RngRegistry
from repro.workload.bursty import FlashCrowdSchedule
from repro.workload.demand import BurstyDemandModel

SCHEMA = "repro.bench.trajectory/v1"
PR = 6

# Paper-adjacent topology, scaled-up request sets: the acceptance stages
# are the 10^4-request slot loop (>= 10x) and a completing 10^5 run.
FULL_CONFIG: Dict = {
    "n_stations": 24,
    "n_services": 6,
    "n_hotspots": 12,
    "demand_requests": 10_000,
    "demand_slots": 20,
    "loop_requests": 10_000,
    "loop_slots": 12,
    "large_requests": 100_000,
    "large_slots": 3,
    "repeats": 5,
    "seed": 2020,
}

# Tiny everything: the smoke variant exercises every stage in seconds.
QUICK_CONFIG: Dict = {
    "n_stations": 6,
    "n_services": 3,
    "n_hotspots": 4,
    "demand_requests": 60,
    "demand_slots": 6,
    "loop_requests": 60,
    "loop_slots": 4,
    "large_requests": 200,
    "large_slots": 2,
    "repeats": 2,
    "seed": 2020,
}


def _median_seconds(fn: Callable[[], None], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(statistics.median(times))


def _stage(name: str, baseline_seconds: float, fast_seconds: float) -> Dict:
    return {
        "stage": name,
        "baseline_median_seconds": baseline_seconds,
        "fast_median_seconds": fast_seconds,
        "speedup": baseline_seconds / fast_seconds,
    }


# --------------------------------------------------------------------- #
# World construction
# --------------------------------------------------------------------- #


def _make_requests(n: int, n_hotspots: int, n_services: int, seed: int) -> List[Request]:
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n):
        solo = i % 20 == 19  # a sprinkle of independent (solo) users
        requests.append(
            Request(
                index=i,
                service_index=int(rng.integers(n_services)),
                basic_demand_mb=float(rng.uniform(0.5, 2.0)),
                hotspot_index=None if solo else i % n_hotspots,
            )
        )
    return requests


def _make_model(requests: Sequence[Request], n_hotspots: int, seed: int) -> BurstyDemandModel:
    schedule = (
        FlashCrowdSchedule()
        .add_event(0, start=2, duration=3, amplitude_mb=6.0)
        .add_event(min(1, n_hotspots - 1), start=4, duration=2, amplitude_mb=4.0)
    )
    return BurstyDemandModel(
        requests, np.random.default_rng(seed), flash_crowds=schedule
    )


def _make_network(config: Dict, n_stations: Optional[int] = None) -> MECNetwork:
    rngs = RngRegistry(seed=config["seed"])
    return MECNetwork.synthetic(
        n_stations if n_stations is not None else config["n_stations"],
        config["n_services"],
        rngs,
    )


# --------------------------------------------------------------------- #
# Legacy emulation: the pre-PR-6 scalar slot loop
# --------------------------------------------------------------------- #


def _legacy_from_stations(
    station_of: np.ndarray, requests: Sequence[Request]
) -> Assignment:
    """Cache-set derivation as the pre-PR code built it: a python loop."""
    cached = set()
    for request, station in zip(requests, station_of, strict=True):
        cached.add((request.service_index, int(station)))
    return Assignment(station_of=station_of, cached=frozenset(cached))


def _legacy_evaluate(
    assignment: Assignment,
    network: MECNetwork,
    requests: Sequence[Request],
    demands_mb: np.ndarray,
    unit_delays_ms: np.ndarray,
) -> float:
    """Eq. (3) as the pre-PR code computed it each slot, from scratch."""
    n = len(requests)
    loads = np.zeros(network.n_stations)
    np.add.at(loads, assignment.station_of, demands_mb * network.c_unit_mhz)
    overload = np.maximum(loads / network.capacities_mhz, 1.0)
    stations = assignment.station_of
    processing = demands_mb * unit_delays_ms[stations] * overload[stations]
    instantiation = sum(
        network.services.instantiation_delay(station, service)
        for service, station in assignment.cached
    )
    return float((processing.sum() + instantiation) / n)


# --------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------- #


def _demand_stage(config: Dict) -> Dict:
    """Bursty demand realisation: per-request scalar loop vs vectorised."""
    requests = _make_requests(
        config["demand_requests"], config["n_hotspots"],
        config["n_services"], config["seed"],
    )
    scalar_model = _make_model(requests, config["n_hotspots"], config["seed"] + 1)
    fast_model = _make_model(requests, config["n_hotspots"], config["seed"] + 1)
    slots = range(config["demand_slots"])

    def scalar() -> None:
        for t in slots:
            scalar_model.bursty_at_scalar(t)

    def fast() -> None:
        for t in slots:
            fast_model.bursty_at(t)

    return _stage(
        "bursty_demand_10k",
        _median_seconds(scalar, config["repeats"]),
        _median_seconds(fast, config["repeats"]),
    )


def _slot_loop_stage(config: Dict, name: str, n_requests: int, n_slots: int) -> Dict:
    """One simulated slot end-to-end: demand + assignment + evaluation."""
    requests = _make_requests(
        n_requests, config["n_hotspots"], config["n_services"], config["seed"]
    )
    network = _make_network(config)
    model = _make_model(requests, config["n_hotspots"], config["seed"] + 2)
    stations = np.arange(n_requests) % network.n_stations
    delays = [network.delays.sample(t) for t in range(n_slots)]
    evaluator = SlotEvaluator(network, requests)
    service_of = evaluator.service_of

    def legacy() -> None:
        for t in range(n_slots):
            demands = model.basic_demands + model.bursty_at_scalar(t)
            assignment = _legacy_from_stations(stations, requests)
            _legacy_evaluate(assignment, network, requests, demands, delays[t])

    def fast() -> None:
        for t in range(n_slots):
            demands = model.demand_at(t)
            assignment = Assignment.from_stations(
                stations, requests, service_of=service_of
            )
            evaluator.evaluate(assignment, demands, delays[t])

    return _stage(
        name,
        _median_seconds(legacy, config["repeats"]),
        _median_seconds(fast, config["repeats"]),
    )


class _StaticController(Controller):
    """Fixed round-robin placement: isolates the engine's per-slot cost."""

    name = "Static_RR"

    def __init__(self, network: MECNetwork, requests: Sequence[Request]):
        super().__init__(network, requests)
        self._stations = np.arange(len(requests)) % network.n_stations

    def decide(self, slot: int, demands) -> Assignment:
        return Assignment.from_stations(
            self._stations, self.requests, service_of=self.service_of
        )

    def observe(self, slot, demands, unit_delays, assignment) -> None:
        return None


def _large_run_stage(config: Dict) -> Dict:
    """10^5-request engine run (the scale acceptance): legacy loop vs
    the real :func:`run_simulation` driving the same world."""
    n_requests = config["large_requests"]
    n_slots = config["large_slots"]
    requests = _make_requests(
        n_requests, config["n_hotspots"], config["n_services"], config["seed"]
    )
    network = _make_network(config)
    stations = np.arange(n_requests) % network.n_stations
    # Demand models are prebuilt (construction is one-time cost, not the
    # slot loop); scalar and fast paths get independent instances so
    # neither inherits the other's chain caches.
    scalar_model = _make_model(requests, config["n_hotspots"], config["seed"] + 3)
    fast_model = _make_model(requests, config["n_hotspots"], config["seed"] + 3)
    controller = _StaticController(network, requests)

    def legacy() -> None:
        for t in range(n_slots):
            demands = scalar_model.basic_demands + scalar_model.bursty_at_scalar(t)
            assignment = _legacy_from_stations(stations, requests)
            delays = network.delays.sample(t)
            _legacy_evaluate(assignment, network, requests, demands, delays)

    def fast() -> None:
        run_simulation(network, fast_model, controller, n_slots)

    return _stage(
        "slot_loop_100k",
        _median_seconds(legacy, config["repeats"]),
        _median_seconds(fast, config["repeats"]),
    )


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def _commit_hash() -> str:
    """HEAD at generation time, with ``-dirty`` when the tree has edits."""
    cwd = Path(__file__).resolve().parent
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{head}-dirty" if status else head


def run_benchmark(config: Dict) -> Dict:
    """Run every stage under ``config``; returns the schema'd result."""
    stages = [
        _demand_stage(config),
        _slot_loop_stage(
            config, "slot_loop_10k", config["loop_requests"], config["loop_slots"]
        ),
        _large_run_stage(config),
    ]
    return {
        "schema": SCHEMA,
        "pr": PR,
        "commit": _commit_hash(),
        "config": dict(config),
        "stages": stages,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smoke configuration (seconds, not minutes)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / f"BENCH_pr{PR}.json",
        help="where to write the JSON result",
    )
    args = parser.parse_args(argv)
    result = run_benchmark(QUICK_CONFIG if args.quick else FULL_CONFIG)
    for stage in result["stages"]:
        print(
            f"{stage['stage']:<26} baseline {stage['baseline_median_seconds'] * 1e3:8.2f} ms"
            f"  fast {stage['fast_median_seconds'] * 1e3:8.2f} ms"
            f"  speedup {stage['speedup']:5.2f}x"
        )
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
