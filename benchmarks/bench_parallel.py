"""Serial-vs-parallel throughput of the repetition engine.

Runs the same 16-repetition, 2-controller study through
``run_repetitions`` with ``RunConfig(jobs=1)`` and ``RunConfig(jobs=4)``
and reports wall-clock, runs/second and the speedup, asserting the two
paths agree bit-for-bit on every seed-determined metric (the executor's
core guarantee).  The speedup itself is hardware-dependent — on a >=4-core
machine the parallel path is expected to be >=2.5x faster; on fewer
cores the bit-identity check still runs and the measured numbers are
reported for the record.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -s
"""

import os
import time

import numpy as np
import pytest

from repro.core import GreedyController, OlGdController
from repro.mec import DriftingDelay, MECNetwork
from repro.mec.requests import Request
from repro.sim import RunConfig, run_repetitions
from repro.utils.seeding import RngRegistry
from repro.workload import ConstantDemandModel

pytestmark = pytest.mark.slow

N_REPETITIONS = 16
HORIZON = 12
N_JOBS = 4
SEED = 2020
DETERMINISTIC_METRICS = ("mean_delay_ms", "total_churn")


def scenario(rngs: RngRegistry):
    """Module-level (picklable) 2-controller world for one repetition."""
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


def _run(jobs: int):
    start = time.perf_counter()
    study = run_repetitions(
        scenario,
        seed=SEED,
        repetitions=N_REPETITIONS,
        horizon=HORIZON,
        config=RunConfig(jobs=jobs),
        n_controllers=2,
    )
    return study, time.perf_counter() - start


def test_parallel_throughput():
    serial, serial_seconds = _run(jobs=1)
    parallel, parallel_seconds = _run(jobs=N_JOBS)
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else 0.0

    print()
    print(
        f"{N_REPETITIONS}-repetition study, 2 controllers, horizon {HORIZON}, "
        f"{os.cpu_count()} cores available"
    )
    print(f"{'path':<10} {'wall [s]':>9} {'runs/s':>8} {'cpu [s]':>9}")
    for label, study, seconds in (
        ("serial", serial, serial_seconds),
        (f"jobs={N_JOBS}", parallel, parallel_seconds),
    ):
        print(
            f"{label:<10} {seconds:>9.2f} {study.completed_runs / seconds:>8.2f} "
            f"{study.cpu_seconds:>9.2f}"
        )
    print(f"speedup: {speedup:.2f}x  (target >=2.5x on >=4 cores)")
    print()
    print(parallel.timing_table())

    # The guarantee that makes the speedup trustworthy: bit-identical
    # summaries for every seed-determined metric.
    assert serial.n_failed == parallel.n_failed == 0
    for controller in serial.summaries:
        for metric in DETERMINISTIC_METRICS:
            assert (
                serial.summary(controller, metric).values
                == parallel.summary(controller, metric).values
            ), (controller, metric)
