"""Time-slot simulation engine and metrics.

Drives any :class:`repro.core.Controller` over a horizon against an
:class:`repro.mec.MECNetwork` and a :class:`repro.workload.DemandModel`,
recording the per-slot series the paper's figures plot (average delay,
controller running time) plus regret and cache-churn diagnostics.
"""

from repro.sim.config import RunConfig
from repro.sim.engine import run_simulation
from repro.sim.failures import FailureSchedule, run_with_failures
from repro.sim.metrics import SimulationResult, SlotRecord
from repro.sim.multirun import (
    MetricSummary,
    PairedComparison,
    RepetitionStudy,
    aggregate_work_results,
    compare_controllers,
    run_repetitions,
)
from repro.sim.parallel import (
    RepetitionFailure,
    Sweep,
    WorkItem,
    WorkResult,
    build_world,
    execute_sweeps,
    load_work_result,
    make_worker_pool,
    persist_work_result,
    resolve_n_jobs,
    run_item_on_world,
)
from repro.state import CheckpointConfig, CheckpointError, SweepManifest

__all__ = [
    "CheckpointConfig",
    "CheckpointError",
    "RunConfig",
    "SweepManifest",
    "run_simulation",
    "FailureSchedule",
    "run_with_failures",
    "SimulationResult",
    "SlotRecord",
    "MetricSummary",
    "PairedComparison",
    "RepetitionStudy",
    "RepetitionFailure",
    "Sweep",
    "WorkItem",
    "WorkResult",
    "aggregate_work_results",
    "build_world",
    "compare_controllers",
    "execute_sweeps",
    "load_work_result",
    "make_worker_pool",
    "persist_work_result",
    "run_item_on_world",
    "run_repetitions",
    "resolve_n_jobs",
]
