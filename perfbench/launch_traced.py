"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python launch_traced.py OUT.npz serve [serve flags...]``

Installs :class:`spans.Tracer`, activates a metrics registry (the server
records into the active one), runs the CLI's ``serve`` command -- the
same argument parsing and :func:`repro.api.serve` call as an untraced
``python -m repro serve`` -- and after the SIGTERM drain writes the spans,
the LP iteration count, the last snapshot's size and this process's CPU
time to ``OUT.npz``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.cli import main  # noqa: E402
from spans import Tracer, save_spans  # noqa: E402


def run(out: Path, argv: list) -> int:
    registry = obs.MetricsRegistry()
    with Tracer() as tracer, obs.activate(registry):
        status = main(argv)
    times = os.times()
    save_spans(
        tracer.spans(),
        out,
        extra={
            "lp_iterations": np.float64(registry.counter("lp.iterations")),
            "save_bytes": np.float64(tracer.last_save_bytes),
            "cpu_s": np.float64(times.user + times.system),
        },
    )
    return status


if __name__ == "__main__":
    sys.exit(run(Path(sys.argv[1]), sys.argv[2:]))
