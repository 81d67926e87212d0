"""Shared helpers: percentiles, digests, the environment record."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, Sequence

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for server snapshots and span dumps; removed after a run.
WORK = ROOT / ".perfbench_work"


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a series of seconds, in milliseconds."""
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q) * 1e3)


def require_tail(n_samples: int, q: float, what: str) -> None:
    """Fail when fewer than ten samples lie beyond the ``q``-th percentile."""
    beyond = n_samples * (100.0 - q) / 100.0
    if beyond < 10.0:
        raise RuntimeError(
            f"{what}: {n_samples} samples leave {beyond:.1f} beyond p{q:g}; "
            "the run needs at least ten"
        )


def digest(columns: Iterable[np.ndarray]) -> str:
    """Hex digest of deterministic per-slot columns (byte-exact)."""
    h = hashlib.sha256()
    for column in columns:
        array = np.ascontiguousarray(column)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s() -> float:
    """User plus system CPU time of this process, all threads."""
    times = os.times()
    return times.user + times.system


def yardstick_s() -> float:
    """Time of a fixed pure-Python loop: shows noisy stretches of the host.

    Recorded beside each workload's metrics; never used to rescale them.
    """
    started = perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    elapsed = perf_counter() - started
    assert total == 7_000_000
    return elapsed


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload: str, seed: int) -> Dict[str, Any]:
    """Versions, core count, commit and a yardstick time, for one run."""
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "yardstick_s": yardstick_s(),
        "executable": Path(sys.executable).name,
    }
