"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload given_fig3 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics.  Progress, digests, the operation accounting and the
environment record go to standard output first; the last line is the
result object.  A failed output check makes ``correct`` false; a missing
``src/repro`` or any error exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC, WORK, environment, peak_rss_mb  # noqa: E402

WORKLOADS = ("given_fig3", "bursty_fig6", "serve_tcp")

#: ``name -> unit`` of the end-to-end metrics, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decide_p50_ms": "ms",
    "decide_p90_ms": "ms",
    "offer_p50_ms": "ms",
    "offer_p99_ms": "ms",
    "server_cpu_s": "s",
    "peak_rss_mb": "MB",
    "avg_delay_ms": "ms",
}


def per_layer_units() -> Dict[str, str]:
    from spans import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share_pct"] = "%"
    units.update(
        {
            "fastlp.solve.p50_ms": "ms",
            "fastlp.iterations": "count",
            "fastlp.iterations_per_solve": "count",
            "ingest.rejected_share": "ratio",
            "state.save.bytes": "bytes",
            "client.late_p99_ms": "ms",
            "trace.overhead_s": "s",
        }
    )
    return units


def log(line: str) -> None:
    print(line, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        log("environment " + json.dumps(environment(args.workload, args.seed)))
        if args.workload == "serve_tcp":
            import serve_tcp as workload
        else:
            import offline as workload
        if args.trace:
            result = trace(workload, args)
        else:
            result = measure(workload, args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload, args) -> dict:
    metrics, attempted, failed, errors = workload.run(
        args.workload, args.seed, args.seconds, log
    )
    metrics.setdefault("peak_rss_mb", peak_rss_mb())
    for error in errors:
        log(f"CHECK FAILED: {error}")
    for name, unit in END_TO_END.items():
        log(f"{name:<16}{metrics[name]:>14.4f} {unit}")
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        },
    }


def trace(workload, args) -> dict:
    from spans import per_layer_metrics

    if args.workload == "serve_tcp":
        traced = workload.run_traced(args.workload, args.seed, args.seconds, log)
    else:
        traced = workload.run_traced(args.workload, args.seed, log)
    metrics, table = per_layer_metrics(
        traced["spans"],
        base_s=traced["base_s"],
        lp_iterations=traced["lp_iterations"],
        save_bytes=traced["save_bytes"],
        rejected_share=traced["rejected_share"],
        late_p99_ms=traced["late_p99_ms"],
        overhead_s=traced["overhead_s"],
    )
    for line in table:
        log(line)
    for error in traced["errors"]:
        log(f"CHECK FAILED: {error}")
    units = per_layer_units()
    return {
        "correct": not traced["errors"] and traced["failed"] == 0,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
