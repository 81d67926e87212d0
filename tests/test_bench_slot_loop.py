"""Tier-1 smoke test of the slot-loop benchmark (schema and stages).

Runs ``benchmarks/bench_slot_loop.py`` in its ``--quick`` configuration so
the benchmark cannot rot: every stage must execute and emit the trajectory
schema that ``BENCH_pr*.json`` files at the repo root follow.  Speedup
*magnitudes* are not asserted here — at smoke sizes they are noise; the
committed ``BENCH_pr6.json`` records the real measurement.
"""

import json
from pathlib import Path

import pytest

from benchmarks.bench_slot_loop import PR, QUICK_CONFIG, SCHEMA, main, run_benchmark

EXPECTED_STAGES = {
    "bursty_demand_10k",
    "slot_loop_10k",
    "slot_loop_100k",
}


@pytest.fixture(scope="module")
def result():
    return run_benchmark(QUICK_CONFIG)


class TestBenchmarkSchema:
    def test_envelope(self, result):
        assert result["schema"] == SCHEMA
        assert result["pr"] == PR
        assert isinstance(result["commit"], str) and result["commit"]
        assert result["config"] == QUICK_CONFIG

    def test_stages_complete(self, result):
        assert {s["stage"] for s in result["stages"]} == EXPECTED_STAGES

    def test_stage_fields(self, result):
        for stage in result["stages"]:
            assert stage["baseline_median_seconds"] > 0
            assert stage["fast_median_seconds"] > 0
            assert stage["speedup"] == pytest.approx(
                stage["baseline_median_seconds"] / stage["fast_median_seconds"]
            )

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(result))
        assert json.loads(path.read_text()) == result


class TestCommittedTrajectory:
    def test_bench_pr6_recorded(self):
        """The committed trajectory point meets the PR's acceptance bar:
        >= 10x on the 10^4-request slot loop, and the 10^5-request engine
        stage recorded (i.e. a run at that scale completed)."""
        path = Path(__file__).resolve().parents[1] / "BENCH_pr6.json"
        recorded = json.loads(path.read_text())
        assert recorded["schema"] == SCHEMA
        assert recorded["pr"] == PR
        stages = {s["stage"]: s for s in recorded["stages"]}
        assert stages["slot_loop_10k"]["speedup"] >= 10.0
        assert stages["slot_loop_100k"]["fast_median_seconds"] > 0


class TestCli:
    def test_quick_writes_output(self, tmp_path):
        out = tmp_path / "BENCH_smoke.json"
        main(["--quick", "--output", str(out)])
        written = json.loads(out.read_text())
        assert written["schema"] == SCHEMA
        assert {s["stage"] for s in written["stages"]} == EXPECTED_STAGES
