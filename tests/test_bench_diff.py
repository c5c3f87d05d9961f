"""The perf-regression gate: timing extraction, diffing and the CLI."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    diff_benchmarks,
    extract_timings,
    load_bench_file,
    stamp_metadata,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A plausible BENCH_scaling.json payload (legacy bare shape).
BARE = {
    "figure1-cars3": {
        "100": {"reference": 0.01, "batch": 0.004, "speedup": 2.5},
        "1600": {"reference": 0.2, "batch": 0.05, "speedup": 4.0},
    },
    "figure12-cars4": {
        "100": {"reference": 0.008, "batch": 0.003, "speedup": 2.67},
    },
}


class TestExtractTimings:
    def test_wall_seconds_is_a_timing_key(self):
        timings = extract_timings({"figure-1": {"wall_seconds": 0.002, "rules": 4}})
        assert timings == {"figure-1.wall_seconds": 0.002}

    def test_dotted_paths_for_timing_leaves_only(self):
        timings = extract_timings(BARE)
        assert timings["figure1-cars3.100.batch"] == 0.004
        assert timings["figure1-cars3.1600.reference"] == 0.2
        # speedup is a ratio, not a wall time
        assert not any(key.endswith("speedup") for key in timings)

    def test_meta_wrapper_is_transparent(self):
        stamped = stamp_metadata(copy.deepcopy(BARE))
        assert set(stamped) == {"meta", "results"}
        assert stamped["meta"]["python"]
        assert extract_timings(stamped) == extract_timings(BARE)

    def test_pipeline_shape_and_lists(self):
        data = {"examples": [{"name": "a", "wall_time": 0.5, "tuples": 9}]}
        assert extract_timings(data) == {"examples[0].wall_time": 0.5}


class TestDiffBenchmarks:
    def test_identical_reports_pass(self):
        report = diff_benchmarks(BARE, copy.deepcopy(BARE))
        assert report.ok
        assert not report.regressions
        assert report.render().endswith("PASS")

    def test_three_x_regression_fails(self):
        current = copy.deepcopy(BARE)
        current["figure1-cars3"]["1600"]["batch"] = 0.15  # 3x the baseline
        report = diff_benchmarks(BARE, current)
        assert not report.ok
        assert [c.key for c in report.regressions] == [
            "figure1-cars3.1600.batch"
        ]
        assert report.regressions[0].ratio == pytest.approx(3.0)
        assert "REGRESSION" in report.render()
        assert report.render().endswith("FAIL")

    def test_improvements_are_reported_not_failed(self):
        current = copy.deepcopy(BARE)
        current["figure1-cars3"]["1600"]["reference"] = 0.05  # 4x faster
        report = diff_benchmarks(BARE, current)
        assert report.ok
        assert [c.key for c in report.improvements] == [
            "figure1-cars3.1600.reference"
        ]

    def test_noise_floor_skips_sub_millisecond_baselines(self):
        baseline = {"tiny": {"batch": 0.0002}}
        current = {"tiny": {"batch": 0.002}}  # 10x, but the baseline is noise
        report = diff_benchmarks(baseline, current)
        assert report.ok
        assert [c.key for c in report.skipped] == ["tiny.batch"]

    def test_missing_and_added_scenarios_are_listed(self):
        current = copy.deepcopy(BARE)
        del current["figure12-cars4"]
        current["new-workload"] = {"100": {"batch": 0.001}}
        report = diff_benchmarks(BARE, current)
        assert report.ok
        assert report.missing == ["figure12-cars4.100.reference",
                                  "figure12-cars4.100.batch"]
        assert report.added == ["new-workload.100.batch"]

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError, match="exceed 1.0"):
            diff_benchmarks(BARE, BARE, threshold=1.0)

    def test_report_round_trips_to_json(self):
        current = copy.deepcopy(BARE)
        current["figure1-cars3"]["1600"]["batch"] = 0.5
        data = diff_benchmarks(BARE, current).to_dict()
        assert data["ok"] is False
        assert json.loads(json.dumps(data)) == data


class TestCommittedBaselines:
    """The checked-in BENCH_*.json files must gate against themselves."""

    @pytest.mark.parametrize(
        "name",
        [
            "BENCH_scaling.json",
            "BENCH_pipeline.json",
            "BENCH_containment.json",
            "BENCH_flow.json",
            "BENCH_eval.json",
        ],
    )
    def test_self_compare_passes(self, name):
        path = REPO_ROOT / name
        data = load_bench_file(str(path))
        assert set(data) == {"meta", "results"}  # stamped format
        assert extract_timings(data), f"{name} has no timing leaves"
        assert diff_benchmarks(data, data).ok


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "bench-diff", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            cwd=str(REPO_ROOT),
        )

    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_identical_files_exit_zero(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", BARE)
        current = self._write(tmp_path, "cur.json", BARE)
        proc = self._run(baseline, current)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    def test_synthetic_regression_exits_nonzero(self, tmp_path):
        slow = copy.deepcopy(BARE)
        slow["figure1-cars3"]["1600"]["batch"] = 0.15  # 3x
        baseline = self._write(tmp_path, "base.json", BARE)
        current = self._write(tmp_path, "cur.json", slow)
        proc = self._run(baseline, current)
        assert proc.returncode == 1
        assert "REGRESSION figure1-cars3.1600.batch" in proc.stdout
        assert "FAIL" in proc.stdout

    def test_json_output(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", BARE)
        current = self._write(tmp_path, "cur.json", BARE)
        proc = self._run(baseline, current, "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True

    def test_unreadable_file_exits_two(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", BARE)
        proc = self._run(baseline, str(tmp_path / "missing.json"))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    @pytest.mark.parametrize("side", ["baseline", "current"])
    def test_file_without_timings_exits_two(self, tmp_path, side):
        timed = self._write(tmp_path, "timed.json", BARE)
        empty = self._write(
            tmp_path, "untimed.json", {"verify": {"checks": 17, "counters": {}}}
        )
        argv = (empty, timed) if side == "baseline" else (timed, empty)
        proc = self._run(*argv)
        assert proc.returncode == 2
        assert "untimed.json has no timing keys" in proc.stderr

    def test_bad_threshold_exits_two(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", BARE)
        proc = self._run(baseline, baseline, "--threshold", "0.5")
        assert proc.returncode == 2
