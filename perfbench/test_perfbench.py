"""Self-test of the benchmark at reduced sizes.

Run from the repository root with ``python3 -m pytest perfbench``.  It checks
the output contract (every metric named in ``BENCHMARK.json`` is printed
with its unit, no operation fails) and that the exact counts repeat for a
repeated seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: per-layer metrics that are pure functions of the inputs
EXACT_RATIOS = {
    "core.candidates.kept_ratio",
    "analysis.semantic.cache_hit_ratio",
    "datalog.exec.dedup_ratio",
    "failed_share",
}


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py")]
    command += ["--workload", workload, "--seed", str(seed), "--seconds", "1"]
    command += ["--trace", str(trace), "--reduced"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_and_correct(workload):
    out = result(bench(workload, trace=0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present_and_counts_repeat(workload):
    first, second = result(bench(workload, trace=1)), result(bench(workload, trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["metrics"]["failed_share"]["value"] == 0
    exact = [
        name
        for name, unit in expected.items()
        if unit == "count" or name in EXACT_RATIOS
    ]
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_mapping_system(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    done = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_self_time_subtracts_children():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from measure import Span, self_times

    spans = [
        Span(0, "op", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "b", 0, 3.0, 6.0),
        Span(3, "c", 1, 2.0, 3.0),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
