"""Micro-benchmarks for the flow engine: writes ``BENCH_flow.json``.

Each benchmark solves the three shipped analyses (nullability, provenance,
key-origin) to fixpoint over one bundled scenario's generated program and
records the solver telemetry — iterations, position updates, widenings —
plus the median wall time of its rounds.  After the module finishes, the
collected numbers are serialized to ``BENCH_flow.json`` at the repository
root so solver behaviour (sweep counts must stay at one per stratified
program) and timings can be diffed across revisions.  Run with::

    pytest benchmarks/test_bench_flow.py --benchmark-only
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.flow import analyze_flow
from repro.bench import stamp_metadata
from repro.core.pipeline import MappingSystem
from repro.scenarios import bundled_problems

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_flow.json"

#: A small / medium / large spread of the bundled scenarios.
SCENARIOS = ("appendix-A.3", "figure-1", "figure-12", "appendix-c4")

_reports: dict[str, dict] = {}


@pytest.mark.parametrize("name", SCENARIOS)
def test_flow_fixpoint(benchmark, name):
    """Solve all three analyses over one scenario's generated program."""
    problem = bundled_problems()[name]
    program = MappingSystem(problem).transformation

    report = benchmark(analyze_flow, program, problem)
    stats = report.stats()
    for analysis, numbers in stats.items():
        # The generated programs are stratified: the solver must reach the
        # fixpoint in a single sweep (one visit per defined relation).
        assert numbers["iterations"] == numbers["relations"], (analysis, numbers)
        assert numbers["widenings"] == 0, (analysis, numbers)
    benchmark.extra_info["stats"] = stats
    _reports[name] = {
        "rules": len(program.rules),
        "relations": len(program.defined_relations()),
        "diagnostics": [item.code for item in report.diagnostics],
        "wall_seconds": round(benchmark.stats.stats.median, 6),
        "solver": stats,
    }


def test_flow_full_sweep(benchmark):
    """Flow-analyze every bundled scenario back to back (the CI workload)."""
    problems = bundled_problems()
    programs = {
        name: MappingSystem(problem).transformation
        for name, problem in problems.items()
    }

    def run():
        iterations = 0
        findings = 0
        for name, program in programs.items():
            report = analyze_flow(program, problems[name])
            iterations += sum(r.stats.iterations for r in report.results)
            findings += len(report.diagnostics)
        return iterations, findings

    iterations, findings = benchmark(run)
    assert iterations > 0
    benchmark.extra_info["iterations"] = iterations
    _reports["all-scenarios"] = {
        "scenarios": len(programs),
        "iterations": iterations,
        "findings": findings,
        "seconds": round(benchmark.stats.stats.median, 6),
    }


@pytest.fixture(scope="module", autouse=True)
def _write_bench_report():
    """Serialize every collected report once the module's benchmarks ran."""
    yield
    if _reports:
        payload = {name: _reports[name] for name in sorted(_reports)}
        stamped = stamp_metadata(payload)
        OUTPUT_PATH.write_text(json.dumps(stamped, indent=2) + "\n")
