"""Micro-benchmarks for the containment engine: writes ``BENCH_containment.json``.

Each benchmark times one workload of the chase-based semantic analyzer —
cold containment checks, warm (signature-cached) re-checks, program
minimization, and full differential verification — and collects the
``semantic.*`` counters of the run plus the median ``seconds`` of its
rounds.  After the module finishes, the collected numbers are serialized to
``BENCH_containment.json`` at the repository root so timings (through
``repro bench-diff``) and counter totals (checks, cache hits, certificates)
can be diffed across revisions.  Run with::

    pytest benchmarks/test_bench_containment.py --benchmark-only
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.semantic.containment import (
    ContainmentEngine,
    cq_from_rule,
    reset_default_engine,
)
from repro.analysis.semantic.minimize import minimize_program
from repro.bench import stamp_metadata
from repro.core.pipeline import MappingSystem
from repro.obs import Tracer, use_tracer
from repro.scenarios import cars

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_containment.json"

_reports: dict[str, dict] = {}


def _rule_queries():
    """The tableau queries of the figure-1 and figure-10 transformations."""
    queries = []
    for problem in (cars.figure1_problem(), cars.figure10_problem()):
        program = MappingSystem(problem).query_result().program
        queries.extend(cq_from_rule(rule) for rule in program.rules)
    return queries


def _pairwise_containment(queries, engine):
    verdicts = 0
    for left in queries:
        for right in queries:
            if engine.contained_in(left, right) is not None:
                verdicts += 1
    return verdicts


@pytest.mark.parametrize("name", ["cold", "warm"])
def test_pairwise_containment(benchmark, name):
    """All-pairs rule containment: cold engine vs. signature-cache hits."""
    queries = _rule_queries()
    warm_engine = ContainmentEngine()
    if name == "warm":
        _pairwise_containment(queries, warm_engine)  # prime the cache

    def run():
        engine = warm_engine if name == "warm" else ContainmentEngine()
        with use_tracer(Tracer()) as tracer:
            verdicts = _pairwise_containment(queries, engine)
        return verdicts, dict(tracer.counters)

    verdicts, counters = benchmark(run)
    assert verdicts >= len(queries)  # reflexivity at the very least
    if name == "warm":
        assert counters.get("semantic.cache_hits", 0) > 0
    benchmark.extra_info["counters"] = counters
    _reports[f"pairwise-{name}"] = {
        "pairs": len(queries) ** 2,
        "verdicts": verdicts,
        "seconds": round(benchmark.stats.stats.median, 6),
        "counters": counters,
    }


@pytest.mark.parametrize("name", ["figure-10", "figure-14"])
def test_minimize_program(benchmark, name):
    problem = {
        "figure-10": cars.figure10_problem,
        "figure-14": cars.figure14_problem,
    }[name]()
    program = MappingSystem(problem, optimize=False).query_result().program

    def run():
        reset_default_engine()
        with use_tracer(Tracer()) as tracer:
            result = minimize_program(program)
        return result, dict(tracer.counters)

    result, counters = benchmark(run)
    assert result.removed  # both scenarios have one provably redundant rule
    benchmark.extra_info["counters"] = counters
    _reports[f"minimize-{name}"] = {
        "rules": len(program.rules),
        "removed": len(result.removed),
        "seconds": round(benchmark.stats.stats.median, 6),
        "counters": counters,
    }


@pytest.mark.parametrize("name", ["figure-1", "figure-12"])
def test_differential_verification(benchmark, name):
    problem = {
        "figure-1": cars.figure1_problem,
        "figure-12": cars.figure12_problem,
    }[name]()

    def run():
        reset_default_engine()
        system = MappingSystem(problem)
        with use_tracer(Tracer()) as tracer:
            report = system.verify()
        return report, dict(tracer.counters)

    report, counters = benchmark(run)
    assert report.ok
    benchmark.extra_info["counters"] = counters
    _reports[f"verify-{name}"] = {
        "checks": len(report.checks),
        "seconds": round(benchmark.stats.stats.median, 6),
        "counters": counters,
    }


@pytest.fixture(scope="module", autouse=True)
def _write_bench_report():
    """Serialize every collected report once the module's benchmarks ran."""
    yield
    if _reports:
        payload = {name: _reports[name] for name in sorted(_reports)}
        stamped = stamp_metadata(payload)
        OUTPUT_PATH.write_text(json.dumps(stamped, indent=2) + "\n")
