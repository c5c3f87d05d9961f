"""Golden evaluation telemetry of every bundled scenario on both engines.

Each bundled problem is compiled and run on the FK-aware synthetic source
of ``tests/test_explain_analyze.py`` by the reference interpreter and by the
batch runtime, each under its own :class:`~repro.obs.Tracer`.  The tracer's
counter totals, ``EvaluationResult.rule_counts`` and the EXPLAIN ANALYZE
profile (``profile.to_dict()`` with every wall-clock ``seconds`` field
dropped) are compared against ``tests/fixtures/evaluation.json``.  A change
to how either engine evaluates, counts or profiles a program shows up as a
reviewable fixture diff.

Regenerate after an intentional change with::

    REGEN_EVALUATION=1 PYTHONPATH=src python -m pytest tests/test_evaluation_golden.py -q
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.pipeline import MappingSystem
from repro.datalog.engine import evaluate
from repro.datalog.exec import evaluate_batch
from repro.obs import Tracer, use_tracer
from repro.scenarios import bundled_problems

from .test_explain_analyze import synthetic_source

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "evaluation.json")

ENGINES = {"reference": evaluate, "batch": evaluate_batch}


def _untimed(value):
    """``value`` with every ``seconds``-suffixed key removed, recursively."""
    if isinstance(value, dict):
        return {
            key: _untimed(item)
            for key, item in value.items()
            if not key.endswith("seconds")
        }
    if isinstance(value, list):
        return [_untimed(item) for item in value]
    return value


def _evaluation(name: str) -> dict:
    problem = bundled_problems()[name]
    program = MappingSystem(problem).transformation
    source = synthetic_source(problem)
    recorded = {}
    for engine, run in ENGINES.items():
        tracer = Tracer()
        with use_tracer(tracer):
            result = run(program, source)
        recorded[engine] = {
            "counters": dict(sorted(tracer.counters.items())),
            "rule_counts": result.rule_counts,
            "profile": _untimed(result.profile.to_dict()),
        }
    return recorded


def _scenario_names():
    return sorted(bundled_problems())


def _golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module", autouse=True)
def _regenerate_if_requested():
    if os.environ.get("REGEN_EVALUATION"):
        payload = {name: _evaluation(name) for name in _scenario_names()}
        with open(FIXTURE, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True, ensure_ascii=False)
            handle.write("\n")
    yield


def test_fixture_covers_every_bundled_scenario():
    assert sorted(_golden()) == _scenario_names()


@pytest.mark.parametrize("name", _scenario_names())
def test_evaluation_matches_fixture(name):
    assert _evaluation(name) == _golden()[name], (
        f"evaluation telemetry drifted for {name!r}; if the change is "
        "intentional, regenerate with REGEN_EVALUATION=1"
    )


def test_engines_agree_on_comparable_rollups():
    """Both engines report the same per-rule and per-stratum row counts."""
    for name, engines in _golden().items():
        reference, batch = engines["reference"], engines["batch"]
        assert reference["rule_counts"] == batch["rule_counts"], name
        for ours, theirs in zip(
            reference["profile"]["strata"], batch["profile"]["strata"]
        ):
            assert ours["rows"] == theirs["rows"], name
            assert [r["rows_unique"] for r in ours["rules"]] == [
                r["rows_unique"] for r in theirs["rules"]
            ], name
