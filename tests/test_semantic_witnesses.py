"""Golden containment and implication witnesses of every bundled scenario.

Every answer the containment engine gives while the verification stack runs
over a bundled scenario — the certifier's foreign-key proofs (CER002), the
SQL round-trip check (``repro sql --check``), the semantic verifier,
``minimize_program`` and semantic candidate pruning — is recorded in call
order, rendered (``null`` when nothing was proved), and compared against
``tests/fixtures/witnesses.json``.  A change to how canonical instances are
frozen or matched that renames a frozen value or moves a verdict shows up
as a reviewable fixture diff.

Regenerate after an intentional change with::

    REGEN_WITNESSES=1 PYTHONPATH=src python -m pytest tests/test_semantic_witnesses.py -q
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import pytest

from repro.analysis.semantic.containment import (
    ContainmentEngine,
    reset_default_engine,
)
from repro.analysis.semantic.minimize import minimize_program
from repro.core.pipeline import MappingSystem
from repro.scenarios import bundled_problems

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "witnesses.json")

#: stage name -> what it runs on a fresh MappingSystem of the problem
STAGES = {
    "certify": lambda system: system.certify(),
    "sql": lambda system: system.sql_report(),
    "verify": lambda system: system.verify(),
    "minimize": lambda system: minimize_program(system.transformation),
    "pruning": lambda system: MappingSystem(
        system.problem, semantic_pruning=True
    ).schema_mapping,
}


@contextmanager
def _recording(log: list):
    """Record every ``contained_in`` / ``mapping_implies`` answer into log."""
    originals = {
        name: getattr(ContainmentEngine, name)
        for name in ("contained_in", "mapping_implies")
    }

    def wrap(original):
        def recorded(self, *args, **kwargs):
            witness = original(self, *args, **kwargs)
            log.append(None if witness is None else repr(witness))
            return witness

        return recorded

    for name, original in originals.items():
        setattr(ContainmentEngine, name, wrap(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(ContainmentEngine, name, original)


def _witnesses(name: str) -> dict[str, list]:
    problem = bundled_problems()[name]
    system = MappingSystem(problem)
    system.transformation  # compile outside the recorded stages
    recorded = {}
    for stage, run in STAGES.items():
        reset_default_engine()  # cache hits must not depend on test order
        log: list = []
        with _recording(log):
            run(system)
        recorded[stage] = log
    return recorded


def _scenario_names():
    return sorted(bundled_problems())


def _golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module", autouse=True)
def _regenerate_if_requested():
    if os.environ.get("REGEN_WITNESSES"):
        payload = {name: _witnesses(name) for name in _scenario_names()}
        with open(FIXTURE, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True, ensure_ascii=False)
            handle.write("\n")
    yield


def test_fixture_covers_every_bundled_scenario():
    assert sorted(_golden()) == _scenario_names()


@pytest.mark.parametrize("name", _scenario_names())
def test_witnesses_match_fixture(name):
    assert _witnesses(name) == _golden()[name], (
        f"containment witnesses drifted for {name!r}; if the change is "
        "intentional, regenerate with REGEN_WITNESSES=1"
    )


def test_cached_witnesses_do_not_depend_on_call_history():
    """A rewrite certificate reads the same cold and after the SQL check ran
    (whose lowered queries are alpha-equivalent to the rules)."""
    problem = bundled_problems()["appendix-A.1"]

    def rewrite_details(warm: bool) -> list[str]:
        reset_default_engine()
        system = MappingSystem(problem)
        if warm:
            system.sql_report()
        return [
            check.detail
            for check in system.verify().checks
            if check.name == "resolution:rewrite"
        ]

    cold = rewrite_details(warm=False)
    assert cold and rewrite_details(warm=True) == cold


def test_fixture_exercises_every_stage():
    """Every stage asks the engine, and some scenario gets a proof from it."""
    golden = _golden()
    for stage in STAGES:
        assert any(per_stage[stage] for per_stage in golden.values()), stage
    for stage in ("certify", "sql", "verify", "pruning"):
        assert any(
            witness for per_stage in golden.values() for witness in per_stage[stage]
        ), stage
