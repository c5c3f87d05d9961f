"""Validity properties of the seeded scenario generator.

Every weakly acyclic generated scenario must be *boring* in the best sense:
lint-clean, with a valid paired source instance, certifying bounded with no
refutations, and rendering to DSL text that parses back to the same problem
and instance.  Cyclic mode must be reliably broken — ``SCH010`` from the
lint, :class:`WeakAcyclicityError` from validation, and a refusal from the
``MappingSystem`` constructor — while still pairing a valid instance (the
two-phase builder handles reciprocal foreign keys).  These are the
invariants the eval matrix (``repro eval``) leans on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.analyzer import quick_lint
from repro.analysis.certify import PROVED, certify_program
from repro.core.pipeline import MappingSystem
from repro.dsl import parse_instance, parse_problem, render_instance, render_problem
from repro.errors import WeakAcyclicityError
from repro.model.validation import validate_instance
from repro.scenarios import generated_problems
from repro.scenarios.generator import (
    DEFAULT,
    SMALL,
    GeneratorConfig,
    generate_scenario,
    generate_unbounded_program,
)

from .strategies import generated_scenarios

CYCLIC = GeneratorConfig(weakly_acyclic=False)

seeds = st.integers(0, 499)


@settings(max_examples=30, deadline=None)
@given(generated_scenarios)
def test_generated_problems_lint_clean(scenario):
    """No generated weakly acyclic problem carries a lint *error*."""
    report = quick_lint(scenario.problem)
    assert report.errors == [], report.render()


@settings(max_examples=30, deadline=None)
@given(generated_scenarios)
def test_generated_instances_are_valid(scenario):
    """Paired source instances are key-unique and foreign-key closed."""
    report = validate_instance(scenario.source_instance)
    assert report.ok, report.summary()


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_weakly_acyclic_scenarios_certify_bounded(seed):
    """The certifier proves termination (no TRM001 downgrade), refutes nothing."""
    system = MappingSystem(generate_scenario(seed, SMALL).problem)
    report = system.certify()
    assert not report.refuted, report.render()
    termination = report.of_kind("termination")
    assert termination and all(v.verdict == PROVED for v in termination)
    assert system.cost_report().bounded


@settings(max_examples=20, deadline=None)
@given(generated_scenarios)
def test_dsl_round_trips(scenario):
    """Rendered DSL parses back to a problem that renders identically."""
    reparsed = parse_problem(scenario.dsl, name=scenario.name)
    assert render_problem(reparsed) == scenario.dsl
    instance = parse_instance(scenario.instance_text, scenario.problem.source_schema)
    assert instance == scenario.source_instance
    assert render_instance(instance) == scenario.instance_text


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_cyclic_mode_trips_weak_acyclicity(seed):
    """Cyclic scenarios are reliably rejected, with a valid instance anyway."""
    scenario = generate_scenario(seed, CYCLIC)
    report = quick_lint(scenario.problem)
    assert "SCH010" in sorted({d.code for d in report})
    with pytest.raises(WeakAcyclicityError):
        scenario.problem.source_schema.validate()
    with pytest.raises(WeakAcyclicityError):
        MappingSystem(scenario.problem)
    assert validate_instance(scenario.source_instance).ok


def test_unbounded_program_yields_trm001():
    """The recursive-Skolem program is the pinned TRM001 downgrade case."""
    report = certify_program(generate_unbounded_program(), subject="unbounded")
    termination = report.of_kind("termination")
    assert termination and termination[0].code == "TRM001"
    assert termination[0].verdict != PROVED
    assert not report.ok
    assert report.counts()["PROVED"] == 0  # everything downgraded to UNKNOWN


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_generation_is_deterministic_in_process(seed):
    """Same seed, same config — byte-identical DSL and instance text."""
    first = generate_scenario(seed, DEFAULT)
    second = generate_scenario(seed, DEFAULT)
    assert first.dsl == second.dsl
    assert first.instance_text == second.instance_text


def test_generated_problems_bridge_mirrors_bundled():
    problems = generated_problems(range(3))
    assert sorted(problems) == ["gen-0", "gen-1", "gen-2"]
    assert problems["gen-1"].name == "gen-1"
