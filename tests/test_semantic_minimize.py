"""Tests for the semantic minimizer (SEM001/SEM002) and its soundness."""

from repro.analysis.semantic.minimize import (
    mapping_diagnostics,
    minimize_program,
    minimize_unitary_mappings,
)
from repro.core.pipeline import MappingSystem
from repro.datalog.engine import evaluate
from repro.scenarios import cars, synthetic


def _unoptimized(problem):
    return MappingSystem(problem, optimize=False)


class TestProgramMinimization:
    def test_figure10_removes_redundant_projection(self):
        system = _unoptimized(cars.figure10_problem())
        program = system.query_result().program
        result = minimize_program(program)
        assert len(result.removed) == 1
        removal = result.removed[0]
        assert removal.rule.head_relation == "P2a"
        assert len(removal.rule.body) > len(removal.by.body)
        assert removal.witness.kind == "homomorphism"
        assert len(result.program.rules) == len(program.rules) - 1

    def test_figure14_removes_rule_with_nonnull_condition(self):
        system = _unoptimized(cars.figure14_problem())
        program = system.query_result().program
        result = minimize_program(program)
        assert len(result.removed) == 1
        assert result.removed[0].rule.head_relation == "P3"
        # The removed rule carries the p != null condition of the join.
        assert result.removed[0].rule.nonnull_vars

    def test_removal_matches_syntactic_optimizer(self):
        for problem in (cars.figure1_problem(), cars.figure7_problem(),
                        cars.figure10_problem(), cars.figure14_problem()):
            unopt = _unoptimized(problem).query_result().program
            opt = MappingSystem(problem).query_result().program
            minimized = minimize_program(unopt).program
            assert len(minimized.rules) == len(opt.rules), problem.name

    def test_optimized_program_is_already_minimal(self):
        for problem in (cars.figure1_problem(), cars.figure10_problem(),
                        cars.figure12_problem(), cars.figure14_problem()):
            program = MappingSystem(problem).query_result().program
            assert minimize_program(program).removed == [], problem.name

    def test_minimized_program_computes_the_same_target(self):
        cases = [
            (cars.figure10_problem(), cars.cars3_source_instance()),
            (cars.figure10_problem(), synthetic.cars3_instance(6, 8, seed=3)),
            (cars.figure14_problem(), synthetic.cars2_instance(5, 7, seed=1)),
        ]
        for problem, source in cases:
            program = _unoptimized(problem).query_result().program
            minimized = minimize_program(program)
            assert minimized.removed, problem.name
            before = evaluate(program, source).target
            after = evaluate(minimized.program, source).target
            assert before == after, problem.name

    def test_diagnostics_carry_witnesses(self):
        program = _unoptimized(cars.figure10_problem()).query_result().program
        diags = minimize_program(program).diagnostics
        assert [d.code for d in diags] == ["SEM001"]
        assert diags[0].witness and "->" in diags[0].witness
        assert "witness" in diags[0].render()


class TestUnitaryMinimization:
    def test_figure10_flags_subsumed_mapping(self):
        system = MappingSystem(cars.figure10_problem())
        final = system.query_result().final
        flagged = minimize_unitary_mappings(final)
        assert len(flagged) == 1
        item = flagged[0]
        assert item.mapping.consequent.relation == "P2a"
        assert len(item.mapping.premise.atoms) > len(item.by.premise.atoms)
        diags = mapping_diagnostics(flagged)
        assert [d.code for d in diags] == ["SEM002"]
        assert diags[0].witness

    def test_figure1_flags_only_the_p2_projection(self):
        # Figure 1: m3's P2 projection is subsumed by m1 (the rule the
        # syntactic optimizer drops); the C2 mappings partition on
        # p = null / != null and survive.
        system = MappingSystem(cars.figure1_problem())
        flagged = minimize_unitary_mappings(system.query_result().final)
        assert [item.mapping.consequent.relation for item in flagged] == ["P2"]
        assert all(
            item.mapping.consequent.relation != "C2" for item in flagged
        )
