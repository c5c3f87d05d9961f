"""Tests for the Skolem-unification propagation policy and rule statistics."""

from repro.core.functionality import PairChecker
from repro.core.query_generation import generate_queries, rewrite_to_unitary
from repro.core.resolution import resolve_key_conflicts
from repro.core.schema_mapping import generate_schema_mapping
from repro.core.skolem import skolemize_schema_mapping
from repro.datalog.engine import evaluate
from repro.logic.terms import SkolemTerm
from repro.model.instance import instance_from_dict
from repro.scenarios.appendix_c import example_6_7_problem, example_c4_problem


def _resolve(problem, propagate):
    schema_mapping = generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    ).schema_mapping
    unitary = rewrite_to_unitary(
        skolemize_schema_mapping(list(schema_mapping), problem.target_schema)
    )
    return resolve_key_conflicts(
        PairChecker(unitary, problem.source_schema, problem.target_schema),
        propagate_unification=propagate,
    )


class TestPropagationPolicy:
    def test_c4_without_propagation_matches_paper_listing(self):
        """Example C.4's listing: originals keep f^1_b; fusions use f^{1,3}_b."""
        final, report = _resolve(example_c4_problem(), propagate=False)
        originals = final[: len(final) - len(report.fused)]
        fused = report.fused
        original_b = {
            t.functor
            for m in originals
            for t in [m.consequent.terms[2]]
            if isinstance(t, SkolemTerm)
        }
        fused_b = {
            t.functor
            for m in fused
            for t in [m.consequent.terms[2]]
            if isinstance(t, SkolemTerm)
        }
        assert all("+" not in f for f in original_b)  # un-merged names kept
        assert any("+" in f for f in fused_b)  # fusion uses the merged functor

    def test_c4_with_propagation_matches_example_6_7(self):
        final, _report = _resolve(example_c4_problem(), propagate=True)
        b_functors = {
            t.functor
            for m in final
            for t in [m.consequent.terms[2]]
            if isinstance(t, SkolemTerm)
        }
        assert len(b_functors) == 1 and "+" in next(iter(b_functors))

    def test_policies_agree_up_to_invented_renaming(self):
        """Both policies produce homomorphically equivalent outputs."""
        from repro.core.pipeline import MappingProblem
        from repro.datalog import evaluate
        from repro.core.query_generation import build_program
        from repro.exchange.solutions import homomorphically_equivalent

        problem = example_6_7_problem()
        source = instance_from_dict(
            problem.source_schema,
            {"S1": [("k1", "a1")], "S2": [("k2", "b2")]},
        )
        outputs = []
        for propagate in (True, False):
            final, _ = _resolve(problem, propagate)
            program = build_program(
                final, problem.source_schema, problem.target_schema
            )
            outputs.append(evaluate(program, source).target)
        assert homomorphically_equivalent(outputs[0], outputs[1])


class TestRuleStatistics:
    def test_rule_counts_reported(self, figure1_problem, cars3_instance):
        from repro.core.pipeline import MappingSystem

        system = MappingSystem(figure1_problem)
        program = system.transformation
        result = evaluate(program, cars3_instance)
        assert len(result.rule_counts) == len(program.rules)
        by_head = {
            (program.rules[i].head_relation, tuple(a.relation for a in program.rules[i].body)): count
            for i, count in enumerate(result.rule_counts)
        }
        assert by_head[("P2", ("P3",))] == 2
        assert by_head[("OCtmp", ("O3", "C3", "P3"))] == 1
        assert by_head[("C2", ("C3",))] == 1  # only the ownerless car
        assert by_head[("C2", ("O3", "C3", "P3"))] == 1
