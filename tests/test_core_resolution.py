"""Tests for soft key-conflict resolution (Examples 6.4, 6.7, C.2, C.4)."""

import pytest

from repro.core.conflicts import COPY, INVENT, NULL_KIND, term_kind
from repro.core.functionality import PairChecker
from repro.core.query_generation import rewrite_to_unitary
from repro.core.resolution import FunctorUnifier, _fusion_core, resolve_key_conflicts
from repro.core.schema_mapping import generate_schema_mapping
from repro.core.skolem import skolemize_schema_mapping
from repro.errors import HardKeyConflictError
from repro.logic.terms import NULL_TERM, SkolemTerm, Variable
from repro.scenarios import cars
from repro.scenarios.appendix_c import example_6_7_problem, example_c4_problem


def _resolve(problem):
    result = generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    )
    skolemized = skolemize_schema_mapping(
        list(result.schema_mapping), problem.target_schema
    )
    unitary = rewrite_to_unitary(skolemized)
    final, report = resolve_key_conflicts(
        PairChecker(unitary, problem.source_schema, problem.target_schema)
    )
    return final, report


class TestExample64:
    """Example 6.4: the null-producing C2 mapping is disabled for owned cars."""

    def test_null_mapping_gets_negation(self, figure1_problem):
        final, report = _resolve(figure1_problem)
        c2_null = [
            m
            for m in final
            if m.consequent.relation == "C2" and m.consequent.terms[2] is NULL_TERM
        ]
        assert len(c2_null) == 1
        [negation] = c2_null[0].premise.negated
        # not { c | O3(c, p'), C3(c, m'), P3(p', n', e') }
        assert [a.relation for a in negation.atoms] == ["O3", "C3", "P3"]
        assert len(negation.correlated) == 1
        # correlated on the mapping's own key variable
        assert negation.correlated[0] is c2_null[0].consequent.terms[0]

    def test_preferred_mapping_unchanged(self, figure1_problem):
        final, report = _resolve(figure1_problem)
        c2_copy = [
            m
            for m in final
            if m.consequent.relation == "C2"
            and term_kind(m.consequent.terms[2]) == COPY
        ]
        assert len(c2_copy) == 1
        assert not c2_copy[0].premise.negated

    def test_no_fusion_for_one_sided_preference(self, figure1_problem):
        final, report = _resolve(figure1_problem)
        assert report.fused == []


class TestSiblingPropagation:
    """Example C.1: the P2a sibling of the disabled C2a mapping is disabled too."""

    def test_siblings_share_negation(self):
        final, report = _resolve(cars.figure10_problem())
        rewritten = [m for m in final if m.premise.negated]
        # Both unitary mappings of the C3 -> C2a, P2a original get the same
        # negation.
        assert len(rewritten) == 2
        origins = {m.origin for m in rewritten}
        assert len(origins) == 1
        signatures = {m.premise.negated[0].signature() for m in rewritten}
        assert len(signatures) == 1
        relations = {m.consequent.relation for m in rewritten}
        assert relations == {"C2a", "P2a"}


class TestExample67:
    """Example 6.7: Skolem unification and a fused mapping."""

    def test_functors_unified_and_propagated(self):
        final, report = _resolve(example_6_7_problem())
        x_terms = [
            m.consequent.terms[3]
            for m in final
            if m.consequent.relation == "T"
        ]
        functors = {t.functor for t in x_terms if isinstance(t, SkolemTerm)}
        assert len(functors) == 1  # all three rules use the same f_x
        assert report.functor_renaming  # a merge happened

    def test_three_final_mappings(self):
        final, report = _resolve(example_6_7_problem())
        assert len(final) == 3
        assert len(report.fused) == 1

    def test_fused_mapping_picks_best(self):
        final, report = _resolve(example_6_7_problem())
        [fused] = report.fused
        kinds = [term_kind(t) for t in fused.consequent.terms]
        assert kinds == [COPY, COPY, COPY, INVENT]  # k, a, b copied; x invented
        assert not fused.premise.negated  # nothing outside M is preferable

    def test_rewritten_originals_disabled(self):
        final, report = _resolve(example_6_7_problem())
        originals = [m for m in final if m not in report.fused]
        assert all(len(m.premise.negated) == 1 for m in originals)


class TestExampleC4:
    """Example C.4: three-way conflict, four fused mappings."""

    def test_fusion_count(self):
        final, report = _resolve(example_c4_problem())
        assert len(report.fused) == 4  # {1,2}, {1,3}, {2,3}, {1,2,3}
        assert len(final) == 3 + 4

    def test_rewritten_originals_have_two_negations(self):
        final, report = _resolve(example_c4_problem())
        originals = [m for m in final if m not in report.fused]
        assert all(len(m.premise.negated) == 2 for m in originals)

    def test_pairwise_fusions_have_one_negation(self):
        final, report = _resolve(example_c4_problem())
        pairwise = [m for m in report.fused if m.origin.count("+") == 1]
        triple = [m for m in report.fused if m.origin.count("+") == 2]
        assert len(pairwise) == 3 and len(triple) == 1
        assert all(len(m.premise.negated) == 1 for m in pairwise)
        assert not triple[0].premise.negated

    def test_triple_fusion_copies_everything(self):
        final, report = _resolve(example_c4_problem())
        [triple] = [m for m in report.fused if m.origin.count("+") == 2]
        kinds = [term_kind(t) for t in triple.consequent.terms]
        assert kinds == [COPY, COPY, COPY, COPY]

    def test_s1_s3_fusion_unifies_b_functors(self):
        final, report = _resolve(example_c4_problem())
        b_functors = set()
        for mapping in final:
            term = mapping.consequent.terms[2]
            if isinstance(term, SkolemTerm):
                b_functors.add(term.functor)
        assert len(b_functors) == 1  # unified and propagated (Example 6.7 policy)
        assert "+" in next(iter(b_functors))  # merged name mentions both origins


class TestExampleC2Resolution:
    def test_single_fusion_of_owner_and_driver(self):
        final, report = _resolve(cars.figure12_problem())
        assert len(report.fused) == 1
        [fused] = report.fused
        kinds = [term_kind(t) for t in fused.consequent.terms]
        assert kinds == [COPY, COPY, COPY, COPY]

    def test_null_mapping_disabled_twice(self):
        final, report = _resolve(cars.figure12_problem())
        null_mapping = [
            m
            for m in final
            if m.consequent.relation == "Cod"
            and m.consequent.terms[2] is NULL_TERM
            and m.consequent.terms[3] is NULL_TERM
        ]
        assert len(null_mapping) == 1
        assert len(null_mapping[0].premise.negated) == 2


class TestHardConflictError:
    def test_raised_during_resolution(self):
        from repro.core.pipeline import MappingProblem
        from repro.model.builder import SchemaBuilder

        source = (
            SchemaBuilder("src").relation("A", "k", "v").relation("B", "k", "v").build()
        )
        target = SchemaBuilder("tgt").relation("T", "k", "v").build()
        problem = MappingProblem(source, target)
        for relation in ("A", "B"):
            problem.add_correspondence(f"{relation}.k", "T.k")
            problem.add_correspondence(f"{relation}.v", "T.v")
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        skolemized = skolemize_schema_mapping(
            list(result.schema_mapping), problem.target_schema
        )
        with pytest.raises(HardKeyConflictError):
            resolve_key_conflicts(
                PairChecker(
                    rewrite_to_unitary(skolemized),
                    problem.source_schema,
                    problem.target_schema,
                )
            )


class TestFunctorUnifier:
    def test_merged_names(self):
        unifier = FunctorUnifier()
        unifier.unify("f_b@m1", "f_b@m3")
        renaming = unifier.renaming()
        assert renaming["f_b@m1"] == "f_b@m1+m3"
        assert renaming["f_b@m3"] == "f_b@m1+m3"

    def test_transitive_merge(self):
        unifier = FunctorUnifier()
        unifier.unify("f_x@m1", "f_x@m2")
        unifier.unify("f_x@m2", "f_x@m3")
        renaming = unifier.renaming()
        assert renaming["f_x@m1"] == "f_x@m1+m2+m3"

    def test_untouched_functors_not_renamed(self):
        unifier = FunctorUnifier()
        unifier.unify("f_a@m1", "f_a@m2")
        renaming = unifier.renaming()
        assert "f_b@m9" not in renaming


class TestFusionCore:
    """Fusion only enumerates subsets of the members that keep an out-edge."""

    def test_no_edges_gives_the_empty_set(self):
        assert _fusion_core(16, {}) == []
        assert _fusion_core(3, {(0, 1): set()}) == []

    def test_two_cycle_plus_a_member_without_out_edge(self):
        preferred_over = {(0, 2): {"a"}, (2, 0): {"b"}, (0, 1): {"a"}}
        # Member 1 is preferred against but never preferred over anyone.
        assert _fusion_core(3, preferred_over) == [0, 2]

    def test_chain_peels_to_nothing(self):
        # 0 -> 1 -> 2: deleting 2 strands 1, then 0.
        assert _fusion_core(3, {(0, 1): {"a"}, (1, 2): {"a"}}) == []
