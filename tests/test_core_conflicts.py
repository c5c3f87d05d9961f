"""Tests for key-conflict identification (Example 6.3 and friends)."""

import json
import os

from repro.core.conflicts import (
    COPY,
    INVENT,
    NULL_KIND,
    find_all_conflicts,
    conflicting_sets,
    pair_conflicts,
    term_kind,
)
from repro.core.functionality import PairChecker
from repro.core.pipeline import MappingSystem
from repro.core.query_generation import rewrite_to_unitary
from repro.core.schema_mapping import generate_schema_mapping
from repro.core.skolem import skolemize_schema_mapping
from repro.logic.terms import NULL_TERM, Constant, SkolemTerm, Variable
from repro.scenarios import bundled_problems, cars

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "conflicts.json")


def _unitary(problem):
    result = generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    )
    skolemized = skolemize_schema_mapping(
        list(result.schema_mapping), problem.target_schema
    )
    return problem, rewrite_to_unitary(skolemized)


class TestTermKind:
    def test_kinds(self):
        assert term_kind(Variable("x")) == COPY
        assert term_kind(Constant("c")) == COPY
        assert term_kind(NULL_TERM) == NULL_KIND
        assert term_kind(SkolemTerm("f", [])) == INVENT


class TestExample63:
    """Example 6.3 on the Figure 1 problem."""

    def test_p2_mappings_do_not_conflict(self, figure1_problem):
        problem, unitary = _unitary(figure1_problem)
        p2_mappings = conflicting_sets(unitary)["P2"]
        assert len(p2_mappings) == 2
        conflicts = pair_conflicts(
            PairChecker(p2_mappings, problem.source_schema, problem.target_schema), 0, 1
        )
        assert conflicts == []  # the fourth generates a subset of the first

    def test_c2_mappings_soft_conflict_on_person(self, figure1_problem):
        problem, unitary = _unitary(figure1_problem)
        c2_mappings = conflicting_sets(unitary)["C2"]
        assert len(c2_mappings) == 2
        conflicts = pair_conflicts(
            PairChecker(c2_mappings, problem.source_schema, problem.target_schema), 0, 1
        )
        assert len(conflicts) == 1
        [conflict] = conflicts
        assert conflict.attribute == "person"
        assert {conflict.left_kind, conflict.right_kind} == {NULL_KIND, COPY}
        assert not conflict.is_hard
        # The copying mapping is preferred.
        preferred = (
            conflict.left if conflict.preferred == "left" else conflict.right
        )
        assert term_kind(preferred.consequent.terms[2]) == COPY

    def test_no_conflict_on_model(self, figure1_problem):
        # The key c determines model via C3's key in both premises.
        problem, unitary = _unitary(figure1_problem)
        conflicts = find_all_conflicts(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )
        assert all(c.attribute != "model" for c in conflicts)


class TestExampleC1Conflicts:
    def test_invented_key_never_conflicts(self):
        # C.1: the C3 -> P2a mapping invents its key, so it cannot conflict.
        problem, unitary = _unitary(cars.figure10_problem())
        p2a = conflicting_sets(unitary)["P2a"]
        assert len(p2a) == 3
        conflicts = find_all_conflicts(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )
        p2a_conflicts = [c for c in conflicts if c.left.consequent.relation == "P2a"]
        assert p2a_conflicts == []

    def test_c2a_soft_conflict_on_person(self):
        problem, unitary = _unitary(cars.figure10_problem())
        conflicts = find_all_conflicts(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )
        c2a = [c for c in conflicts if c.left.consequent.relation == "C2a"]
        assert len(c2a) == 1
        assert c2a[0].attribute == "person"
        assert {c2a[0].left_kind, c2a[0].right_kind} == {INVENT, COPY}


class TestExampleC2Conflicts:
    def test_pairwise_preferences(self):
        problem, unitary = _unitary(cars.figure12_problem())
        conflicts = find_all_conflicts(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )
        # m1 vs m2 on o_name, m1 vs m3 on d_name, m2 vs m3 on both.
        attributes = sorted(c.attribute for c in conflicts)
        assert attributes == ["d_name", "d_name", "o_name", "o_name"]
        assert all(not c.is_hard for c in conflicts)


class TestExample67Conflicts:
    def test_equal_preference_invent_invent(self):
        from repro.scenarios.appendix_c import example_6_7_problem

        problem, unitary = _unitary(example_6_7_problem())
        conflicts = find_all_conflicts(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )
        by_attribute = {}
        for conflict in conflicts:
            by_attribute.setdefault(conflict.attribute, []).append(conflict)
        assert set(by_attribute) == {"a", "b", "x"}
        [x_conflict] = by_attribute["x"]
        assert x_conflict.preferred == "equal"
        assert x_conflict.left_kind == INVENT and x_conflict.right_kind == INVENT


class TestHardConflicts:
    def test_two_copies_conflict_hard(self):
        from repro.core.pipeline import MappingProblem
        from repro.model.builder import SchemaBuilder

        source = (
            SchemaBuilder("src")
            .relation("A", "k", "v")
            .relation("B", "k", "v")
            .build()
        )
        target = SchemaBuilder("tgt").relation("T", "k", "v").build()
        problem = MappingProblem(source, target)
        problem.add_correspondence("A.k", "T.k")
        problem.add_correspondence("A.v", "T.v")
        problem.add_correspondence("B.k", "T.k")
        problem.add_correspondence("B.v", "T.v")
        problem, unitary = _unitary(problem)
        conflicts = find_all_conflicts(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )
        assert any(c.is_hard for c in conflicts)
        assert "T.v" in str(conflicts[0]) or "v" in str(conflicts[0])


class TestBundledConflicts:
    def test_conflicts_match_fixture(self):
        """Every bundled scenario's (relation, attribute, kinds) conflict list.

        The fixture pins what Algorithm 4 identifies on the unitary mappings
        query generation resolves, in order; a change to the closure or the
        probes that moves a verdict shows up as a fixture diff.
        """
        with open(FIXTURE) as handle:
            expected = json.load(handle)
        actual = {}
        for name, problem in bundled_problems().items():
            system = MappingSystem(problem)
            schema_mapping = system.schema_mapping
            actual[name] = [
                [c.left.consequent.relation, c.attribute, c.left_kind, c.right_kind]
                for c in find_all_conflicts(
                    PairChecker(
                        system.query_result().unitary,
                        schema_mapping.source_schema,
                        schema_mapping.target_schema,
                    )
                )
            ]
        assert actual == expected
