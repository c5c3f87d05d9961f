"""Tests for the functionality check (Algorithm 4, step 2)."""

import pytest

from repro.core.functionality import (
    PairChecker,
    functionality_violations,
    rename_premise,
)
from repro.core.query_generation import generate_queries, rewrite_to_unitary
from repro.core.schema_mapping import generate_schema_mapping
from repro.core.skolem import skolemize_schema_mapping
from repro.errors import NonFunctionalMappingError
from repro.core.pipeline import MappingProblem
from repro.model.builder import SchemaBuilder
from repro.scenarios import cars


def _unitary_mappings(problem):
    result = generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    )
    skolemized = skolemize_schema_mapping(
        list(result.schema_mapping), problem.target_schema
    )
    return problem, rewrite_to_unitary(skolemized)


class TestExampleC1:
    """Example C.1 / 6.2: every unitary mapping of Figure 10 is functional."""

    def test_all_functional(self):
        problem, unitary = _unitary_mappings(cars.figure10_problem())
        checker = PairChecker(unitary, problem.source_schema, problem.target_schema)
        for index, mapping in enumerate(unitary):
            assert checker.violation(index) is None, repr(mapping)

    def test_functionality_violations_are_none(self):
        problem, unitary = _unitary_mappings(cars.figure10_problem())
        assert functionality_violations(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        ) == []


class TestNonFunctionalDetection:
    def _many_owners_problem(self):
        """A car may have many owners: O.car is NOT a key of O."""
        source = (
            SchemaBuilder("src")
            .relation("C", "car", "model")
            .relation("O", "oid", "car", "person")
            .foreign_key("O", "car", "C")
            .build()
        )
        target = (
            SchemaBuilder("tgt")
            .relation("T", "car", "model", "person")
            .build()
        )
        problem = MappingProblem(source, target)
        problem.add_correspondence("C.car", "T.car")
        problem.add_correspondence("C.model", "T.model")
        problem.add_correspondence("O.person", "T.person")
        return problem

    def test_example_6_2_negative_case(self):
        # "That mapping would not be functional if a car could have more than
        # one owner."
        problem = self._many_owners_problem()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        skolemized = skolemize_schema_mapping(
            list(result.schema_mapping), problem.target_schema
        )
        unitary = rewrite_to_unitary(skolemized)
        violations = functionality_violations(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )
        assert violations
        assert violations[0].attribute == "person"
        assert "person" in str(violations[0])

    def test_query_generation_signals_error(self):
        problem = self._many_owners_problem()
        result = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        )
        with pytest.raises(NonFunctionalMappingError):
            generate_queries(result.schema_mapping)


class TestRenaming:
    def test_rename_premise_is_fresh(self):
        problem, unitary = _unitary_mappings(cars.figure10_problem())
        original = unitary[0]
        renamed, renaming = rename_premise(original.premise)
        original_vars = set(original.premise.variables())
        renamed_vars = set(renamed.variables())
        assert not (original_vars & renamed_vars)
        assert set(renaming) == original_vars
        assert set(renaming.values()) == renamed_vars

    def test_rename_preserves_conditions(self):
        problem, unitary = _unitary_mappings(cars.figure14_problem())
        with_null = next(m for m in unitary if m.premise.null_vars)
        renamed, _ = rename_premise(with_null.premise)
        assert len(renamed.null_vars) == len(with_null.premise.null_vars)
        assert renamed.null_vars[0] is not with_null.premise.null_vars[0]


class TestSkolemizedHeads:
    def test_functor_heads_are_functional(self):
        # C.1's second mapping: P2a(f_p(c), f_n(f_p(c)), f_e(f_p(c))).
        problem, unitary = _unitary_mappings(cars.figure10_problem())
        invented = [
            m
            for m in unitary
            if m.consequent.relation == "P2a"
            and not m.consequent.terms[0].__class__.__name__ == "Variable"
        ]
        assert invented  # the C3 -> P2a mapping exists
        assert functionality_violations(
            PairChecker(invented, problem.source_schema, problem.target_schema)
        ) == []
