"""End-to-end tests for composite keys (the paper's "minor modification")."""

import pytest

from repro.core.conflicts import find_all_conflicts
from repro.core.functionality import PairChecker
from repro.core.pipeline import MappingSystem
from repro.core.query_generation import rewrite_to_unitary
from repro.core.schema_mapping import generate_schema_mapping
from repro.core.skolem import skolemize_schema_mapping
from repro.logic.terms import SkolemTerm, Variable
from repro.model.validation import validate_instance
from repro.model.values import NULL
from repro.scenarios.composite import (
    composite_skolem_problem,
    enrollment_expected_target,
    enrollment_problem,
    enrollment_source_instance,
)
from repro.sqlgen import run_on_sqlite


class TestEnrollmentConsolidation:
    """Fusion over a composite key: the (course, student) analogue of C.2."""

    def test_schema_mapping(self):
        problem = enrollment_problem()
        system = MappingSystem(problem)
        assert len(system.schema_mapping) == 2
        premises = {
            tuple(a.relation for a in m.premise.atoms) for m in system.schema_mapping
        }
        assert premises == {("Grade",), ("Mentor",)}

    def test_conflicts_on_both_attributes(self):
        problem = enrollment_problem()
        schema_mapping = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        ).schema_mapping
        unitary = rewrite_to_unitary(
            skolemize_schema_mapping(list(schema_mapping), problem.target_schema)
        )
        conflicts = find_all_conflicts(
            PairChecker(unitary, problem.source_schema, problem.target_schema)
        )
        assert sorted(c.attribute for c in conflicts) == ["grade", "mentor"]
        assert all(not c.is_hard for c in conflicts)

    def test_fused_mapping_shares_both_key_variables(self):
        system = MappingSystem(enrollment_problem())
        [fused] = system.query_result().resolution.fused
        course_var, student_var = fused.consequent.terms[0], fused.consequent.terms[1]
        assert isinstance(course_var, Variable)
        assert isinstance(student_var, Variable)
        # Both members' premises were re-keyed onto the shared variables.
        for atom in fused.premise.atoms:
            assert atom.terms[0] is course_var
            assert atom.terms[1] is student_var

    def test_negations_correlated_on_both_keys(self):
        system = MappingSystem(enrollment_problem())
        negated = [m for m in system.query_result().final if m.premise.negated]
        assert negated
        for mapping in negated:
            for negation in mapping.premise.negated:
                assert len(negation.correlated) == 2

    def test_transformation_output(self):
        system = MappingSystem(enrollment_problem())
        output = system.transform(enrollment_source_instance())
        assert output == enrollment_expected_target()
        assert validate_instance(output).ok

    def test_sqlite_parity(self):
        system = MappingSystem(enrollment_problem())
        source = enrollment_source_instance()
        assert run_on_sqlite(
            system.transformation, source, enforce_constraints=True
        ) == system.transform(source)

    def test_tmp_relations_have_arity_two(self):
        system = MappingSystem(enrollment_problem())
        assert set(system.transformation.intermediates.values()) == {2}


class TestCompositeSkolemization:
    def test_functor_depends_on_whole_key(self):
        system = MappingSystem(composite_skolem_problem())
        [rule] = system.transformation.rules_for("Timetable")
        room = rule.head.terms[3]
        assert isinstance(room, SkolemTerm)
        # All-Source-Or-Key-Vars, non-key case: the key terms (day, hour).
        assert len(room.args) == 2
        assert room.args[0] is rule.head.terms[0]
        assert room.args[1] is rule.head.terms[1]

    def test_functional_per_slot(self):
        from repro.model.instance import instance_from_dict

        problem = composite_skolem_problem()
        system = MappingSystem(problem)
        source = instance_from_dict(
            problem.source_schema,
            {
                "Slot": [
                    ("mon", "9", "codd"),
                    ("mon", "10", "codd"),
                    ("tue", "9", "dijkstra"),
                ]
            },
        )
        output = system.transform(source)
        rooms = {row[3] for row in output.relation("Timetable")}
        assert len(rooms) == 3  # one invented room per (day, hour)
        assert validate_instance(output).ok


class TestCompositeKeyFunctionality:
    def test_agreement_on_partial_key_is_fine(self):
        """Two tuples sharing only part of the key never key-conflict."""
        from repro.model.instance import instance_from_dict

        problem = enrollment_problem()
        system = MappingSystem(problem)
        source = instance_from_dict(
            problem.source_schema,
            {
                "Grade": [("db", "ada", "A"), ("db", "alan", "F")],
                "Mentor": [],
            },
        )
        output = system.transform(source)
        assert len(output.relation("Enrollment")) == 2
        assert validate_instance(output).ok

    def test_hard_conflict_detected_with_composite_keys(self):
        from repro.core.pipeline import MappingProblem
        from repro.errors import HardKeyConflictError
        from repro.model.builder import SchemaBuilder

        source = (
            SchemaBuilder("s")
            .relation("A", "c", "s", "v", key=["c", "s"])
            .relation("B", "c", "s", "v", key=["c", "s"])
            .build()
        )
        target = (
            SchemaBuilder("t").relation("T", "c", "s", "v", key=["c", "s"]).build()
        )
        problem = MappingProblem(source, target)
        for relation in ("A", "B"):
            problem.add_correspondence(f"{relation}.c", "T.c")
            problem.add_correspondence(f"{relation}.s", "T.s")
            problem.add_correspondence(f"{relation}.v", "T.v")
        with pytest.raises(HardKeyConflictError):
            MappingSystem(problem).transformation
