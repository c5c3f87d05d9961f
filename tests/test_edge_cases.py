"""Edge cases and regression tests across the pipeline."""

import pytest

from repro.core.pipeline import MappingProblem, MappingSystem
from repro.core.schema_mapping import generate_schema_mapping
from repro.errors import SchemaError
from repro.model.builder import SchemaBuilder
from repro.model.instance import Instance, instance_from_dict
from repro.model.values import NULL
from repro.scenarios import cars


class TestEmptyAndDegenerate:
    def test_no_correspondences_gives_empty_mapping(self, cars3, cars2):
        problem = MappingProblem(cars3, cars2)
        system = MappingSystem(problem)
        assert len(system.schema_mapping) == 0
        assert len(system.transformation.rules) == 0
        source = cars.cars3_source_instance()
        assert system.transform(source).total_size() == 0

    def test_single_attribute_relations(self):
        source = SchemaBuilder("s").relation("A", "k").build()
        target = SchemaBuilder("t").relation("B", "k").build()
        problem = MappingProblem(source, target)
        problem.add_correspondence("A.k", "B.k")
        system = MappingSystem(problem)
        instance = instance_from_dict(source, {"A": [("x",), ("y",)]})
        assert set(system.transform(instance).relation("B").rows) == {("x",), ("y",)}

    def test_self_join_source(self):
        # Two correspondences from the same source relation attribute.
        source = SchemaBuilder("s").relation("A", "k", "v").build()
        target = SchemaBuilder("t").relation("B", "k", "v1", "v2").build()
        problem = MappingProblem(source, target)
        problem.add_correspondence("A.k", "B.k")
        problem.add_correspondence("A.v", "B.v1")
        problem.add_correspondence("A.v", "B.v2")
        system = MappingSystem(problem)
        instance = instance_from_dict(source, {"A": [("x", "7")]})
        assert set(system.transform(instance).relation("B").rows) == {("x", "7", "7")}

    def test_shared_relation_names_rejected(self):
        schema_a = SchemaBuilder("a").relation("R", "k").build()
        schema_b = SchemaBuilder("b").relation("R", "k").build()
        problem = MappingProblem(schema_a, schema_b)
        with pytest.raises(SchemaError):
            problem.validate()

    def test_empty_source_relations(self, figure1_problem):
        system = MappingSystem(figure1_problem)
        source = Instance(figure1_problem.source_schema)
        source.add("C3", ("c1", "Ford"))  # a car, but no persons/owners
        output = system.transform(source)
        assert set(output.relation("C2").rows) == {("c1", "Ford", NULL)}
        assert len(output.relation("P2")) == 0


class TestRegressionStratifyDeterminism:
    def test_sql_statement_order_stable(self, figure1_problem, cars3_instance):
        """Regression: dependencies() once built its graph from a set, making
        SQL statement order hash-dependent and FK-enforced loads flaky."""
        from repro.sqlgen.compiler import compile_program

        program = MappingSystem(figure1_problem).transformation
        orders = {tuple(compile_program(program).sql()) for _ in range(10)}
        assert len(orders) == 1
        statements = next(iter(orders))
        p2_index = next(i for i, s in enumerate(statements) if '"P2"' in s)
        c2_index = next(i for i, s in enumerate(statements) if 'INTO "C2"' in s)
        assert p2_index < c2_index  # FK target loaded first


class TestNullSemantics:
    def test_two_null_owners_are_one_value(self):
        """Two ownerless cars share the null — joins treat null as a value."""
        problem = cars.figure14_problem()
        system = MappingSystem(problem)
        source = instance_from_dict(
            problem.source_schema,
            {"C2": [("c1", "Ford", NULL), ("c2", "Opel", NULL)]},
        )
        output = system.transform(source)
        assert len(output.relation("C3")) == 2
        assert len(output.relation("O3")) == 0

    def test_null_not_copied_into_mandatory_key(self):
        # A null FK never reaches O3 (whose attributes are mandatory).
        problem = cars.figure14_problem()
        system = MappingSystem(problem)
        source = cars.figure15_source_instance()
        output = system.transform(source)
        from repro.model.validation import validate_instance

        assert validate_instance(output).ok


class TestCorrespondenceIntoKeyFromNullable:
    def test_non_key_source_into_target_key_is_rejected(self):
        """A non-key source attribute feeding a target key is not functional:
        two source tuples can share the value — Algorithm 4 must "signal an
        error and stop" (the functionality check)."""
        from repro.errors import NonFunctionalMappingError

        source = SchemaBuilder("s").relation("A", "k", "v?").build()
        target = SchemaBuilder("t").relation("B", "v", "k2").build()  # key = v
        problem = MappingProblem(source, target)
        problem.add_correspondence("A.v", "B.v")
        problem.add_correspondence("A.k", "B.k2")
        with pytest.raises(NonFunctionalMappingError):
            MappingSystem(problem).transformation

    def test_key_source_into_target_key_is_functional(self):
        """Copying a source *key* into the target key is fine."""
        source = SchemaBuilder("s").relation("A", "k", "v?").build()
        target = SchemaBuilder("t").relation("B", "k", "v?").build()
        problem = MappingProblem(source, target)
        problem.add_correspondence("A.k", "B.k")
        problem.add_correspondence("A.v", "B.v")
        system = MappingSystem(problem)
        instance = instance_from_dict(source, {"A": [("x", "7"), ("y", NULL)]})
        output = system.transform(instance)
        assert set(output.relation("B").rows) == {("x", "7"), ("y", NULL)}


class TestMultipleFKsToSameRelation:
    def test_two_paths_to_one_relation(self):
        """A source relation with two FKs into the same relation: both paths
        produce distinct atoms and both referenced attributes are usable."""
        source = (
            SchemaBuilder("s")
            .relation("P", "pid", "name")
            .relation("Match", "mid", "home", "away")
            .foreign_key("Match", "home", "P")
            .foreign_key("Match", "away", "P")
            .build()
        )
        target = (
            SchemaBuilder("t")
            .relation("Game", "mid", "home_name", "away_name")
            .build()
        )
        problem = MappingProblem(source, target)
        problem.add_correspondence("Match.mid", "Game.mid")
        problem.add_correspondence("Match.home > P.name", "Game.home_name")
        problem.add_correspondence("Match.away > P.name", "Game.away_name")
        system = MappingSystem(problem)
        instance = instance_from_dict(
            source,
            {
                "P": [("p1", "Ada"), ("p2", "Alan")],
                "Match": [("m1", "p1", "p2"), ("m2", "p2", "p2")],
            },
        )
        output = system.transform(instance)
        assert set(output.relation("Game").rows) == {
            ("m1", "Ada", "Alan"),
            ("m2", "Alan", "Alan"),
        }


class TestGeneratedProgramsAreValid:
    @pytest.mark.parametrize("name", sorted(cars.all_problems()))
    def test_every_figure_program_validates(self, name):
        problem = cars.all_problems()[name]
        for algorithm in ("basic", "novel"):
            program = MappingSystem(problem, algorithm=algorithm).transformation
            program.validate()
