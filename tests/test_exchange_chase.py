"""Tests for the instance-level chase and canonical solutions."""

import pytest

from repro.core.pipeline import MappingSystem
from repro.core.schema_mapping import generate_schema_mapping
from repro.errors import ConstraintViolationError
from repro.exchange.instance_chase import (
    canonical_universal_solution,
    chase_with_key_egds,
    chase_with_tgds,
)
from repro.model.instance import instance_from_dict
from repro.model.values import NULL, LabeledNull
from repro.scenarios import cars


def _figure1_mapping(figure1_problem):
    return generate_schema_mapping(
        figure1_problem.source_schema,
        figure1_problem.target_schema,
        figure1_problem.correspondences,
    ).schema_mapping


class TestTgdChase:
    def test_invents_labeled_nulls(self, figure1_problem, cars3_instance):
        mapping = _figure1_mapping(figure1_problem)
        pre = chase_with_tgds(mapping, cars3_instance)
        c2_rows = pre.relation("C2").rows
        invented = [
            row for row in c2_rows if isinstance(row[2], LabeledNull)
        ]
        # The C3 -> C2 tgd fires for both cars, inventing owner placeholders.
        assert len(invented) == 2

    def test_null_policy(self, figure1_problem, cars3_instance):
        mapping = _figure1_mapping(figure1_problem)
        pre = chase_with_tgds(
            mapping, cars3_instance, null_for_nullable_existentials=True
        )
        nulls = [row for row in pre.relation("C2") if row[2] is NULL]
        assert len(nulls) == 2

    def test_premise_conditions_respected(self):
        # C.3: the p = null mapping only fires on ownerless cars.
        problem = cars.figure14_problem()
        mapping = generate_schema_mapping(
            problem.source_schema, problem.target_schema, problem.correspondences
        ).schema_mapping
        source = cars.figure15_source_instance()
        pre = chase_with_tgds(mapping, source)
        assert set(pre.relation("O3").rows) == {("c85", "p22")}
        assert set(pre.relation("C3").rows) == {("c85", "Ferrari"), ("c86", "Ford")}


class TestEgdChase:
    def test_labeled_null_yields_to_constant(self, cars2):
        invented = LabeledNull("f", ("c85",))
        instance = instance_from_dict(
            cars2,
            {"C2": [("c85", "Ferrari", invented), ("c85", "Ferrari", "p22")]},
        )
        result = chase_with_key_egds(instance)
        assert not result.failed
        assert result.merged == 1
        assert set(result.instance.relation("C2").rows) == {("c85", "Ferrari", "p22")}

    def test_substitution_propagates(self, cars2):
        invented = LabeledNull("f", ("c85",))
        instance = instance_from_dict(
            cars2,
            {
                "C2": [("c85", "Ferrari", invented), ("c85", "Ferrari", "p22")],
                "P2": [(invented, "n", "e")],
            },
        )
        result = chase_with_key_egds(instance)
        assert set(result.instance.relation("P2").rows) == {("p22", "n", "e")}

    def test_constant_clash_fails(self, cars2):
        instance = instance_from_dict(
            cars2,
            {"C2": [("c85", "Ferrari", "p1"), ("c85", "Ferrari", "p2")]},
        )
        result = chase_with_key_egds(instance)
        assert result.failed
        assert "c85" in result.failure_reason

    def test_null_clash_without_resolution(self, cars2):
        instance = instance_from_dict(
            cars2,
            {"C2": [("c85", "Ferrari", NULL), ("c85", "Ferrari", "p22")]},
        )
        assert chase_with_key_egds(instance).failed
        resolved = chase_with_key_egds(instance, resolve_nulls=True)
        assert not resolved.failed
        assert set(resolved.instance.relation("C2").rows) == {("c85", "Ferrari", "p22")}

    def test_null_preferred_over_invented(self, cars2):
        invented = LabeledNull("f", ("c85",))
        instance = instance_from_dict(
            cars2,
            {"C2": [("c85", "Ferrari", NULL), ("c85", "Ferrari", invented)]},
        )
        result = chase_with_key_egds(instance, resolve_nulls=True)
        assert set(result.instance.relation("C2").rows) == {("c85", "Ferrari", NULL)}

    def test_clean_instance_untouched(self, cars3_instance):
        result = chase_with_key_egds(cars3_instance)
        assert not result.failed
        assert result.instance == cars3_instance


class TestCanonicalSolution:
    def test_novel_output_is_canonical_under_null_policy(
        self, figure1_problem, cars3_instance
    ):
        system = MappingSystem(figure1_problem)
        produced = system.transform(cars3_instance)
        canonical = canonical_universal_solution(
            system.schema_mapping, cars3_instance, null_for_nullable_existentials=True
        )
        assert produced == canonical

    def test_canonical_merges_owner_conflicts(self, figure1_problem, cars3_instance):
        system = MappingSystem(figure1_problem)
        canonical = canonical_universal_solution(system.schema_mapping, cars3_instance)
        # The invented owner of c85 is merged with p22 by the key egd.
        owners = {row[0]: row[2] for row in canonical.relation("C2")}
        assert owners["c85"] == "p22"
        assert isinstance(owners["c86"], LabeledNull)

    def test_failure_raises(self, cars2):
        from repro.logic.atoms import RelationalAtom
        from repro.logic.mappings import LogicalMapping, Premise, SchemaMapping
        from repro.logic.terms import Variable
        from repro.model.builder import SchemaBuilder

        # Two sources copying different owners for the same car.
        source = (
            SchemaBuilder("s").relation("A", "car", "p").relation("B", "car", "p").build()
        )
        k, p = Variable("k"), Variable("p")
        k2, p2 = Variable("k2"), Variable("p2")
        mapping = SchemaMapping(source, cars2)
        mapping.mappings.append(
            LogicalMapping(
                Premise(atoms=(RelationalAtom("A", (k, p)),)),
                (RelationalAtom("C2", (k, Variable("m"), p)),),
                label="a",
            )
        )
        # make model existential-free by reusing p (not important here)
        mapping.mappings[0] = LogicalMapping(
            Premise(atoms=(RelationalAtom("A", (k, p)),)),
            (RelationalAtom("C2", (k, p, p)),),
            label="a",
        )
        mapping.mappings.append(
            LogicalMapping(
                Premise(atoms=(RelationalAtom("B", (k2, p2)),)),
                (RelationalAtom("C2", (k2, p2, p2)),),
                label="b",
            )
        )
        instance = instance_from_dict(source, {"A": [("c1", "x")], "B": [("c1", "y")]})
        with pytest.raises(ConstraintViolationError):
            canonical_universal_solution(mapping, instance)
