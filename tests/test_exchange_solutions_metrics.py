"""Tests for instance homomorphisms, universality and quality metrics."""

import pytest

from repro.core.pipeline import MappingSystem
from repro.core.schema_mapping import BASIC
from repro.exchange.instance_chase import canonical_universal_solution
from repro.exchange.metrics import comparison_table, measure_instance
from repro.exchange.solutions import (
    find_instance_homomorphism,
    homomorphically_equivalent,
    is_homomorphic_to,
    is_universal_solution,
)
from repro.model.instance import Instance, instance_from_dict
from repro.model.values import NULL, LabeledNull
from repro.scenarios import cars


class TestHomomorphism:
    def test_identity(self, cars3_instance):
        assert is_homomorphic_to(cars3_instance, cars3_instance)

    def test_labeled_null_maps_to_constant(self, cars2):
        invented = LabeledNull("f", ("c1",))
        a = instance_from_dict(cars2, {"C2": [("c1", "Ford", invented)]})
        b = instance_from_dict(cars2, {"C2": [("c1", "Ford", "p7")]})
        assignment = find_instance_homomorphism(a, b)
        assert assignment == {invented: "p7"}
        # but not the other way: constants are rigid.
        assert not is_homomorphic_to(b, a)

    def test_consistent_assignment_required(self, cars2):
        invented = LabeledNull("f", ("c",))
        a = instance_from_dict(
            cars2,
            {"C2": [("c1", "Ford", invented), ("c2", "Opel", invented)]},
        )
        b = instance_from_dict(
            cars2,
            {"C2": [("c1", "Ford", "p1"), ("c2", "Opel", "p2")]},
        )
        assert not is_homomorphic_to(a, b)  # one null cannot be both p1 and p2
        c = instance_from_dict(
            cars2,
            {"C2": [("c1", "Ford", "p1"), ("c2", "Opel", "p1")]},
        )
        assert is_homomorphic_to(a, c)

    def test_null_is_rigid(self, cars2):
        a = instance_from_dict(cars2, {"C2": [("c1", "Ford", NULL)]})
        b = instance_from_dict(cars2, {"C2": [("c1", "Ford", "p1")]})
        assert not is_homomorphic_to(a, b)
        assert is_homomorphic_to(a, a)

    def test_relation_missing_from_target_blocks(self, cars3_instance, cars2):
        assert find_instance_homomorphism(cars3_instance, Instance(cars2)) is None

    def test_lookup_defect_propagates(self, monkeypatch, cars3_instance):
        def broken(self, name):
            raise TypeError("defect in relation lookup")

        monkeypatch.setattr(Instance, "relation", broken)
        with pytest.raises(TypeError, match="defect in relation lookup"):
            find_instance_homomorphism(cars3_instance, cars3_instance)

    def test_missing_tuple_blocks(self, cars3_instance):
        smaller = cars3_instance.copy()
        smaller.relation("O3").discard(("c85", "p22"))
        assert is_homomorphic_to(smaller, cars3_instance)
        assert not is_homomorphic_to(cars3_instance, smaller)

    def test_equivalence(self, cars3_instance):
        assert homomorphically_equivalent(cars3_instance, cars3_instance.copy())


class TestUniversality:
    def test_novel_output_universal_under_null_policy(
        self, figure1_problem, cars3_instance
    ):
        system = MappingSystem(figure1_problem)
        produced = system.transform(cars3_instance)
        canonical = canonical_universal_solution(
            system.schema_mapping, cars3_instance, null_for_nullable_existentials=True
        )
        assert is_universal_solution(produced, canonical)


class TestMetrics:
    def test_figure2_vs_figure3(self, figure1_problem, cars3_instance):
        basic = MappingSystem(figure1_problem, algorithm=BASIC).transform(cars3_instance)
        novel = MappingSystem(figure1_problem).transform(cars3_instance)

        basic_metrics = measure_instance(basic)
        novel_metrics = measure_instance(novel)

        # Figure 2: 7 tuples, 6 distinct invented values, a key violation on
        # C2 and two useless P2 tuples.
        assert basic_metrics.total_tuples == 7
        assert basic_metrics.distinct_invented == 6
        assert basic_metrics.key_violations == 1
        assert basic_metrics.useless_tuples == 2
        assert not basic_metrics.ok

        # Figure 3: 4 tuples, no invented values, one null, no violations.
        assert novel_metrics.total_tuples == 4
        assert novel_metrics.distinct_invented == 0
        assert novel_metrics.null_values == 1
        assert novel_metrics.useless_tuples == 0
        assert novel_metrics.ok

    def test_partially_invented(self, figure1_problem, cars3_instance):
        basic = MappingSystem(figure1_problem, algorithm=BASIC).transform(cars3_instance)
        metrics = measure_instance(basic)
        # C2 tuples mixing a real car with an invented owner.
        assert metrics.partially_invented_tuples == 2

    def test_comparison_table(self, figure1_problem, cars3_instance):
        basic = MappingSystem(figure1_problem, algorithm=BASIC).transform(cars3_instance)
        novel = MappingSystem(figure1_problem).transform(cars3_instance)
        table = comparison_table({"basic": basic, "novel": novel})
        assert "basic" in table and "novel" in table
        assert "key-violations" in table

    def test_empty_table(self):
        assert comparison_table({}) == "(no results)"
