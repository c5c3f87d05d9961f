"""Tests for instance diffing."""

import pytest

from repro.errors import InstanceError
from repro.model.builder import SchemaBuilder
from repro.model.diff import diff_instances, diff_up_to_invented
from repro.model.instance import instance_from_dict
from repro.model.values import NULL, LabeledNull


def test_equal_instances(cars3_instance):
    diff = diff_instances(cars3_instance, cars3_instance.copy())
    assert diff.empty
    assert len(diff) == 0
    assert diff.to_text() == "(instances are equal)"


def test_asymmetric_difference(cars3):
    left = instance_from_dict(cars3, {"C3": [("c1", "Ford"), ("c2", "Opel")]})
    right = instance_from_dict(cars3, {"C3": [("c2", "Opel"), ("c3", "Fiat")]})
    diff = diff_instances(left, right)
    assert diff.changed_relations() == ["C3"]
    assert diff.relations["C3"].only_left == [("c1", "Ford")]
    assert diff.relations["C3"].only_right == [("c3", "Fiat")]
    assert len(diff) == 2


def test_text_rendering(cars2):
    left = instance_from_dict(cars2, {"C2": [("c1", "Ford", NULL)]})
    right = instance_from_dict(cars2, {"C2": [("c1", "Ford", "p1")]})
    text = diff_instances(left, right).to_text()
    assert "@@ C2 @@" in text
    assert "- (c1, Ford, null)" in text
    assert "+ (c1, Ford, p1)" in text


def test_schema_mismatch_rejected(cars3, cars2):
    from repro.model.instance import Instance

    with pytest.raises(InstanceError):
        diff_instances(Instance(cars3), Instance(cars2))


def test_diff_localizes_pipeline_difference(figure1_problem, cars3_instance):
    from repro.core.pipeline import MappingSystem
    from repro.core.schema_mapping import BASIC

    basic = MappingSystem(figure1_problem, algorithm=BASIC).transform(cars3_instance)
    novel = MappingSystem(figure1_problem).transform(cars3_instance)
    diff = diff_instances(novel, basic)
    assert set(diff.changed_relations()) == {"P2", "C2"}
    # The novel output's only exclusive row is the null-owner car.
    assert diff.relations["C2"].only_left == [("c86", "Ford", NULL)]


class TestDiffUpToInvented:
    @pytest.fixture
    def schema(self):
        return SchemaBuilder("s").relation("R", "k", "v").relation("S", "k", "w").build()

    @staticmethod
    def _nulls(prefix):
        return LabeledNull(prefix, (1,)), LabeledNull(prefix, (2,))

    def test_renaming_with_tied_rows_is_equal(self, schema):
        # R's rows tie once invented values are masked, so the canonical
        # renaming follows insertion order, which differs between the sides.
        n1, n2 = self._nulls("n")
        m1, m2 = self._nulls("m")
        left = instance_from_dict(
            schema, {"R": [("a", n1), ("a", n2)], "S": [(n1, "x"), (n2, "y")]}
        )
        right = instance_from_dict(
            schema, {"R": [("a", m2), ("a", m1)], "S": [(m1, "x"), (m2, "y")]}
        )
        assert diff_up_to_invented(left, right).empty
        assert diff_up_to_invented(right, left).empty

    def test_merging_two_invented_values_differs(self, schema):
        n1, n2 = self._nulls("n")
        m1, _ = self._nulls("m")
        left = instance_from_dict(schema, {"S": [(n1, "x"), (n2, "y")]})
        right = instance_from_dict(schema, {"S": [(m1, "x"), (m1, "y")]})
        assert diff_up_to_invented(left, right).changed_relations() == ["S"]
        assert diff_up_to_invented(right, left).changed_relations() == ["S"]

    def test_invented_value_is_not_a_constant(self, schema):
        n1, _ = self._nulls("n")
        left = instance_from_dict(schema, {"S": [(n1, "x")]})
        right = instance_from_dict(schema, {"S": [("c", "x")]})
        assert diff_up_to_invented(left, right).changed_relations() == ["S"]
